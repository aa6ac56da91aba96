import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bitorus.counting as counting
from bitorus.counting import (
    CANONICAL_STRINGS,
    DELTA,
    GAMMA,
    LAMBDA,
    TERMINAL_PAIRS,
    TREE_CHARS,
    TREE_MAPS,
    _base_counts,
    apply_tree_string,
    canonicalize,
    compose,
    diag_count_reduction,
    diag_count_string,
    diag_count_tree,
    euclid_state,
    perm_cycles,
    reduce_pair,
    reduction_base,
    run_powers,
    string_cycles,
    string_intervals,
    string_powers,
    tree_string,
)
from bitorus.diagonals import NAIVE_CAP, diag_count_naive
from bitorus.errors import CapExceededError, InconsistencyError
from bitorus.surface import GridParams
from bitorus.verify import CHECKS, run_check
from cell_reference import derive_quad_perms


def coprime_pairs(limit, lo=1):
    for n in range(lo, limit + 1):
        for m in range(lo, limit + 1):
            if math.gcd(n, m) == 1:
                yield n, m


# --- quadrant permutations -------------------------------------------------

def test_quad_perms_are_four_cycles_with_expected_relations():
    d, r = counting.DOWN_CROSSING, counting.RIGHT_CROSSING
    assert perm_cycles(d) == 1 and perm_cycles(r) == 1
    d4 = compose(d, compose(d, compose(d, d)))
    assert d4 == (0, 1, 2, 3)
    swap = (1, 0, 3, 2)
    assert compose(swap, compose(d, swap)) == d
    r_inv = tuple(r.index(i) for i in range(4))
    assert compose(swap, compose(r, swap)) == r_inv


def test_quad_perms_independent_of_sample_grid():
    # the pinned literals are what the wrap rules give on every sample grid
    for n, m in [(2, 2), (2, 3), (3, 2), (5, 4), (4, 7), (6, 9)]:
        assert derive_quad_perms(GridParams(n, m)) == (counting.DOWN_CROSSING, counting.RIGHT_CROSSING)
    with pytest.raises(ValueError):
        derive_quad_perms(GridParams(1, 5))


def test_known_crossing_transitions():
    d, r = counting.DOWN_CROSSING, counting.RIGHT_CROSSING
    # midline down-crossing leaves the column half alone; the outer one flips it
    assert d[0] == 2  # TL -> BL
    assert d[2] == 1  # BL -> TR


# --- crossing strings ------------------------------------------------------

def test_string_intervals_example():
    assert string_intervals(2, 3) == "drdrd"


def test_string_powers_example():
    assert string_powers(2, 3) == "ddrdr"


def test_string_character_counts():
    s = string_intervals(2, 5)
    assert s.count("d") == 5 and s.count("r") == 2
    assert len(string_intervals(3, 4)) == 7


def test_powers_is_conjugated_intervals():
    assert run_check("string-construction", 40).ok


def test_string_preconditions():
    with pytest.raises(ValueError):
        string_intervals(1, 5)
    with pytest.raises(ValueError):
        string_intervals(2, 4)
    with pytest.raises(ValueError):
        string_powers(4, 2)


def test_string_builders_refuse_non_integer_sizes():
    for build in (string_intervals, string_powers):
        with pytest.raises(ValueError, match="must be an integer"):  # raised TypeError
            build(2.0, 3)


def test_string_cycles_examples():
    assert string_cycles("") == 4
    assert string_cycles(string_powers(2, 3)) == 1
    assert string_cycles(string_powers(3, 5)) == 2


def test_ceiling_product_evaluates_like_the_power_string():
    d, r = counting.DOWN_CROSSING, counting.RIGHT_CROSSING
    for n, m in coprime_pairs(40, lo=2):
        word_perm = (0, 1, 2, 3)
        for ch in string_powers(n, m):
            word_perm = compose(d if ch == "d" else r, word_perm)
        ceil_perm = (0, 1, 2, 3)
        for i in range(1, n + 1):
            e = -((-i * m) // n) - (-((-(i - 1) * m) // n))
            for _ in range(e):
                ceil_perm = compose(d, ceil_perm)
            ceil_perm = compose(r, ceil_perm)
        assert ceil_perm == word_perm


def test_diag_count_string_values():
    assert diag_count_string(2, 3) == 1
    assert diag_count_string(4, 6) == 2
    assert diag_count_string(3, 5) == 2
    assert diag_count_string(1, 9) == 2  # side-1 closed form


def test_side_one_closed_form_matches_the_direct_count():
    for b in range(1, 120):
        for g in (1, 2, 3):
            assert diag_count_string(g, g * b) == diag_count_naive(g, g * b)
            assert diag_count_string(g * b, g) == diag_count_naive(g * b, g)


def test_width_shift_by_four_heights_preserves_cycles():
    for n, m in coprime_pairs(25, lo=2):
        assert string_cycles(string_powers(n, m)) == string_cycles(string_powers(n, 4 * n + m))


def test_width_reflection_preserves_cycles():
    for n in range(2, 26):
        for m in range(2, 4 * n - 1):
            if math.gcd(n, m) != 1 or 4 * n - m <= 1:
                continue
            assert string_cycles(string_powers(n, m)) == string_cycles(
                string_powers(n, 4 * n - m)
            )


# --- reductions ------------------------------------------------------------

def test_euclid_state_fields():
    s = euclid_state(5, 7)
    assert (s.q0, s.r0, s.q1, s.r1) == (1, 2, 2, 1)
    with pytest.raises(ValueError):
        euclid_state(4, 6)
    with pytest.raises(ValueError):
        euclid_state(7, 5)


@pytest.mark.parametrize(
    "entry,n,m",
    # euclid_state(5.0, 19) and reduce_pair(5.0, 19) raised TypeError; reduce_pair(2.0, 3)
    # and reduce_pair(True, 2) returned None, reading them as the base pairs (2, 3) and (1, 2)
    [(euclid_state, 5.0, 19), (reduce_pair, 5.0, 19), (reduce_pair, 2.0, 3), (reduce_pair, True, 2)],
)
def test_reduction_entries_refuse_non_integer_sizes(entry, n, m):
    with pytest.raises(ValueError, match="must be an integer"):
        entry(n, m)


def test_reduce_pair_examples():
    assert reduce_pair(1, 9) == (1, 5)
    assert reduce_pair(2, 7) == (2, 1)
    assert reduce_pair(5, 7) == (1, 1)
    assert reduce_pair(2, 3) is None
    assert reduce_pair(1, 4) is None


def reduction_trace(n, m):
    """Pairs visited from (n, m) down to a base pair, reordered ascending.

    One pair per rule application, so a subtractive run of rule 1 or 4
    lists every pair on it: this is the reference the batched walk of
    `reduction_base` is tested against.  Such a run lists up to
    (n + m) / 4 pairs, so CapExceededError past n + m = NAIVE_CAP.
    """
    g, a, b = counting._reduced_sizes(n, m)
    if g * (a + b) > NAIVE_CAP:
        raise CapExceededError(f"grid ({n},{m}) has n + m > {NAIVE_CAP}; the trace lists every pair "
                               f"of a rule run and is capped there -- use reduction_base")
    trail = [(a, b)]
    while (found := counting._rule(*trail[-1])) is not None:
        rule, (a, b), (c, d) = found[0], trail[-1], sorted(found[1])
        if c < 1 or c + d >= a + b:
            raise InconsistencyError(f"rule {rule} took ({a}, {b}) to ({c}, {d}), not a smaller positive pair")
        trail.append((c, d))
    return trail


def test_reduction_traces():
    assert reduction_trace(1, 9) == [(1, 9), (1, 5), (1, 1)]
    assert reduction_trace(2, 7) == [(2, 7), (1, 2)]
    assert reduction_trace(4, 6) == [(2, 3)]


def test_base_pair_values():
    values = {pair: diag_count_naive(*pair) for pair in TERMINAL_PAIRS}
    assert _base_counts() == values == {
        (1, 1): 2, (1, 2): 3, (1, 3): 2, (1, 4): 1, (2, 3): 1, (3, 4): 1,
    }


def test_each_step_preserves_count_and_parity():
    assert run_check("reduction-rules", 4).ok  # coprime n < m <= 40


def test_diag_count_reduction_values():
    assert diag_count_reduction(2, 3) == 1
    assert diag_count_reduction(3, 5) == 2
    assert diag_count_reduction(1, 1) == 2
    assert diag_count_reduction(4, 6) == 2


def test_batched_reduction_reaches_the_traced_base_pair():
    for n in range(1, 301):
        for m in range(n, 301):
            assert reduction_base(n, m) == reduction_trace(n, m)[-1]


def test_reduction_trace_lowers_the_sum_on_long_runs():
    # rule 4 runs 33332 times here; a fixed step cap of 10,000 raised
    trail = reduction_trace(99999, 100000)
    sums = [a + b for a, b in trail]
    assert all(x > y for x, y in zip(sums, sums[1:]))
    assert len(trail) > 10_000
    assert trail[-1] == reduction_base(99999, 100000) == (3, 4)


def test_reduction_trace_refuses_past_the_naive_cap(monkeypatch):
    # (1, NAIVE_CAP) is one rule-1 run of NAIVE_CAP / 4 pairs: refused before any is listed
    assert reduction_base(1, NAIVE_CAP) == (1, 4)
    monkeypatch.setattr(counting, "_rule", lambda n, m: pytest.fail("a pair was reduced"))
    with pytest.raises(CapExceededError, match="reduction_base"):
        reduction_trace(1, NAIVE_CAP)


def test_reduction_step_that_does_not_lower_the_sum_is_inconsistent(monkeypatch):
    monkeypatch.setattr(counting, "_rule", lambda n, m: (2, (n, m), (n, m)))
    with pytest.raises(InconsistencyError):
        reduction_trace(1, 9)
    with pytest.raises(InconsistencyError):
        diag_count_reduction(1, 9)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 10**12), st.integers(1, 10**12))
def test_every_rule_run_starts_on_a_coprime_ordered_pair(n, m):
    # `_rule` checks no pair itself, so the reduction must only hand it coprime a <= b
    calls = _rule_calls(n, m)
    assert calls and all(math.gcd(a, b) == 1 and 1 <= a <= b for a, b in calls)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 10**5), st.integers(1, 10**5))
def test_every_pair_on_the_trace_is_coprime_and_ordered(n, m):
    # sides stay small here: a trace lists every pair of a rule run, up to (n + m) / 4 of them
    assert all(math.gcd(a, b) == 1 and 1 <= a <= b for a, b in reduction_trace(n, m))


def test_every_pair_that_is_not_coprime_is_inconsistent():
    # the rules keep the gcd, so such a pair never reaches a base pair: it must raise, never count
    for a in range(2, 61):
        for b in range(a, 61):
            if math.gcd(a, b) > 1:
                with pytest.raises(InconsistencyError):
                    counting._base_pair(a, b)


# (6, 10) reaches rule 8, whose (1, 1) would drop the gcd; (3, 12) ends a rule 1 run at (0, 3)
@pytest.mark.parametrize("planted", [(6, 10), (3, 12), (4, 6), (2, 4)])
def test_a_rule_that_emits_a_pair_that_is_not_coprime_is_inconsistent(monkeypatch, planted):
    rule = counting._rule
    monkeypatch.setattr(
        counting, "_rule", lambda a, b: (3, planted, planted) if (a, b) == (7, 19) else rule(a, b)
    )
    with pytest.raises(InconsistencyError):
        diag_count_reduction(7, 19)
    with pytest.raises(InconsistencyError):
        reduction_trace(7, 19)


def test_a_pair_no_rule_matches_is_inconsistent(monkeypatch):
    # (2, 3) matches no guard: as a non-base pair it must raise, never count
    monkeypatch.setattr(counting, "TERMINAL_PAIRS", TERMINAL_PAIRS - {(2, 3)})
    with pytest.raises(InconsistencyError):
        diag_count_reduction(2, 3)
    with pytest.raises(InconsistencyError):
        reduce_pair(2, 3)


def _rule_calls(n, m):
    """The pair of each `_rule` call, one per rule run, under diag_count_reduction(n, m)."""
    calls = []
    rule = counting._rule
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(counting, "_rule", lambda a, b: calls.append((a, b)) or rule(a, b))
        diag_count_reduction(n, m)
    return calls


def test_reduction_runs_are_logarithmic():
    # counted work, not time: at most log2(n + m) + 2 rule runs
    fib = [0, 1]  # F_k = fib[k]
    while len(fib) < 200:
        fib.append(fib[-1] + fib[-2])
    pairs = [(fib[k - 1], fib[k]) for k in range(20, 200)]
    rng = random.Random(19)
    pairs += [(rng.randint(1, 10**e), rng.randint(1, 10**e)) for e in range(2, 101) for _ in range(10)]
    pairs += [(n, m) for m in range(1, 201) for n in range(1, m + 1)]
    for n, m in pairs:
        assert len(_rule_calls(n, m)) <= math.log2(n + m) + 2, (n, m)
    assert len(_rule_calls(fib[198], fib[199])) == 88


# --- ternary tree ----------------------------------------------------------

def test_tree_children_forms():
    children = [apply_tree_string(ch, (2, 1)) for ch in (GAMMA, DELTA, LAMBDA)]
    assert children == [(3, 2), (5, 2), (4, 1)]


def test_tree_string_examples():
    assert tree_string(2, 1) == ""
    assert tree_string(3, 2) == GAMMA
    assert tree_string(5, 2) == DELTA
    assert tree_string(4, 1) == LAMBDA


def test_tree_string_inverts_application():
    for m in range(2, 80):
        for n in range(1, m):
            if math.gcd(m, n) != 1 or (m + n) % 2 == 0:
                continue
            assert apply_tree_string(tree_string(m, n)) == (m, n)


def test_tree_string_rejects_bad_pairs():
    with pytest.raises(ValueError):
        tree_string(3, 1)  # even sum
    with pytest.raises(ValueError):
        tree_string(2, 4)
    with pytest.raises(ValueError):
        tree_string(6, 3)


def test_tree_address_refuses_non_integer_pairs():
    with pytest.raises(ValueError, match="must be an integer"):  # raised TypeError
        tree_string(4.0, 1)


def test_canonicalize_examples():
    assert canonicalize(DELTA) == GAMMA
    assert canonicalize(GAMMA + DELTA) == LAMBDA
    assert canonicalize(LAMBDA + GAMMA) == ""
    assert canonicalize("") == ""
    assert canonicalize(GAMMA + GAMMA) == GAMMA + GAMMA


def test_canonicalize_lands_in_canonical_set():
    rng = random.Random(13)
    for _ in range(500):
        ts = "".join(rng.choice(GAMMA + DELTA + LAMBDA) for _ in range(rng.randint(0, 12)))
        assert canonicalize(ts) in CANONICAL_STRINGS


def test_canonical_pairs_and_their_counts():
    states = {
        "": (2, 1),
        GAMMA: (3, 2),
        GAMMA + GAMMA: (4, 3),
        LAMBDA: (4, 1),
    }
    for state, pair in states.items():
        assert apply_tree_string(state) == pair
    assert diag_count_naive(1, 2) == 3
    assert diag_count_naive(2, 3) == 1
    assert diag_count_naive(3, 4) == 1
    assert diag_count_naive(1, 4) == 1


def test_diag_count_tree_values():
    assert diag_count_tree(2, 5) == 1
    assert diag_count_tree(3, 5) == 2
    assert diag_count_tree(6, 10) == 4
    assert diag_count_tree(1, 1) == 2
    assert diag_count_tree(7, 7) == 14


def test_tree_runs_spell_the_single_step_tree_string():
    for m in range(2, 300):
        for n in range(1, m):
            if math.gcd(m, n) != 1 or (m + n) % 2 == 0:
                continue
            runs = list(counting._tree_runs(m, n))
            assert "".join(ch * k for ch, k in runs) == tree_string(m, n)
            assert all(a != b for (a, _), (b, _) in zip(runs, runs[1:]) if a != DELTA)


def test_whole_runs_in_one_step():
    assert list(counting._tree_runs(10**6, 1)) == [(LAMBDA, 499_999)]
    assert list(counting._tree_runs(10**6 + 1, 10**6)) == [(GAMMA, 999_999)]


def test_tree_route_reads_at_most_log2_runs(monkeypatch):
    # counted work, not time: diag_count_tree(n, m) reads at most
    # log2(n + m) + 1 runs of its tree address
    read = []
    runs = counting._tree_runs

    def counted(m, n):
        read[:] = runs(m, n)
        return read

    monkeypatch.setattr(counting, "_tree_runs", counted)

    def runs_read(n, m):
        read.clear()
        diag_count_tree(n, m)
        return len(read)

    for m in range(2, 3000):  # every even-odd coprime pair, worst 0.93 log2(n + m)
        for n in range(1 + m % 2, m, 2):
            if math.gcd(n, m) == 1:
                assert 2 ** (runs_read(n, m) - 1) <= n + m, (n, m)
    fib = [0, 1]  # F_k = fib[k]; worst 0.95 log2(n + m)
    while len(fib) <= 200:
        fib.append(fib[-1] + fib[-2])
    pairs = [(fib[k - 1], fib[k]) for k in range(2, 201)]
    rng = random.Random(23)
    pairs += [(rng.randint(1, 10**e), rng.randint(1, 10**e)) for e in range(2, 101) for _ in range(10)]
    for n, m in pairs:
        assert runs_read(n, m) <= math.log2(n + m) + 1, (n, m)
    assert runs_read(1, 10**6) == runs_read(10**6, 10**6 + 1) == 1
    assert runs_read(fib[198], fib[199]) == 131


def _run_power(ch, k, f):
    """Map id of ch^k prepended to id f, read off the table's powers as diag_count_tree does."""
    transient, period, powers = TREE_MAPS.runs[ch]
    return powers[k if k < transient + period else transient + (k - transient) % period][f]


def test_run_transition_repeats_the_single_transition():
    assert all(canonicalize(state) == state for state in CANONICAL_STRINGS)
    children = TREE_MAPS.children
    for i, ch in enumerate(TREE_CHARS):
        for f in range(len(children)):
            step = f
            for k in range(40):
                assert _run_power(ch, k, f) == step
                step = children[step][i]
        for k in range(40):
            image = TREE_MAPS.maps[_run_power(ch, k, 0)]
            assert image == tuple(canonicalize(state + ch * k) for state in CANONICAL_STRINGS)
            assert image[0] == canonicalize(ch * k)


def test_run_powers_are_derived_from_the_automaton():
    # gamma and delta have period 3, lambda period 2, all after one step
    periods = {ch: (t, p) for ch, (t, p, _) in TREE_MAPS.runs.items()}
    assert periods == {GAMMA: (1, 3), DELTA: (1, 3), LAMBDA: (1, 2)}
    for i, ch in enumerate(TREE_CHARS):
        assert TREE_MAPS.runs[ch] == run_powers([row[i] for row in TREE_MAPS.children])
    assert run_powers([1, 2, 0]) == (0, 3, ((0, 1, 2), (1, 2, 0), (2, 0, 1)))
    assert run_powers([1, 2, 0, 2]) == (1, 3, ((0, 1, 2, 3), (1, 2, 0, 2), (2, 0, 1, 0), (0, 1, 2, 1)))
    assert run_powers([1, 2, 2]) == (2, 1, ((0, 1, 2), (1, 2, 2), (2, 2, 2)))


def test_canonical_state_agrees_with_direct_count():
    for m in range(2, 50):
        for n in range(1, m):
            if math.gcd(m, n) != 1 or (m + n) % 2 == 0:
                continue
            state = canonicalize(tree_string(m, n))
            target = apply_tree_string(state)
            assert diag_count_naive(n, m) == diag_count_naive(
                min(target), max(target)
            )


# --- agreement at scale ------------------------------------------------------

_sides = st.one_of(st.integers(1, 10**4), st.integers(1, 10**12), st.integers(1, 10**100))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_sides, _sides, st.integers(1, 12))
def test_tree_and_reduction_agree_on_large_pairs(n, m, common):
    n, m = common * n, common * m  # keep pairs with gcd > 1
    count = diag_count_tree(n, m)
    assert count == diag_count_reduction(n, m)
    if n + m <= 2 * 10**4:
        assert count == diag_count_naive(n, m)


@pytest.mark.parametrize(
    # expected values from diag_count_naive, which takes seconds on the first three
    "n,m,expected",
    [(1, 10**6, 1), (3, 10**6 + 1, 2), (99999, 100000, 1), (1, 2 * 10**60, 1)],
)
def test_counters_answer_and_agree_at_scale(n, m, expected):
    assert diag_count_tree(n, m) == diag_count_reduction(n, m) == expected
    if n == 1:
        assert diag_count_string(n, m) == expected


# --- interleaving identity ---------------------------------------------------

@pytest.mark.parametrize(
    "count", [diag_count_tree, diag_count_string, diag_count_reduction, reduction_trace]
)
@pytest.mark.parametrize("n,m", [(True, 3), (3, True), (2.5, 3), (3, 3.0), (0, 3), (3, -1)])
def test_counters_reject_non_positive_integer_sizes(count, n, m):
    # diag_count_tree(True, 3) used to answer 2
    with pytest.raises(ValueError):
        count(n, m)


def test_counters_accept_index_types():
    assert diag_count_tree(np.int64(2), np.int64(3)) == diag_count_tree(2, 3) == 1
    assert diag_count_string(np.int32(3), 5) == diag_count_reduction(np.int16(3), 5) == 2


def test_floor_swap_identity_trivial_and_crossing_perms():
    ident = (0, 1, 2, 3)
    assert CHECKS["floor-swap"].holds(ident, ident, 5, 9)
    d, r = counting.DOWN_CROSSING, counting.RIGHT_CROSSING
    assert CHECKS["floor-swap"].holds(d, r, 2, 3)


_permutation_pairs = st.integers(1, 8).flatmap(
    lambda size: st.tuples(st.permutations(range(size)), st.permutations(range(size)))
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_permutation_pairs, st.integers(1, 30), st.integers(1, 30))
def test_floor_swap_identity_randomized(pair, n, m):
    phi, pi = pair
    assert CHECKS["floor-swap"].holds(tuple(phi), tuple(pi), n, m)

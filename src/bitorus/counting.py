"""Fast diagonal counting: crossing strings, pair reductions, tree walk.

Three independent accelerations of the orbit count, each with the bound
the tests count:

* Crossing strings, O(n + m).  The diagonal of the n x m torus crosses
  the bottom and right boundaries in a fixed pattern; reading each
  crossing as a permutation of the four quadrants of the folded grid
  turns the count into a cycle count of a word over two 4-cycles.

* Pair reductions.  Ten rewriting rules shrink a coprime pair while
  preserving the diagonal count, terminating in one of six base pairs.
  Each rule strictly lowers n + m.  Rules 1 (m -> m - 4n) and 4
  (q1 -> q1 - 3) repeat subtractively, so the counter applies each of
  their runs at once with a quotient mod 4 or 3: at most log2(n + m) + 2
  rule runs.

* Ternary tree.  Coprime pairs (m, n) with m > n and m + n odd form a
  ternary tree rooted at (2, 1); the path from a pair to the root,
  canonicalised by five rewriting rules, determines the count.  One
  automaton encodes the canonicalisation: `TREE_MAPS`, whose map ids
  name the state maps of tree strings, with each id's children and
  value.  `diag_count_tree` reads a pair's address as at most
  log2(n + m) + 1 runs, each taken with one divmod and applied as one
  precomputed power of its character's child map, as the census does.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cache

from .errors import CapExceededError, InconsistencyError, check_int
from .links import perm_cycles
from .surface import check_sizes
from .diagonals import diag_count_naive

QuadPerm = tuple[int, int, int, int]

IDENTITY: QuadPerm = (0, 1, 2, 3)
# The quadrants a down-crossing and a right-crossing send each quadrant to, numbered
# TL 0, TR 1, BL 2, BR 3; tests/cell_reference.py derives both from the wrap rules.
DOWN_CROSSING: QuadPerm = (2, 3, 1, 0)
RIGHT_CROSSING: QuadPerm = (1, 2, 3, 0)

GAMMA = "γ"
DELTA = "δ"
LAMBDA = "λ"
TREE_CHARS = GAMMA + DELTA + LAMBDA

CANONICAL_STRINGS = ("", GAMMA, GAMMA + GAMMA, LAMBDA)

#: Irreducible base pairs of the reduction system (n <= m).
TERMINAL_PAIRS = frozenset({(1, 1), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4)})


def compose(p: QuadPerm, q: QuadPerm) -> QuadPerm:
    """Permutation applying q first, then p."""
    return tuple(p[q[i]] for i in range(len(q)))


def _check_string_args(n: int, m: int) -> tuple[int, int]:
    """n and m as ints; ValueError unless both are > 1 and coprime."""
    n, m = check_int(n, 2, "n"), check_int(m, 2, "m")
    if math.gcd(n, m) != 1:
        raise ValueError(f"crossing strings need coprime sizes, got ({n}, {m})")
    return n, m


def string_intervals(n: int, m: int) -> str:
    """Crossing string read off the torus diagonal bottom-crossing first.

    Walking the multiples n, 2n, ..., mn, each step contributes the
    right-crossings accumulated since the previous multiple, then one
    down-crossing.
    """
    n, m = _check_string_args(n, m)
    parts = []
    for j in range(1, m + 1):
        i = (j * n) // m - ((j - 1) * n) // m
        parts.append("r" * i + "d")
    return "".join(parts)


def string_powers(n: int, m: int) -> str:
    """Conjugated crossing string built right-crossing last.

    Equals the bottom-first string conjugated by one down-crossing.
    """
    n, m = _check_string_args(n, m)
    k, p = divmod(m, n)
    parts = []
    for i in range(n):
        e = k + 1 if (-i * m) % n < p else k
        parts.append("d" * e + "r")
    return "".join(parts)


def string_cycles(word: str) -> int:
    """Cycle count of a crossing word, first crossing applied first."""
    net = IDENTITY
    for ch in word:
        if ch == "d":
            net = compose(DOWN_CROSSING, net)
        elif ch == "r":
            net = compose(RIGHT_CROSSING, net)
        else:
            raise ValueError(f"crossing characters must be d or r, got {ch!r}")
    return perm_cycles(net)


# The word of the core (a, b) has a + b letters: about 2.6 s and 100 MB at 2 * 10**6 letters
# on a 2-core x86-64 box, linear in a + b.
STRING_CAP = 2 * 10**6


def diag_count_string(n: int, m: int) -> int:
    """Diagonal count via the crossing-string permutation.

    CapExceededError when the word would pass STRING_CAP letters.
    """
    n, m = check_sizes(n, m)
    g = math.gcd(n, m)
    a, b = n // g, m // g
    if a == 1 or b == 1:
        # The string construction excludes side-1 shapes.  By reduction
        # rule 1, (1, b) counts like the base pair (1, (b - 1) % 4 + 1).
        return g * _base_counts()[(1, (max(a, b) - 1) % 4 + 1)]
    if a + b > STRING_CAP:
        raise CapExceededError(f"grid ({n},{m}) needs a crossing word of {a + b} letters; the string "
                               f"route is capped at {STRING_CAP} -- use diag_count_tree")
    return g * string_cycles(string_powers(a, b))


# ---------------------------------------------------------------------------
# Pair reductions


@dataclass(frozen=True)
class ReductionState:
    """A coprime pair with its double-remainder Euclidean data.

    m = q0*n + r0, n = q1*r0 + r1, r0 = q2*r1 + r2; the later quotients
    are None where the previous remainder vanished.
    """

    n: int
    m: int
    q0: int
    r0: int
    q1: int | None
    r1: int | None
    q2: int | None
    r2: int | None


def euclid_state(n: int, m: int) -> ReductionState:
    """Euclidean data of a coprime pair 1 <= n <= m; ValueError for any other input."""
    n, m = check_int(n, 1, "n"), check_int(m, 1, "m")
    _check_reducible(n, m)
    q0, r0 = divmod(m, n)
    q1 = r1 = q2 = r2 = None
    if r0 > 0:
        q1, r1 = divmod(n, r0)
        if r1 > 0:
            q2, r2 = divmod(r0, r1)
    return ReductionState(n, m, q0, r0, q1, r1, q2, r2)


def _check_reducible(n: int, m: int) -> None:
    if not 1 <= n <= m:
        raise ValueError(f"need 1 <= n <= m, got ({n}, {m})")
    if math.gcd(n, m) != 1:
        raise ValueError(f"reductions need a coprime pair, got ({n}, {m})")


def _branch_rules(s: ReductionState) -> list[tuple[int, tuple[int, int]]]:
    """All reduction branches whose guard matches the state: the reference
    `verify` holds `_rule` to, where exactly one must match."""
    n, r0, q1, r1, q2, r2 = s.n, s.r0, s.q1, s.r1, s.q2, s.r2
    out = []
    if s.q0 >= 4:
        out.append((1, (n, (s.q0 - 4) * n + r0)))
    if s.q0 == 3:
        out.append((2, (n, n - r0)))
    if s.q0 == 2:
        out.append((3, (n, 2 * n - r0)))
    if s.q0 == 1 and q1 is not None:
        if q1 >= 4:
            out.append((4, ((q1 - 3) * r0 + r1, (q1 - 2) * r0 + r1)))
        if q1 == 3 and r1 > 0:
            out.append((5, (r1, r0 + r1)))
        if q1 == 2 and r1 > 0:
            out.append((6, (r1, r0 - r1)))
        if q1 == 1 and q2 is not None:
            if q2 % 2 == 0 and r1 > r2 > 0:
                out.append((7, (r1 + r2, r1 + 2 * r2)))
            if q2 % 2 == 0 and r1 > r2 == 0:
                out.append((8, (1, 1)))
            if q2 % 2 == 1 and r1 > r2 > 0:
                out.append((9, (r2, r1 + 2 * r2)))
            if q2 % 2 == 1 and r1 > r2 == 0:
                out.append((10, (2, 3)))
    return out


def _rule(n: int, m: int) -> tuple[int, tuple[int, int], tuple[int, int]] | None:
    """Rule number, emitted pair and run end of the branch matching (n, m); None on a base pair.

    One pass over the guards of `_branch_rules`, at most three divmods;
    InconsistencyError if none matches.  A run repeats its rule: rule 1's
    ends at q0 % 4, or at a base pair (1, 1..4) if n = 1; rule 4's at q1 <= 3.
    The pair must be coprime with 1 <= n <= m, which `reduce_pair` checks
    and `_reduced_sizes` gives; no step checks it again.  Each rule keeps
    the gcd, save rules 8 and 10, whose constant pairs would drop it; they
    fire at r2 = 0, where gcd(n, m) = r1, so they also need r1 = 1.  A
    pair that is not coprime thus ends at a pair no rule matches, a run
    that does not lower n + m, or a run end of 0, each refused.
    """
    if (n, m) in TERMINAL_PAIRS:
        return None
    q0, r0 = divmod(m, n)
    if q0 >= 4:
        return 1, (n, m - 4 * n), ((1, (q0 - 1) % 4 + 1) if n == 1 else (n, q0 % 4 * n + r0))
    if q0 == 3:
        return 2, (n, n - r0), (n, n - r0)
    if q0 == 2:
        return 3, (n, 2 * n - r0), (n, 2 * n - r0)
    if r0:  # q0 == 1
        q1, r1 = divmod(n, r0)
        if q1 >= 4:
            k = (q1 - 1) % 3 + 1
            return 4, ((q1 - 3) * r0 + r1, (q1 - 2) * r0 + r1), (k * r0 + r1, (k + 1) * r0 + r1)
        if r1 and q1 == 3:
            return 5, (r1, r0 + r1), (r1, r0 + r1)
        if r1 and q1 == 2:
            return 6, (r1, r0 - r1), (r1, r0 - r1)
        if r1:  # q1 == 1, and r2 < r1 by the divmod
            q2, r2 = divmod(r0, r1)
            if not (r2 or r1 == 1):
                raise InconsistencyError(f"pair ({n}, {m}) has gcd {r1}; reductions need a coprime pair")
            if q2 % 2 == 0:
                pair = (7, (r1 + r2, r1 + 2 * r2)) if r2 else (8, (1, 1))
            else:
                pair = (9, (r2, r1 + 2 * r2)) if r2 else (10, (2, 3))
            return *pair, pair[1]
    raise InconsistencyError(f"pair ({n}, {m}) matches no reduction rule")


def reduce_pair(n: int, m: int) -> tuple[int, int] | None:
    """One reduction step, or None when the pair is a base pair.

    The emitted pair is returned raw and may need reordering by the
    caller.
    """
    n, m = check_int(n, 1, "n"), check_int(m, 1, "m")
    _check_reducible(n, m)
    found = _rule(n, m)
    return None if found is None else found[1]


def _reduced_sizes(n: int, m: int) -> tuple[int, int, int]:
    """The gcd g of the checked sizes, then n / g and m / g ascending."""
    n, m = check_sizes(n, m)
    g = math.gcd(n, m)
    return g, *sorted((n // g, m // g))


def _base_pair(a: int, b: int) -> tuple[int, int]:
    """Base pair of a coprime a <= b by whole rule runs, each of which must end positive and lower a + b."""
    while (found := _rule(a, b)) is not None:
        rule, _, (c, d) = found
        if c > d:
            c, d = d, c
        if c < 1 or c + d >= a + b:
            raise InconsistencyError(f"rule {rule} took ({a}, {b}) to ({c}, {d}), not a smaller positive pair")
        a, b = c, d
    return a, b


def reduction_base(n: int, m: int) -> tuple[int, int]:
    """The base pair that (n, m) reduces to, in at most log2(n + m) + 2 rule runs.

    Each run of rule 1 or 4 is applied at once with a quotient mod 4 or 3;
    the tests check it against a trace that applies one rule at a time.
    """
    return _base_pair(*_reduced_sizes(n, m)[1:])


@cache
def _base_counts() -> dict[tuple[int, int], int]:
    """Diagonal count of each base pair, from the direct counter."""
    return {pair: diag_count_naive(*pair) for pair in TERMINAL_PAIRS}


def diag_count_reduction(n: int, m: int) -> int:
    """Diagonal count via the reduction system and the base pairs' direct counts.

    At most log2(n + m) + 2 rule runs, as in `reduction_base`.
    """
    g, a, b = _reduced_sizes(n, m)
    base = _base_pair(a, b)
    return g * _base_counts()[base]


# ---------------------------------------------------------------------------
# Ternary tree of even-odd coprime pairs


def apply_tree_string(ts: str, pair: tuple[int, int] = (2, 1)) -> tuple[int, int]:
    """Evaluate a tree string, innermost (rightmost) character first."""
    m, n = pair
    for ch in reversed(ts):
        if ch == GAMMA:
            m, n = 2 * m - n, m
        elif ch == DELTA:
            m, n = 2 * m + n, m
        elif ch == LAMBDA:
            m, n = m + 2 * n, n
        else:
            raise ValueError(f"tree characters must be one of {TREE_CHARS}, got {ch!r}")
    return m, n


def _check_tree_pair(m: int, n: int) -> tuple[int, int]:
    """m and n as ints; ValueError unless m > n >= 1, coprime, m + n odd."""
    m, n = check_int(m, 1, "m"), check_int(n, 1, "n")
    if m <= n:
        raise ValueError(f"tree pairs need m > n >= 1, got ({m}, {n})")
    if math.gcd(m, n) != 1:
        raise ValueError(f"tree pairs must be coprime, got ({m}, {n})")
    if (m + n) % 2 == 0:
        raise ValueError(f"tree pairs need m + n odd, got ({m}, {n})")
    return m, n


def tree_string(m: int, n: int) -> str:
    """Address of an even-odd pair in the tree rooted at (2, 1).

    Characters are produced outermost first: the first character is the
    last map applied on the way from the root to (m, n).
    """
    m, n = _check_tree_pair(m, n)
    chars = []
    while (m, n) != (2, 1):
        if m < 2 * n:
            chars.append(GAMMA)
            m, n = n, 2 * n - m
        elif m < 3 * n:
            chars.append(DELTA)
            m, n = n, m - 2 * n
        else:
            chars.append(LAMBDA)
            m = m - 2 * n
    return "".join(chars)


def _reduce_leading(s: str) -> str:
    """Normal form of a tree string under the five head rewriting rules.

    Each rule rewrites the outermost maps and is valid for any inner
    value, so repeatedly rewriting the head of the string is sound:
    a leading delta acts like gamma; a leading lambda cancels with the
    next character; gamma-delta acts like lambda; gamma-lambda like
    gamma; and a leading gamma-gamma cancels with the next character.
    """
    while True:
        if s.startswith(DELTA):
            s = GAMMA + s[1:]
        elif s.startswith(LAMBDA) and len(s) >= 2:
            s = s[2:]
        elif s.startswith(GAMMA + DELTA):
            s = LAMBDA + s[2:]
        elif s.startswith(GAMMA + LAMBDA):
            s = GAMMA + s[2:]
        elif s.startswith(GAMMA + GAMMA) and len(s) >= 3:
            s = s[3:]
        else:
            return s


def _build_transitions() -> dict[tuple[str, str], str]:
    table = {}
    for state in CANONICAL_STRINGS:
        for ch in TREE_CHARS:
            nxt = _reduce_leading(state + ch)
            if nxt not in CANONICAL_STRINGS:
                raise InconsistencyError(
                    f"rewriting {state + ch!r} stalled at non-canonical {nxt!r}"
                )
            table[(state, ch)] = nxt
    return table


_TRANSITIONS = _build_transitions()


def run_powers(phi: Sequence[int]) -> tuple[int, int, tuple[tuple[int, ...], ...]]:
    """Powers of a map phi on the ids 0..len(phi) - 1, until one repeats.

    Returns (transient, period, powers): powers[j][f] is phi^j(f) for
    j < transient + period, and phi^(transient + period) is
    phi^transient, so phi^k for larger k is the power listed at
    transient + (k - transient) % period.
    """
    powers = [tuple(range(len(phi)))]
    while (power := tuple(phi[f] for f in powers[-1])) not in powers:
        powers.append(power)
    transient = powers.index(power)
    return transient, len(powers) - transient, tuple(powers)


@dataclass(frozen=True)
class TreeMapTable:
    """The tree automaton, as the state maps reachable by prepending tree characters.

    maps[f][i] is the state reached from CANONICAL_STRINGS[i] by reading
    the tree string of any pair with map id f; id 0 is the identity,
    the map of the root's empty string.  children[f] holds the ids of
    f's gamma-, delta- and lambda-children: prepending ch gives the map
    f o T_ch.  values[f] is the diagonal count of every pair with map f.
    runs[ch] is `run_powers` of the ch-child column: prepending a run
    ch^k to the string of id f gives the id phi^k(f) of that column.
    """

    maps: tuple[tuple[str, ...], ...]
    children: tuple[tuple[int, int, int], ...]
    values: tuple[int, ...]
    runs: dict[str, tuple[int, int, tuple[tuple[int, ...], ...]]]


def tree_map_table() -> TreeMapTable:
    """Closure of the identity under f -> f o T_ch, derived from `_TRANSITIONS`."""
    index = {state: i for i, state in enumerate(CANONICAL_STRINGS)}
    maps = [CANONICAL_STRINGS]  # id 0: the identity
    ids = {CANONICAL_STRINGS: 0}
    children = []
    for f in maps:  # grows while it is read: a breadth-first closure
        row = []
        for ch in TREE_CHARS:
            g = tuple(f[index[_TRANSITIONS[(state, ch)]]] for state in CANONICAL_STRINGS)
            if g not in ids:
                ids[g] = len(maps)
                maps.append(g)
            row.append(ids[g])
        children.append(tuple(row))
    # the value of f: the base count at the canonical pair of f's image of the root
    values = tuple(_base_counts()[apply_tree_string(f[0])[::-1]] for f in maps)
    runs = {ch: run_powers([row[i] for row in children]) for i, ch in enumerate(TREE_CHARS)}
    return TreeMapTable(tuple(maps), tuple(children), values, runs)


#: The tree automaton, built once at import: every count reads its ids.
TREE_MAPS = tree_map_table()


def canonicalize(ts: str) -> str:
    """Canonical form of a tree string: one of '', gamma, gamma^2, lambda.

    Folds the string outermost character first, keeping the canonical
    form of the processed prefix as the automaton state.
    """
    state = ""
    for ch in ts:
        if ch not in TREE_CHARS:
            raise ValueError(f"tree characters must be one of {TREE_CHARS}, got {ch!r}")
        state = _TRANSITIONS[(state, ch)]
    return state


def _tree_runs(m: int, n: int) -> Iterator[tuple[str, int]]:
    """The tree address of a reduced even-odd pair m > n as (character, run length).

    Runs come outermost first, so joining ch * k gives `tree_string`.
    A gamma-step keeps d = m - n and lowers both sides by d, so its run
    from (m, n) has (n - 1) // d steps; a lambda-step lowers m by 2n, so
    its run has (m - 3n) // (2n) + 1 steps.  Neither run can step past
    the root (2, 1), and a delta-step is Euclid-like, so there are
    O(log m) runs.  The pair is not checked: callers reduce it first.
    """
    while (m, n) != (2, 1):
        d = m - n
        if n > d:
            k = (n - 1) // d
            m, n = n - (k - 1) * d, n - k * d
            yield GAMMA, k
        elif m < 3 * n:
            m, n = n, m - 2 * n
            yield DELTA, 1
        else:
            k = (m - 3 * n) // (2 * n) + 1
            m -= 2 * k * n
            yield LAMBDA, k


def diag_count_tree(n: int, m: int) -> int:
    """Diagonal count via the canonicalised tree address.

    At most log2(n + m) + 1 runs of `_tree_runs`, each taken with one
    divmod, root-first from map id 0; each run moves the id through a
    precomputed power of its character's child map in `TREE_MAPS`.
    """
    n, m = check_sizes(n, m)
    g = math.gcd(n, m)
    a, b = n // g, m // g
    if a % 2 == 1 and b % 2 == 1:
        return 2 * g
    runs, f = TREE_MAPS.runs, 0
    for ch, k in reversed([*_tree_runs(max(a, b), min(a, b))]):
        transient, period, powers = runs[ch]
        f = powers[k if k < transient + period else transient + (k - transient) % period][f]
    return g * TREE_MAPS.values[f]

import copy
import math
import pickle
import random
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bitorus import links
from bitorus.diagonals import BoundaryProfile, decompose
from bitorus.errors import InconsistencyError
from bitorus.links import (
    Link,
    is_knot,
    link_cycles,
    link_permutation,
    link_reduce,
    loop_count,
    orientation_link,
    perm_cycles,
)
from bitorus.surface import GridParams
from bitorus.verify import CHECKS, run_check


def all_links_of_total(total):
    for a in range(total + 1):
        for b in range(total - a + 1):
            for c in range(total - a - b + 1):
                yield Link(a, b, c, total - a - b - c)


def test_permutation_examples():
    assert link_permutation(Link(1, 0, 0, 0)) == [0]
    assert link_permutation(Link(0, 0, 1, 1)) == [1, 0]
    assert link_permutation(Link(2, 1, 0, 1)) == [2, 3, 1, 0]
    assert loop_count(Link(2, 1, 0, 1)) == 1


def test_empty_link_rejected():
    with pytest.raises(ValueError):
        link_permutation(Link(0, 0, 0, 0))
    with pytest.raises(ValueError):
        Link(-1, 1, 0, 0)


@pytest.mark.parametrize(
    "query,fields",
    [(loop_count, (1.5, 1, 0, 0)), (is_knot, (0.5, 0, 0, 0)), (loop_count, (True, 0, 0, 0))],
)
def test_link_rejects_non_integer_fields(query, fields):
    # these raised InconsistencyError, returned False and returned 1
    with pytest.raises(ValueError, match="must be an integer"):
        query(Link(*fields))


def test_link_takes_any_index_type_as_an_int():
    link = Link(np.int64(2), 1, 0, np.uint8(1))
    assert link.as_tuple() == (2, 1, 0, 1) and {type(v) for v in link.as_tuple()} == {int}
    assert loop_count(link) == 1


def test_permutation_bijective_exhaustively():
    for total in range(1, 13):
        for link in all_links_of_total(total):
            assert sorted(link_permutation(link)) == list(range(total))


def test_loop_counts():
    assert loop_count(Link(1, 0, 0, 0)) == 1
    assert is_knot(Link(1, 0, 0, 0))
    assert loop_count(Link(3, 2, 0, 1)) == 1
    assert loop_count(Link(3, 3, 2, 2)) == 1


def test_reduce_requires_strict_precondition():
    link = Link(5, 6, 1, 1)
    assert link.t == 5
    with pytest.raises(ValueError):
        link_reduce(link)


def test_reduce_example():
    link = Link(7, 8, 1, 1)
    assert link.t == 5
    reduced = link_reduce(link)
    assert reduced.as_tuple() == (2, 3, 1, 1)
    assert loop_count(reduced) == loop_count(link)


def test_reduce_preserves_loop_count_randomized():
    assert run_check("link-reduce", 2).ok  # 2,000 seeded links


def test_orientation_link_matches_known_tuple():
    dec = decompose(GridParams(1, 3))
    link = orientation_link(dec, "UR")
    assert link.as_tuple() == (3, 2, 0, 1)
    assert {type(value) for value in link.as_tuple()} == {int}


@pytest.mark.parametrize("n,m", [(1, 3), (2, 3), (2, 2), (3, 5)])
def test_all_right_and_all_up_orientations(n, m):
    dec = decompose(GridParams(n, m))
    count = len(dec.profiles)
    right = orientation_link(dec, "R" * count)
    assert (right.a, right.b) == (0, 0)
    assert right.c + right.d == 2 * n
    up = orientation_link(dec, "U" * count)
    assert (up.c, up.d) == (0, 0)
    assert up.a + up.b == 2 * m


def test_orientation_link_validates_length_and_characters():
    dec = decompose(GridParams(1, 3))
    with pytest.raises(ValueError):
        orientation_link(dec, "U")
    with pytest.raises(ValueError):
        orientation_link(dec, "UX")


def test_t_accessor():
    assert Link(1, 2, 3, 4).t == -1 + 2 + 6 + 8


@pytest.mark.parametrize(
    "cls,fields,bad",
    [(GridParams, (3, 5), {"n": 0}), (BoundaryProfile, (1, 2, 3, 4), {"cnt_c": -1}), (Link, (1, 2, 3, 4), {"a": 1.5}),
     # a bool is refused although it is an int
     (GridParams, (3, 5), {"m": True}), (BoundaryProfile, (0, 1, 0, 0), {"cnt_b": False}),
     (Link, (1, 2, 3, 4), {"c": False})],
)
def test_checked_tuples_check_every_route_and_compare_as_tuples(cls, fields, bad):
    value = cls(*fields)
    assert cls(**dict(zip(cls._fields, fields))) == value  # keywords build the same value
    broken = [bad.get(name, v) for name, v in zip(cls._fields, fields)]
    with pytest.raises(ValueError):
        cls(*broken)
    with pytest.raises(ValueError):
        value._replace(**bad)
    with pytest.raises(ValueError):
        cls._make(broken)
    unchecked = tuple.__new__(cls, broken)  # no library route builds one
    for route in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        with pytest.raises(ValueError):
            route(unchecked)
        assert type(route(value)) is cls and route(value) == value
    first = cls._fields[0]
    converted = value._replace(**{first: np.int64(7)})
    assert type(getattr(converted, first)) is int and converted == (7, *fields[1:])
    with pytest.raises(AttributeError):
        setattr(value, first, 7)
    # values hash and compare as their field tuples: the run walk's Counter group
    # check and hamiltonian_witness's profiles.index rely on it
    assert value == fields and hash(value) == hash(fields)
    assert Counter([value, cls(*fields)]) == Counter([fields, fields])
    assert [converted, cls(*fields)].index(value) == 1


@pytest.mark.parametrize(
    "cls,fields,bad",
    [(GridParams, (3, 5), (0, -3)), (Link, (1, 2, 3, 4), (-1, 0, 0, 0)),
     (BoundaryProfile, (1, 2, 3, 4), (-1, 0, 0, 0)),
     # the wrong number of fields is a TypeError
     (GridParams, (3, 5), (3,)), (Link, (1, 2, 3, 4), (1, 2, 3)),
     (BoundaryProfile, (1, 2, 3, 4), (1, 2, 3, 4, 5))],
)
def test_checked_tuples_rebuild_through_their_checks_on_every_pickle_protocol(cls, fields, bad):
    # protocols 0 and 1 rebuilt these with tuple.__new__, so without the checks
    value, unchecked = cls(*fields), tuple.__new__(cls, bad)
    error = ValueError if len(bad) == len(fields) else TypeError
    routes = [copy.copy, copy.deepcopy]
    routes += [lambda v, protocol=protocol: pickle.loads(pickle.dumps(v, protocol)) for protocol in range(6)]
    for route in routes:
        assert type(route(value)) is cls and route(value) == value
        with pytest.raises(error):
            route(unchecked)


@pytest.mark.parametrize(
    "build,message",
    [(lambda: BoundaryProfile(0, False, 0, 0), "boundary count cnt_b must be an integer, got False"),
     (lambda: Link(1, 2, True, 4), "link parameter c must be an integer, got True"),
     (lambda: GridParams(3, True), "grid sizes must be integers, got (3, True)")],
)
def test_checked_tuples_refuse_a_bool_with_their_messages(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message


# --- Rauzy induction ------------------------------------------------------------

def exchange_points(top, bot, lengths, weights):
    """Reference: the exchange's successor and weight of every point."""
    start, image, pos = {}, {}, 0
    for label in top:
        start[label], pos = pos, pos + lengths[label]
    pos = 0
    for label in bot:
        image[label], pos = pos, pos + lengths[label]
    succ, weight = [0] * pos, [0] * pos
    for label in top:
        for j in range(lengths[label]):
            succ[start[label] + j] = image[label] + j
            weight[start[label] + j] = weights[label]
    return succ, weight


def exchange_cycles(top, bot, lengths, weights):
    """`links._rauzy` on the exchange `top` -> `bot` with its empty intervals dropped."""
    lam = list(lengths)
    return links._rauzy([x for x in top if lam[x]], [x for x in bot if lam[x]], lam, list(weights))


def test_exchange_cycles_matches_a_pointwise_trace():
    rng = random.Random(7)
    for _ in range(500):
        k = rng.randint(1, 7)
        lengths = [rng.randint(0, 12) for _ in range(k)]
        bot = list(range(k))
        rng.shuffle(bot)
        weights = [rng.randint(0, 3) for _ in range(k)]
        succ, weight = exchange_points(range(k), bot, lengths, weights)
        cycles, seen = [], [False] * len(succ)
        for x in range(len(succ)):
            if not seen[x]:
                total = 0
                while not seen[x]:
                    seen[x] = True
                    total += weight[x]
                    x = succ[x]
                cycles.append(total)
        blocks = exchange_cycles(range(k), bot, lengths, weights)
        assert sorted(w for count, w in blocks for _ in range(count)) == sorted(cycles)


@st.composite
def _exchanges(draw):
    k = draw(st.integers(1, 7))
    sides = st.integers(0, 12) | st.integers(0, 10**9)
    return (
        draw(st.permutations(range(k))),
        draw(st.permutations(range(k))),
        draw(st.lists(sides, min_size=k, max_size=k)),
        draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k)),
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_exchanges())
def test_an_exchange_and_its_inverse_have_the_same_cycles(exchange):
    # _rauzy steps the inverse exchange whenever the image's last interval is the longer
    top, bot, lengths, weights = exchange
    blocks = exchange_cycles(top, bot, lengths, weights)
    assert Counter(exchange_cycles(bot, top, lengths, weights)) == Counter(blocks)
    assert bool(blocks) == any(lengths)


_link_side = st.just(0) | st.integers(0, 12) | st.integers(0, 10**12)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_link_side, _link_side, _link_side, _link_side, st.tuples(*[st.integers(-10**6, 10**6)] * 4))
def test_link_cycles_is_the_checked_exchange_block_for_block(a, b, c, d, weights):
    # link_cycles drops a Link's empty sides itself; its blocks, in their order,
    # fix induction_groups' group order and so the golden witnesses
    want = exchange_cycles((0, 1, 2, 3), (3, 2, 1, 0), (a, b, c, d), weights)
    assert link_cycles(Link(a, b, c, d), weights) == want


class StepCountingList(list):
    """A label order that counts `_rauzy`'s loop tests, `while top:`, in a shared counter.

    The two orders swap roles on inverse steps, so both share one counter;
    no other operation of the loop calls `len`.
    """

    def __init__(self, items, counter):
        super().__init__(items)
        self.counter = counter

    def __len__(self):
        self.counter[0] += 1
        return super().__len__()


def rauzy_steps(link):
    """`_rauzy`'s steps on the link, as `link_cycles` runs it, and the loop count it finds."""
    counter, lam = [0], list(link)
    top = [x for x in range(4) if lam[x]]
    top, bot = StepCountingList(top, counter), StepCountingList(top[::-1], counter)
    blocks = links._rauzy(top, bot, lam, [0] * 4)
    return counter[0] - 1, sum(count for count, _ in blocks)


def rauzy_step_bound(link):
    return 3 * math.log2(link.total) + 2


def test_rauzy_steps_on_fibonacci_links_stay_under_three_per_bit():
    # (F_k, F_k-1, F_k-2, F_k-3) takes 2k - 1 steps, about 2.88 per bit of the total:
    # the slowest family known, so the bound is nearly tight there
    fib = [0, 1]
    while len(fib) < 150:
        fib.append(fib[-1] + fib[-2])
    for k in range(3, 150):
        link = Link(fib[k], fib[k - 1], fib[k - 2], fib[k - 3])
        steps, loops = rauzy_steps(link)
        assert loops == loop_count(link)
        assert steps <= rauzy_step_bound(link), k
        if k >= 60:
            assert steps / math.log2(link.total) > 2.8, k


def test_rauzy_steps_on_every_small_link_stay_under_the_bound():
    for sides in product(range(13), repeat=4):
        if any(sides):
            link = Link(*sides)
            assert rauzy_steps(link)[0] <= rauzy_step_bound(link), sides


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.tuples(*[st.integers(0, 10**17)] * 4))
def test_rauzy_steps_on_links_up_to_ten_to_the_seventeen_stay_under_the_bound(sides):
    assume(any(sides))
    link = Link(*sides)
    steps, loops = rauzy_steps(link)
    assert loops == loop_count(link)
    assert steps <= rauzy_step_bound(link)


def test_rauzy_step_that_does_not_shorten_is_an_inconsistency():
    # an empty interval, which both callers drop, would emit an empty block
    with pytest.raises(InconsistencyError, match="did not shorten"):
        links._rauzy([0], [0], [0], [0])


def test_loop_count_rejects_the_empty_link():
    with pytest.raises(ValueError):
        loop_count(Link(0, 0, 0, 0))


def test_loop_count_answers_large_links():
    # the permutation trace takes about 0.1 s here
    assert loop_count(Link(100000, 100001, 50000, 50000)) == perm_cycles(
        link_permutation(Link(100000, 100001, 50000, 50000))
    )
    assert loop_count(Link(10**15, 10**15 + 1, 3, 7)) >= 1


_small_side = st.integers(0, 300)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_small_side, _small_side, _small_side, _small_side)
def test_induction_loop_count_equals_the_permutation_trace(a, b, c, d):
    assume(a + b + c + d > 0)
    assert CHECKS["induction-groups"].holds(a, b, c, d)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 10**12))
def test_all_right_and_all_up_links_have_a_loop_per_side(side):
    # the never-knot candidates that the link tier skips for sides above 1
    assert loop_count(Link(0, 0, side, side)) == side
    assert loop_count(Link(side, side, 0, 0)) == side


_big = st.integers(0, 2 * 10**14)  # sides up to about 10^15


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_big, _big, _big, _big)
def test_link_reduce_preserves_loop_count_at_scale(c, d, extra_t, extra_a):
    # every applicable link: t >= c + d, a > t and b = t + a - 2c - 2d > t
    t = c + d + extra_t
    a = max(t, 2 * (c + d)) + 1 + extra_a
    link = Link(a, t + a - 2 * (c + d), c, d)
    assert link.t == t
    assert CHECKS["link-reduce"].holds(link)

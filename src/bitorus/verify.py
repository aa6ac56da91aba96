"""One registry of cross-checks wiring the independent computation routes together.

Each entry of `CHECKS` states one identity once: a predicate over one
case, the cases it runs on at a limit, and a description of that
coverage.  `bitorus verify` runs every entry in registration order, and
the tests call the same entries, or their predicates on cases of their
own.  A failure is an internal inconsistency, not bad input.
"""

from __future__ import annotations

import math
import random
import reprlib
import time
from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from itertools import product

from .census import diag_distribution, exceptional_pairs
from .counting import (
    DELTA,
    GAMMA,
    LAMBDA,
    apply_tree_string,
    compose,
    diag_count_reduction,
    diag_count_string,
    diag_count_tree,
    string_intervals,
    string_powers,
)
from .counting import _branch_rules, _rule, euclid_state
from .diagonals import DiagonalDecomposition, decompose, diag_count_naive, induction_groups
from .errors import InconsistencyError, check_int
from .hamiltonicity import (
    ham_torus1,
    is_hamiltonian_brute,
    is_hamiltonian_fast,
    n2_orientation,
    orientation_k,
    segment_successor,
    segment_successor_from_grid,
    square_construction,
    torus1_components,
    trace_components,
    validate_witness,
)
from .links import Link, is_knot, link_permutation, link_reduce, loop_count, orientation_link
from .links import perm_cycles
from .surface import GridParams


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


@dataclass(frozen=True)
class Check:
    """One identity: `holds(*case)` for each case of `cases(k)`.

    `k` is the limit, lowered to `cap` for checks whose cost grows fast
    with it.  `coverage(k, cases)` describes what the cases cover.
    """

    holds: Callable[..., bool]
    cases: Callable[[int], Iterable[tuple]]
    coverage: Callable[[int, list], str]
    cap: float = math.inf


CHECKS: dict[str, Check] = {}


def _check(name: str, cases, coverage, cap: float = math.inf):
    """Decorator registering its predicate as the entry `name`."""
    def register(holds):
        CHECKS[name] = Check(holds, cases, coverage, cap)
        return holds
    return register


def _grids(limit: int, low: int = 1):
    return product(range(low, limit + 1), repeat=2)


def _coprime_pairs(limit: int, strict: bool = False):
    return ((n, m) for n, m in _grids(limit) if math.gcd(n, m) == 1 and (n < m or not strict))


def _orientations(limit: int):
    """(n, m, omega) for coprime n, m <= limit and every orientation string."""
    for n, m in _coprime_pairs(limit):
        for omega in product("UR", repeat=len(decompose(GridParams(n, m)))):
            yield n, m, "".join(omega)


@_check("tier-equivalence", _grids, lambda k, _: f"n,m <= {k}", cap=10)
def _tiers_agree(n: int, m: int) -> bool:
    """Brute-force tier and link tier agree on every grid."""
    return is_hamiltonian_brute(n, m)[0] == is_hamiltonian_fast(n, m)


@_check("counting-agreement", _coprime_pairs, lambda k, _: f"coprime pairs <= {k}")
def _counters_agree(n: int, m: int) -> bool:
    """All four diagonal counters agree on coprime pairs."""
    naive = diag_count_naive(n, m)
    return naive == diag_count_string(n, m) == diag_count_reduction(n, m) == diag_count_tree(n, m)


@_check("string-construction", lambda k: ((n, m) for n, m in _coprime_pairs(k) if min(n, m) > 1),
        lambda k, _: f"coprime 1 < n,m <= {k}")
def _strings_conjugate(n: int, m: int) -> bool:
    """The power string is the interval string rotated by its final down-crossing."""
    s = string_intervals(n, m)
    return s.endswith("d") and string_powers(n, m) == "d" + s[:-1]


@_check("cycle-link-equivalence", _orientations,
        lambda k, _: f"coprime n,m <= {k}, all orientations", cap=8)
def _components_are_loops(n: int, m: int, omega: str) -> bool:
    """Component count of an orientation equals its link's loop count."""
    dec = decompose(GridParams(n, m))
    return len(trace_components(dec, omega)) == loop_count(orientation_link(dec, omega))


@_check("link-balance", _orientations,
        lambda k, _: f"coprime n,m <= {k}, all orientations", cap=15)
def _link_balanced(n: int, m: int, omega: str) -> bool:
    """-a+b+2c+2d = (4-k)n for every orientation, k integral."""
    dec = decompose(GridParams(n, m))
    k = orientation_k(dec, omega)
    return orientation_link(dec, omega).t == (4 - k) * n and 0 <= k <= 4


@_check("periodicity",
        lambda k: [(n, 1) for n in range(1, min(k, 3) + 1)] + [p for p in _coprime_pairs(k) if p[1] > 1],
        lambda k, _: f"coprime n <= {k}, 2 <= m <= {k}, and m = 1 for n <= 3")
def _periodic(n: int, m: int) -> bool:
    """Hamiltonicity is unchanged by adding 12n columns (coprime sizes).

    The paper's grids have both sides at least 2; width 1 is checked
    only for n <= 3, because (4, 1), (8, 1) and (12, 1) break the period.
    For gcd g > 1 a period also exists, but it is 4*(4g)!*n: already at
    g = 2 that is far beyond any feasible computation.
    """
    return is_hamiltonian_fast(n, m) == is_hamiltonian_fast(n, m + 12 * n)


@_check("canon-rules", lambda k: ((n, m) for n, m in _coprime_pairs(k, strict=True) if (m + n) % 2),
        lambda k, _: f"even-odd pairs m <= {k}")
def _canon_rules_hold(n: int, m: int) -> bool:
    """The five tree-string head rules preserve the direct count at the even-odd pair (m, n).

    Both sides of a rule, the empty string for the two cancelling ones,
    applied to (m, n) count alike.
    """

    def count_at(ts):
        a, b = apply_tree_string(ts, (m, n))
        return diag_count_naive(min(a, b), max(a, b))

    rules = [(DELTA, GAMMA), (GAMMA + DELTA, LAMBDA), (GAMMA + LAMBDA, GAMMA)]
    rules += [(head + kappa, "") for head in (LAMBDA, GAMMA + GAMMA) for kappa in (GAMMA, DELTA, LAMBDA)]
    return all(count_at(lhs) == count_at(rhs) for lhs, rhs in rules)


# two horizons, one of each parity, for the odd-odd count's K = (h + 1) // 2
@_check("census-tree", lambda k: [(10 * k,), (10 * k + 1,)],
        lambda k, _: f"coprime n < m <= h, h = {10 * k} and {10 * k + 1}")
def _census_tallies_agree(h: int) -> bool:
    """The census tallies like per-pair tree walks."""
    tally = Counter(diag_count_tree(n, m) for n, m in _coprime_pairs(h, strict=True))
    report = diag_distribution(h)
    got = (report.pairs, report.count1, report.count2, report.count3)
    return got == (sum(tally.values()), tally[1], tally[2], tally[3])


# The links are capped at sides <= 10, 14,640 of them, to keep the default suite fast.
@_check("induction-groups",
        lambda k: [*_grids(k), *(s for s in product(range(min(k, 10) + 1), repeat=4) if any(s))],
        lambda k, _: f"n,m <= {k}, links with sides <= {min(k, 10)}")
def _induction_matches(*case) -> bool:
    """Rauzy induction agrees with the traces it replaces.

    A case (n, m) is a grid: the induction's groups must obey the group
    law, sizes (g), (g, g) or (g, 2g), the run walk's profiles must
    match them as a multiset, as the decomposition checks on first read,
    and the walk's own checks (line coverage, corner blocks) must pass.
    A case (a, b, c, d) is a link: its loop count equals the cycle trace
    of the link's permutation.
    """
    if len(case) == 2:
        grid = GridParams(*case)
        DiagonalDecomposition(grid, induction_groups(grid)).profiles  # raises on a mismatch
        return True
    link = Link(*case)
    return loop_count(link) == perm_cycles(link_permutation(link))


@_check("table-route",
        lambda k: [(6 * k, [(r.n, r.m, r.diag) for r in exceptional_pairs(6 * k)])],
        lambda k, cases: f"coprime n < m <= {6 * k}, {len(cases[0][1])} rows")
def _table_routes_agree(h: int, rows: list) -> bool:
    """The table's rows, from its plain tree walk, are what the per-pair loop lists.

    The loop walks no tree: a gcd filter over the coprime pairs, then
    `diag_count_tree` and `is_hamiltonian_fast` per pair.  It runs up to
    m <= 6 * limit, the paper's table at the default limit.
    """
    counted = [(n, m, diag_count_tree(n, m)) for n, m in _coprime_pairs(h, strict=True)]
    return rows == [(n, m, diag) for n, m, diag in counted if diag >= 2 and not is_hamiltonian_fast(n, m)]


@_check("one-diagonal", lambda k: ((n, m) for n, m in _grids(2 * k) if diag_count_tree(n, m) == 1),
        lambda k, _: f"n,m <= {2 * k} with one diagonal, and their doubles")
def _one_diagonal_consequences(n: int, m: int) -> bool:
    """A one-diagonal grid is not Hamiltonian, for sides above 1, but doubling
    both sides (the half-grid case) gives a Hamiltonian grid, whose two
    diagonals induce the knot (m, m, n, n)."""
    base_ok = n == 1 or m == 1 or not is_hamiltonian_fast(n, m)
    return base_ok and is_hamiltonian_fast(2 * n, 2 * m) and is_knot(Link(m, m, n, n))


@_check("height-2", lambda k: ((m,) for m in range(1, 4 * k + 1)),
        lambda k, _: f"(2, m) grids, m <= {4 * k}")
def _height_two_rule(m: int) -> bool:
    """(2, m) is Hamiltonian, by the residue rules' orientation, iff m mod 8
    is not 3 or 5; otherwise the grid has a single diagonal."""
    if m % 8 in (3, 5):
        return not is_hamiltonian_fast(2, m) and diag_count_tree(2, m) == 1
    cycles = trace_components(decompose(GridParams(2, m)), n2_orientation(m))
    return is_hamiltonian_fast(2, m) and len(cycles) == 1


@_check("square", lambda k: ((n,) for n in range(1, 2 * k + 1)),
        lambda k, _: f"(n, n) grids, n <= {2 * k}")
def _square_validates(n: int) -> bool:
    """The closed-form cycle of the (n, n) grid is a Hamiltonian cycle."""
    validate_witness(GridParams(n, n), square_construction(n))  # raises on a fault
    return True


@_check("segment-map", lambda k: ((m,) for m in range(2, 3 * k + 1)),
        lambda k, _: f"widths 2 <= m <= {3 * k}, every segment")
def _segment_map_holds(m: int) -> bool:
    """The height-2 segment map matches the grid on every segment, and its
    orbit through segment 0 covers all 2m + 3 segments exactly when the
    (2, m) grid has a single diagonal."""
    segments = range(-3, 2 * m)
    succ = [segment_successor(m, d) for d in segments]
    if succ != [segment_successor_from_grid(m, d) for d in segments] or sorted(succ) != [*segments]:
        return False
    return (perm_cycles([d + 3 for d in succ]) == 1) == (diag_count_naive(2, m) == 1)


# The direct count costs O(n + m) per pair, so this check stops at m <= 100.
@_check("reduction-rules", lambda k: _coprime_pairs(10 * k, strict=True),
        lambda k, _: f"coprime n < m <= {10 * k}", cap=10)
def _reduction_rule_holds(n: int, m: int) -> bool:
    """The twin of the tree rules, for the ten pair reductions.

    A coprime pair n < m that is not a base pair matches exactly one guard
    of `_branch_rules`, the rule and pair `_rule` takes; that pair and the
    run's end keep the direct count and the parity of n + m; and for n > 1
    the pair has two diagonals exactly when n*m is odd.
    """
    count = diag_count_naive(n, m)
    if n > 1 and (count == 2) != (n * m % 2 == 1):
        return False
    found = _rule(n, m)
    if found is None:
        return True
    if _branch_rules(euclid_state(n, m)) != [found[:2]]:
        return False
    return all((a + b - n - m) % 2 == 0 and diag_count_naive(a, b) == count for a, b in {*found[1:]})


def _reducible_links(limit: int):
    """1000 * limit seeded links with a > t, b > t, t >= c + d and at most 200 strands."""
    rng = random.Random(0x5EED)
    links = []
    while len(links) < 1000 * limit:
        link = Link(rng.randint(1, 120), rng.randint(1, 120), rng.randint(0, 20), rng.randint(0, 20))
        if min(link.a, link.b) > link.t >= link.c + link.d and link.total <= 200:
            links.append((link,))
    return links


@_check("link-reduce", _reducible_links, lambda k, _: f"{1000 * k} seeded links")
def _reduce_keeps_loops(link: Link) -> bool:
    """Shrinking a and b by t keeps the loop count."""
    return loop_count(link_reduce(link)) == loop_count(link)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _permutation_pairs(limit: int):
    """100 * limit seeded (phi, pi, n, m): permutations of at most 8 points, n, m <= 30."""
    rng = random.Random(0xF00D)
    for _ in range(100 * limit):
        size = rng.randint(1, 8)
        phi, pi = list(range(size)), list(range(size))
        rng.shuffle(phi)
        rng.shuffle(pi)
        yield tuple(phi), tuple(pi), rng.randint(1, 30), rng.randint(1, 30)


@_check("floor-swap", _permutation_pairs, lambda k, _: f"{100 * k} seeded permutation pairs")
def _interleavings_agree(phi: tuple, pi: tuple, n: int, m: int) -> bool:
    """The two interleavings of phi and pi powers agree.

    Left side: for i = 1..m apply phi^(ceil(in/m) - ceil((i-1)n/m))
    then pi.  Right side: for j = 1..n apply phi then
    pi^(floor(jm/n) - floor((j-1)m/n)).  Factors act first to last.
    """
    lhs = rhs = tuple(range(len(phi)))
    for i in range(1, m + 1):
        for _ in range(_ceil_div(i * n, m) - _ceil_div((i - 1) * n, m)):
            lhs = compose(phi, lhs)
        lhs = compose(pi, lhs)
    for j in range(1, n + 1):
        rhs = compose(phi, rhs)
        for _ in range((j * m) // n - ((j - 1) * m) // n):
            rhs = compose(pi, rhs)
    return lhs == rhs


@_check("torus1", lambda k: _grids(k, low=2),
        lambda k, _: f"2 <= n,m <= {k}, every u")
def _torus_criterion_by_return_law(n: int, m: int) -> bool:
    """`ham_torus1` agrees with the first-return law: u of the g diagonals up,
    for some u = 0..g, gives one cycle exactly when the criterion holds
    (sizes from 2: a length-1 cycle factor degenerates into self-loops)."""
    g = math.gcd(n, m)
    one_cycle = any(torus1_components(n, m, "U" * u + "R" * (g - u)) == 1 for u in range(g + 1))
    return one_cycle == ham_torus1(n, m)


def _case_holds(check: Check, case: tuple) -> bool:
    try:
        return check.holds(*case)
    except InconsistencyError:
        return False


def run_check(name: str, limit: int = 10) -> CheckResult:
    """Run one entry; a case fails if its predicate is false or raises InconsistencyError."""
    check = CHECKS[name]
    k = min(check_int(limit, 2, "limit"), check.cap)
    started = time.perf_counter()
    cases = list(check.cases(k))
    bad = [case for case in cases if not _case_holds(check, case)]
    detail = check.coverage(k, cases) + (f", mismatches {reprlib.repr(bad)}" if bad else "")
    return CheckResult(name, not bad, detail, time.perf_counter() - started)


def run_verify(limit: int = 10) -> list[CheckResult]:
    return [run_check(name, limit) for name in CHECKS]

"""Cross-check suites wiring the independent computation routes together.

Each check compares two routes that must agree; a failure is an
internal inconsistency, not bad input.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import product

from .census import diag_distribution, exceptional_pairs
from .counting import (
    DELTA,
    GAMMA,
    LAMBDA,
    apply_tree_string,
    diag_count_reduction,
    diag_count_string,
    diag_count_tree,
    string_intervals,
    string_powers,
)
from .diagonals import DiagonalDecomposition, diag_count_naive, induction_groups
from .errors import InconsistencyError, check_int
from .hamiltonicity import (
    _dec,
    is_hamiltonian_brute,
    is_hamiltonian_fast,
    orientation_k,
    periodicity_check,
    trace_components,
)
from .links import Link, link_permutation, loop_count, orientation_link, perm_cycles
from .surface import GridParams


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def _coprime_pairs(limit: int, strict: bool = False):
    for n in range(1, limit + 1):
        start = n + 1 if strict else 1
        for m in range(start, limit + 1):
            if math.gcd(n, m) == 1:
                yield n, m


def check_tier_equivalence(limit: int) -> CheckResult:
    """Brute-force tier and link tier agree on every grid."""
    limit = min(limit, 10)
    bad = []
    for n in range(1, limit + 1):
        for m in range(n, limit + 1):
            brute, _ = is_hamiltonian_brute(n, m)
            if brute != is_hamiltonian_fast(n, m):
                bad.append((n, m))
    return CheckResult(
        "tier-equivalence",
        not bad,
        f"n,m <= {limit}" + (f", mismatches {bad}" if bad else ""),
    )


def check_counting_agreement(limit: int) -> CheckResult:
    """All four diagonal counters agree on coprime pairs."""
    bad = []
    for n, m in _coprime_pairs(limit):
        ref = diag_count_naive(n, m)
        if not (
            ref == diag_count_string(n, m) == diag_count_reduction(n, m) == diag_count_tree(n, m)
        ):
            bad.append((n, m))
    return CheckResult(
        "counting-agreement",
        not bad,
        f"coprime pairs <= {limit}" + (f", mismatches {bad}" if bad else ""),
    )


def check_string_construction(limit: int) -> CheckResult:
    """The two crossing-string constructions are conjugate as written."""
    bad = []
    for n, m in _coprime_pairs(limit):
        if n <= 1 or m <= 1:
            continue
        s = string_intervals(n, m)
        if string_powers(n, m) != "d" + s[:-1]:
            bad.append((n, m))
    return CheckResult(
        "string-construction",
        not bad,
        f"coprime 1 < n,m <= {limit}" + (f", mismatches {bad}" if bad else ""),
    )


def check_cycle_link_equivalence(limit: int) -> CheckResult:
    """Component count of each orientation equals its link's loop count."""
    limit = min(limit, 8)
    bad = []
    for n, m in _coprime_pairs(limit):
        dec = _dec(n, m)
        for omega in product("UR", repeat=len(dec.diagonals)):
            omega = "".join(omega)
            if len(trace_components(dec.grid, omega)) != loop_count(
                orientation_link(dec, omega)
            ):
                bad.append((n, m, omega))
    return CheckResult(
        "cycle-link-equivalence",
        not bad,
        f"coprime n,m <= {limit}, all orientations" + (f", mismatches {bad[:3]}" if bad else ""),
    )


def check_link_balance(limit: int) -> CheckResult:
    """-a+b+2c+2d = (4-k)n for every orientation, k integral."""
    bad = []
    for n, m in _coprime_pairs(limit):
        dec = _dec(n, m)
        for omega in product("UR", repeat=len(dec.diagonals)):
            omega = "".join(omega)
            link = orientation_link(dec, omega)
            k = orientation_k(dec, omega)
            if link.t != (4 - k) * n or not 0 <= k <= 4:
                bad.append((n, m, omega))
    return CheckResult(
        "link-balance",
        not bad,
        f"coprime n,m <= {limit}, all orientations" + (f", mismatches {bad[:3]}" if bad else ""),
    )


def check_periodicity(limit: int) -> CheckResult:
    """Hamiltonicity is unchanged by adding 12n columns.

    The paper's grids have both sides at least 2; width 1 is checked
    only for n <= 3, because (4, 1), (8, 1) and (12, 1) break the period.
    """
    pairs = [(n, 1) for n in range(1, min(limit, 3) + 1)]
    pairs += [(n, m) for n, m in _coprime_pairs(limit) if m >= 2]
    bad = [(n, m) for n, m in pairs if not periodicity_check(n, m)]
    return CheckResult(
        "periodicity",
        not bad,
        f"coprime n <= {limit}, 2 <= m <= {limit}, and m = 1 for n <= 3"
        + (f", mismatches {bad}" if bad else ""),
    )


def check_induction_groups(limit: int) -> CheckResult:
    """Rauzy induction agrees with the traces it replaces.

    Per grid, the run walk's diagonal profiles must match the
    induction's (size, profile) groups as a multiset, as the
    decomposition checks on first read, and the walk's own checks (the
    4g bound, line coverage, corner blocks) must pass; per link, its
    loop count equals the cycle trace of the link's permutation.  Links
    are capped at sides <= 10, 14,640 of them, to keep the default suite
    fast.
    """
    bad = []
    for n in range(1, limit + 1):
        for m in range(1, limit + 1):
            grid = GridParams(n, m)
            try:
                DiagonalDecomposition(grid, induction_groups(grid)).diagonals
            except InconsistencyError:
                bad.append((n, m))
    sides = min(limit, 10)
    for a, b, c, d in product(range(sides + 1), repeat=4):
        link = Link(a, b, c, d)
        if link.total and loop_count(link) != perm_cycles(link_permutation(link)):
            bad.append(link.as_tuple())
    return CheckResult(
        "induction-groups",
        not bad,
        f"n,m <= {limit}, links with sides <= {sides}"
        + (f", mismatches {bad[:3]}" if bad else ""),
    )


def check_canon_rules(limit: int) -> CheckResult:
    """The five tree-string head rules preserve the direct count."""

    def count_at(pair):
        a, b = pair
        return diag_count_naive(min(a, b), max(a, b))

    bad = []
    for n, m in _coprime_pairs(limit, strict=True):
        if (m + n) % 2 == 0:
            continue
        pair = (m, n)
        base = count_at(pair)
        rules = [
            (1, apply_tree_string(DELTA, pair), apply_tree_string(GAMMA, pair)),
            (3, apply_tree_string(GAMMA + DELTA, pair), apply_tree_string(LAMBDA, pair)),
            (4, apply_tree_string(GAMMA + LAMBDA, pair), apply_tree_string(GAMMA, pair)),
        ]
        for kappa in (GAMMA, DELTA, LAMBDA):
            rules.append((2, apply_tree_string(LAMBDA + kappa, pair), pair))
            rules.append((5, apply_tree_string(GAMMA + GAMMA + kappa, pair), pair))
        for rule_no, lhs, rhs in rules:
            if count_at(lhs) != (base if rhs == pair else count_at(rhs)):
                bad.append((rule_no, n, m))
    return CheckResult(
        "canon-rules",
        not bad,
        f"even-odd pairs m <= {limit}" + (f", mismatches {bad[:3]}" if bad else ""),
    )


def check_census_tree(limit: int) -> CheckResult:
    """The top-down census walk tallies like per-pair tree walks."""
    h = 10 * limit
    tally = Counter(diag_count_tree(n, m) for n, m in _coprime_pairs(h, strict=True))
    report = diag_distribution(h)
    got = (report.pairs, report.count1, report.count2, report.count3)
    want = (sum(tally.values()), tally[1], tally[2], tally[3])
    return CheckResult(
        "census-tree",
        got == want,
        f"coprime n < m <= {h}" + ("" if got == want else f", walk {got} != per-pair {want}"),
    )


def check_table_route(limit: int) -> CheckResult:
    """The tree-walk table lists what the per-pair loop over coprime pairs lists.

    The loop is the table's former route: a gcd filter, then
    `diag_count_tree` and `is_hamiltonian_fast` per pair.  It runs up to
    m <= 6 * limit, the paper's table at the default limit.
    """
    h = 6 * limit
    want = []
    for n, m in _coprime_pairs(h, strict=True):
        diag = diag_count_tree(n, m)
        if diag >= 2 and not is_hamiltonian_fast(n, m):
            want.append((n, m, diag))
    got = [(r.n, r.m, r.diag) for r in exceptional_pairs(h)]
    odd = sorted(set(got) ^ set(want))
    return CheckResult(
        "table-route",
        got == want,
        f"coprime n < m <= {h}, {len(want)} rows"
        + ("" if got == want else f", rows of one route only {odd[:3]}"),
    )


def run_verify(limit: int = 10) -> list[CheckResult]:
    limit = check_int(limit, 2, "limit")
    return [
        check_tier_equivalence(limit),
        check_counting_agreement(limit),
        check_string_construction(limit),
        check_cycle_link_equivalence(limit),
        check_link_balance(min(limit, 15)),
        check_periodicity(limit),
        check_canon_rules(limit),
        check_census_tree(limit),
        check_induction_groups(limit),
        check_table_route(limit),
    ]

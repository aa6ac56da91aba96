"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (visible under pytest -s or -v
via live logging of stdout on failure) with its runtime.
"""

import dataclasses
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product

import bitorus.verify as verify
from bitorus.census import diag_distribution, exceptional_pairs
from bitorus.cli import cli_main
from bitorus.counting import (
    TERMINAL_PAIRS,
    _branch_rules,
    diag_count_tree,
    euclid_state,
    floor_swap_identity_check,
)
from bitorus.diagonals import diag_count_naive
from bitorus.hamiltonicity import (
    _dec,
    is_hamiltonian_fast,
    n2_orientation,
    orientation_k,
    segment_successor,
    segment_successor_from_grid,
    square_construction,
    trace_components,
    validate_witness,
)
from bitorus.links import Link, is_knot, link_permutation, link_reduce, loop_count, orientation_link
from bitorus.surface import GridParams
from bitorus.verify import (
    check_canon_rules,
    check_census_tree,
    check_counting_agreement,
    check_cycle_link_equivalence,
    check_induction_groups,
    check_link_balance,
    check_periodicity,
    check_string_construction,
    check_table_route,
    check_tier_equivalence,
)

EXPECTED_TABLE_60 = [
    (5, 19), (5, 41), (7, 27), (7, 29), (7, 55), (7, 57), (11, 53),
    (13, 29), (13, 31), (13, 43), (13, 47), (17, 31), (17, 37), (17, 39),
    (17, 55), (19, 47), (19, 53), (20, 29), (25, 43), (27, 43), (27, 49),
    (27, 59), (31, 37), (32, 59), (33, 43), (33, 53), (35, 59), (36, 53),
    (36, 59), (41, 56), (53, 56),
]


def _report(number, label, started, ok):
    status = "PASS" if ok else "FAIL"
    print(f"{status} acceptance {number:02d} {label} ({time.time() - started:.1f}s)")
    assert ok, f"acceptance {number:02d} {label}"


def _coprime(limit, strict=False):
    for n in range(1, limit + 1):
        lo = n + 1 if strict else 1
        for m in range(lo, limit + 1):
            if math.gcd(n, m) == 1:
                yield n, m


def test_01_exceptional_table_reproduction(capsys):
    started = time.time()
    assert cli_main(["table", "--max", "60", "--format", "json"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    got = [(row["n"], row["m"]) for row in rows]
    ok = got == EXPECTED_TABLE_60 and all(not row["hamiltonian"] for row in rows)
    with capsys.disabled():
        _report(1, "table --max 60 lists exactly the 31 known pairs", started, ok)


def test_02_height_two_classification():
    started = time.time()
    ok = True
    for m in range(1, 41):
        expected = m % 8 not in (3, 5)
        ok = ok and is_hamiltonian_fast(2, m) == expected
        if expected:
            omega = n2_orientation(m)
            ok = ok and len(trace_components(GridParams(2, m), omega)) == 1
        else:
            ok = ok and diag_count_tree(2, m) == 1
    _report(2, "height-2 grids: Hamiltonian iff width mod 8 not in {3,5}", started, ok)


def test_03_square_constructions():
    started = time.time()
    ok = True
    for n in range(1, 21):
        witness = square_construction(n)
        validate_witness(GridParams(n, n), witness)
        ok = ok and len(witness.cycle) == 4 * n * n
    _report(3, "square-grid construction validates for n <= 20", started, ok)


def test_04_tier_and_counter_equivalence():
    started = time.time()
    ok = check_tier_equivalence(10).ok and check_counting_agreement(60).ok
    _report(4, "brute = link tier (<=10); four counters agree (coprime <=60)", started, ok)


def test_05_component_count_equals_loop_count():
    started = time.time()
    ok = check_cycle_link_equivalence(8).ok
    _report(5, "oriented components equal link loops (coprime <=8, all strings)", started, ok)


def test_06_link_balance_identity():
    started = time.time()
    ok = check_link_balance(15).ok
    _report(6, "-a+b+2c+2d = (4-k)n with k integral (coprime <=15)", started, ok)


def test_07_periodicity():
    started = time.time()
    ok = check_periodicity(10).ok
    for n in range(1, 4):
        for m in range(1, 8):
            if math.gcd(n, m) != 1:
                continue
            base = _dec(n, m)
            shifted = _dec(n, m + 12 * n)
            ok = ok and len(base.diagonals) == len(shifted.diagonals)
            expected = Counter()
            for omega in product("UR", repeat=len(base.diagonals)):
                omega = "".join(omega)
                link = orientation_link(base, omega)
                k = orientation_k(base, omega)
                expected[(link.a + 3 * k * n, link.b + 3 * k * n, link.c, link.d)] += 1
            actual = Counter()
            for omega in product("UR", repeat=len(shifted.diagonals)):
                actual[orientation_link(shifted, "".join(omega)).as_tuple()] += 1
            ok = ok and expected == actual
    _report(7, "Hamiltonicity periodic in width; link multisets shift by 3kn", started, ok)


def test_08_segment_map_validation():
    started = time.time()
    ok = True
    for m in (11, 13, 19, 21):
        for d in range(-3, 2 * m):
            ok = ok and segment_successor(m, d) == segment_successor_from_grid(m, d)
        seen = {0}
        d = segment_successor(m, 0)
        while d != 0 and len(seen) <= 2 * m + 3:
            seen.add(d)
            d = segment_successor(m, d)
        ok = ok and len(seen) == 2 * m + 3
    _report(8, "height-2 segment map matches the grid and is a single orbit", started, ok)


def test_09_reduction_and_rule_soundness():
    started = time.time()
    ok = True
    branch_seen = set()
    for n, m in _coprime(50, strict=True):
        if (n, m) in TERMINAL_PAIRS:
            continue
        matches = _branch_rules(euclid_state(n, m))
        ok = ok and len(matches) == 1
        idx, emitted = matches[0]
        branch_seen.add(idx)
        a, b = sorted(emitted)
        ok = ok and diag_count_naive(a, b) == diag_count_naive(n, m)
    ok = ok and branch_seen == set(range(1, 11))
    ok = ok and check_canon_rules(60).ok
    for n, m in _coprime(100, strict=True):
        if n == 1:
            continue
        ok = ok and (diag_count_naive(n, m) == 2) == (n * m % 2 == 1)
    _report(9, "ten reductions and five tree rules sound; two diagonals iff odd product", started, ok)


def test_10_distribution_census(capsys):
    started = time.time()
    assert cli_main(["census", "--max", "2000", "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    report = diag_distribution(2000)
    ok = record["pairs"] == report.pairs
    for value, limit in (
        (report.p1, Fraction(4, 9)),
        (report.p2, Fraction(1, 3)),
        (report.p3, Fraction(2, 9)),
    ):
        ok = ok and abs(value - limit) < Fraction(1, 50)
    small = diag_distribution(100)
    drift_small = max(
        abs(small.p1 - Fraction(4, 9)),
        abs(small.p2 - Fraction(1, 3)),
        abs(small.p3 - Fraction(2, 9)),
    )
    drift_large = max(
        abs(report.p1 - Fraction(4, 9)),
        abs(report.p2 - Fraction(1, 3)),
        abs(report.p3 - Fraction(2, 9)),
    )
    with capsys.disabled():
        if drift_large > drift_small:
            print(f"note: distribution drift grew from h=100 to h=2000 "
                  f"({float(drift_small):.4f} -> {float(drift_large):.4f})")
        _report(10, "census --max 2000 within 0.02 of 4/9, 1/3, 2/9", started, ok)


def test_11_link_calculus_properties():
    started = time.time()
    ok = True
    for total in range(1, 13):
        for a in range(total + 1):
            for b in range(total - a + 1):
                for c in range(total - a - b + 1):
                    link = Link(a, b, c, total - a - b - c)
                    ok = ok and sorted(link_permutation(link)) == list(range(total))
    rng = random.Random(0x5EED)
    done = 0
    while done < 10_000:
        a = rng.randint(1, 120)
        b = rng.randint(1, 120)
        c = rng.randint(0, 20)
        d = rng.randint(0, 20)
        link = Link(a, b, c, d)
        t = link.t
        if not (a > t and b > t and t >= c + d) or link.total > 200:
            continue
        done += 1
        ok = ok and loop_count(link_reduce(link)) == loop_count(link)
    for n in range(1, 21):
        for m in range(1, 21):
            if diag_count_naive(n, m) == 1:
                ok = ok and is_knot(Link(m, m, n, n))
    _report(11, "link permutations bijective; reduction and doubling laws hold", started, ok)


def test_12_interleaving_identity():
    started = time.time()
    rng = random.Random(0xF00D)
    ok = True
    for _ in range(1000):
        size = rng.randint(1, 8)
        phi = list(range(size))
        pi = list(range(size))
        rng.shuffle(phi)
        rng.shuffle(pi)
        ok = ok and floor_swap_identity_check(
            tuple(phi), tuple(pi), rng.randint(1, 30), rng.randint(1, 30)
        )
    _report(12, "floor/ceil interleaving identity on 1000 random instances", started, ok)


def _one_tally_off(h):
    report = diag_distribution(h)
    return dataclasses.replace(report, count3=report.count3 + 1)


def test_verify_checks_fail_on_a_planted_disagreement(monkeypatch):
    # Each check the tests above rely on must fail when one of its routes
    # is wrong; otherwise a check that always passes would go unnoticed.
    planted = [
        ("is_hamiltonian_fast", lambda n, m: True, lambda: check_tier_equivalence(4)),
        ("diag_count_tree", lambda n, m: 0, lambda: check_counting_agreement(4)),
        ("loop_count", lambda link: 0, lambda: check_cycle_link_equivalence(3)),
        ("orientation_k", lambda dec, omega: 5, lambda: check_link_balance(3)),
        ("periodicity_check", lambda n, m: False, lambda: check_periodicity(4)),
        ("diag_count_naive", lambda n, m: n * m, lambda: check_canon_rules(8)),
        ("induction_groups", lambda grid: [], lambda: check_induction_groups(3)),
        ("loop_count", lambda link: 0, lambda: check_induction_groups(3)),
        ("string_powers", lambda n, m: "d", lambda: check_string_construction(5)),
        ("diag_distribution", _one_tally_off, lambda: check_census_tree(2)),
        ("exceptional_pairs", lambda h: exceptional_pairs(h)[1:], lambda: check_table_route(4)),
    ]
    for name, wrong, check in planted:
        assert check().ok, name
        with monkeypatch.context() as patch:
            patch.setattr(verify, name, wrong)
            assert not check().ok, name

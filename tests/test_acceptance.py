"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (visible under pytest -s or -v
via live logging of stdout on failure) with its runtime.
"""

import ast
import dataclasses
import json
import math
import time
from collections import Counter
from fractions import Fraction
from itertools import islice, product
from pathlib import Path

import bitorus.verify as verify
from bitorus.census import diag_distribution, exceptional_pairs
from bitorus.cli import cli_main
from bitorus.counting import _rule
from bitorus.diagonals import decompose
from bitorus.hamiltonicity import HamWitness, is_hamiltonian_fast, orientation_k
from bitorus.links import orientation_link
from bitorus.surface import GridParams
from bitorus.verify import CHECKS, run_check

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
    ok = run_check("height-2").ok
    _report(2, "height-2 grids: Hamiltonian iff width mod 8 not in {3,5}", started, ok)


def test_03_square_constructions():
    started = time.time()
    ok = run_check("square").ok
    _report(3, "square-grid construction validates for n <= 20", started, ok)


def test_04_tier_and_counter_equivalence():
    started = time.time()
    ok = run_check("tier-equivalence").ok and run_check("counting-agreement", 60).ok
    _report(4, "brute = link tier (<=10); four counters agree (coprime <=60)", started, ok)


def test_05_component_count_equals_loop_count():
    started = time.time()
    ok = run_check("cycle-link-equivalence", 8).ok
    _report(5, "oriented components equal link loops (coprime <=8, all strings)", started, ok)


def test_06_link_balance_identity():
    started = time.time()
    ok = run_check("link-balance", 15).ok
    _report(6, "-a+b+2c+2d = (4-k)n with k integral (coprime <=15)", started, ok)


def test_07_periodicity():
    started = time.time()
    ok = run_check("periodicity").ok
    for n in range(1, 4):
        for m in range(1, 8):
            if math.gcd(n, m) != 1:
                continue
            base = decompose(GridParams(n, m))
            shifted = decompose(GridParams(n, m + 12 * n))
            ok = ok and len(base.profiles) == len(shifted.profiles)
            expected = Counter()
            for omega in product("UR", repeat=len(base.profiles)):
                omega = "".join(omega)
                link = orientation_link(base, omega)
                k = orientation_k(base, omega)
                expected[(link.a + 3 * k * n, link.b + 3 * k * n, link.c, link.d)] += 1
            actual = Counter()
            for omega in product("UR", repeat=len(shifted.profiles)):
                actual[orientation_link(shifted, "".join(omega)).as_tuple()] += 1
            ok = ok and expected == actual
    _report(7, "Hamiltonicity periodic in width; link multisets shift by 3kn", started, ok)


def test_08_segment_map_validation():
    started = time.time()
    ok = run_check("segment-map").ok
    _report(8, "height-2 segment map matches the grid and is a single orbit", started, ok)


def test_09_reduction_and_rule_soundness():
    started = time.time()
    # the default cases reach every one of the ten rules
    steps = (_rule(*case) for case in CHECKS["reduction-rules"].cases(10))
    ok = {step[0] for step in steps if step} == set(range(1, 11))
    ok = ok and run_check("reduction-rules").ok and run_check("canon-rules", 60).ok
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
    # link permutations are bijective: test_links::test_permutation_bijective_exhaustively
    started = time.time()
    ok = run_check("link-reduce").ok and run_check("one-diagonal").ok
    _report(11, "link reduction and doubling laws hold", started, ok)


def test_12_interleaving_identity():
    started = time.time()
    ok = run_check("floor-swap").ok
    _report(12, "floor/ceil interleaving identity on 1000 random instances", started, ok)


def _rule_six_off(n, m):
    """`_rule` with rule 6 emitting (r1, r0 + r1) instead of (r1, r0 - r1)."""
    found = _rule(n, m)
    if found is None or found[0] != 6:
        return found
    _, (r1, r0_less_r1), _ = found
    return 6, (r1, r0_less_r1 + 2 * r1), (r1, r0_less_r1 + 2 * r1)


def _one_tally_off(h):
    report = diag_distribution(h)
    return dataclasses.replace(report, count3=report.count3 + 1)


# (entry, name in bitorus.verify or a dotted path, wrong route, limit)
PLANTED = [
    ("tier-equivalence", "is_hamiltonian_fast", lambda n, m: True, 4),
    # flips only the (4k, 1) grids, the mirror images of the (1, 4k) ones
    ("tier-equivalence", "is_hamiltonian_fast",
     lambda n, m: is_hamiltonian_fast(n, m) != (m == 1 and n % 4 == 0), 10),
    # `_brute_sweep` dropping the all-U string whatever m is, which only
    # the (4k, 1) grids, Hamiltonian by that string alone, can tell
    ("tier-equivalence", "bitorus.hamiltonicity.islice",
     lambda strings, start, stop: islice(strings, 1, stop), 10),
    ("counting-agreement", "diag_count_tree", lambda n, m: 0, 4),
    ("string-construction", "string_powers", lambda n, m: "d", 5),
    ("cycle-link-equivalence", "loop_count", lambda link: 0, 3),
    ("link-balance", "orientation_k", lambda dec, omega: 5, 3),
    ("periodicity", "is_hamiltonian_fast", lambda n, m: m < 12 * n, 4),
    ("canon-rules", "diag_count_naive", lambda n, m: n * m, 8),
    ("census-tree", "diag_distribution", _one_tally_off, 2),
    ("induction-groups", "induction_groups", lambda grid: [], 3),
    ("induction-groups", "loop_count", lambda link: 0, 3),
    ("table-route", "exceptional_pairs", lambda h: exceptional_pairs(h)[1:], 4),
    ("one-diagonal", "is_knot", lambda link: False, 2),
    ("height-2", "is_hamiltonian_fast", lambda n, m: True, 2),
    ("square", "square_construction", lambda n: HamWitness("R", [0]), 2),
    ("segment-map", "segment_successor", lambda m, d: (d + m + 4) % (2 * m), 2),
    ("reduction-rules", "diag_count_naive", lambda n, m: n * m, 2),
    ("reduction-rules", "_rule", _rule_six_off, 2),
    ("link-reduce", "loop_count", lambda link: link.a, 2),
    ("floor-swap", "_ceil_div", lambda a, b: a // b, 2),
    ("torus1", "ham_torus1", lambda n, m: False, 2),
    # (2, 3) has g = 1 and no Hamiltonian cycle, so one cycle there is wrong
    ("torus1", "torus1_components", lambda n, m, omega: 1, 3),
]


def test_verify_checks_fail_on_a_planted_disagreement(monkeypatch):
    # Each registry entry must fail when one of its routes is wrong;
    # otherwise a check that always passes would go unnoticed.
    assert {entry for entry, *_ in PLANTED} == set(CHECKS), "an entry has no planted case"
    for entry, name, wrong, limit in PLANTED:
        assert run_check(entry, limit).ok, entry
        with monkeypatch.context() as patch:
            patch.setattr(name if "." in name else f"bitorus.verify.{name}", wrong)
            assert not run_check(entry, limit).ok, (entry, name)


def test_readme_library_block_states_what_the_code_returns():
    # each commented expression of README's `## Library` block reprs as the
    # value its comment states, before any ": "; a list ending in ", ...]"
    # states its first items
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("\n```", 1)[0]
    namespace, checked = {}, []
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        body = ast.parse(code).body
        if not (comment and body and isinstance(body[0], ast.Expr)):
            exec(code, namespace)
            continue
        stated, got = comment.split(": ", 1)[0], repr(eval(code, namespace))
        assert got == stated or stated.endswith(", ...]") and got.startswith(stated[:-4]), line
        checked.append(stated)
    assert len(checked) == 7, checked

"""Self-tests of the benchmark: inputs, span arithmetic, checkers, metric names."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import bitorus
import run
import worker
from inputs import DIAG_M_RANGE, HAM_SIDES, WORKLOADS, Inputs, make_inputs
from spans import Tracer, self_times, summarize
from workloads import call, check_census, check_diag, check_ham, check_table, run_diag, run_ham

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent


# ---------------------------------------------------------------------------
# Inputs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_are_deterministic_per_seed_and_chunk(workload):
    assert make_inputs(workload, 7, 2) == make_inputs(workload, 7, 2)
    assert make_inputs(workload, 7, 2) != make_inputs(workload, 8, 2)
    assert make_inputs(workload, 7, 2) != make_inputs(workload, 7, 3)


def test_inputs_stay_in_their_ranges():
    lo, hi = DIAG_M_RANGE
    for n, m in make_inputs("diag", 3).pairs:
        assert lo <= m <= hi and 1 <= n <= m
    lo, hi = HAM_SIDES
    grids = make_inputs("ham", 3).pairs
    assert all(lo <= n <= hi and lo <= m <= hi for n, m in grids)
    assert any(math.gcd(n, m) > 1 for n, m in grids)
    for n, m in make_inputs("census", 3).sample + make_inputs("table", 3).sample:
        assert n < m and math.gcd(n, m) == 1


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        make_inputs("nope", 1)


# ---------------------------------------------------------------------------
# Spans


def test_self_time_of_nested_spans():
    # root [0, 100] holds a [10, 40] (which holds g [15, 25]) and b [50, 90].
    starts = [0, 10, 15, 50]
    ends = [100, 40, 25, 90]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [30, 20, 10, 40]
    assert sum(self_times(starts, ends, parents)) == ends[0] - starts[0]


def test_tracer_records_parents_and_accounts_for_the_root():
    ticks = iter(range(0, 1000, 10))
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda x: x + 1, work=lambda x: ("items", x))
    outer = tracer.wrap("outer", lambda x: inner(x) + inner(x))
    assert outer(3) == 8
    assert tracer.names == ["outer", "inner", "inner"]
    assert tracer.parents == [-1, 0, 0]
    summary = summarize(tracer)
    assert summary["inner"]["calls"] == 2 and summary["inner"]["items"] == 6
    root = (tracer.ends[0] - tracer.starts[0]) / 1e9
    assert sum(row["self_s"] for row in summary.values()) == pytest.approx(root)


def test_tracer_counts_failures_and_closes_the_span():
    tracer = Tracer()

    def boom():
        raise ArithmeticError("planted")

    with pytest.raises(ArithmeticError):
        tracer.wrap("fake.boom", boom)()
    assert tracer.failed["fake.boom"] == 1
    assert tracer.ends[0] >= tracer.starts[0]


def test_install_rebinds_library_callers_and_uninstall_undoes_it():
    original = bitorus.hamiltonicity.decompose
    tracer = Tracer()
    tracer.install(bitorus)
    try:
        assert bitorus.hamiltonicity.decompose is not original
        assert bitorus.diagonals.decompose is bitorus.hamiltonicity.decompose
        bitorus.hamiltonicity.is_hamiltonian_fast(3, 23)
    finally:
        tracer.uninstall()
    assert bitorus.hamiltonicity.decompose is original
    names = set(tracer.names)
    assert {"hamiltonicity.is_hamiltonian_fast", "diagonals.decompose"} <= names
    fast = tracer.names.index("hamiltonicity.is_hamiltonian_fast")
    assert tracer.parents[tracer.names.index("diagonals.decompose")] == fast


# ---------------------------------------------------------------------------
# Checkers flag planted wrong answers from stub functions


def _lib(**modules):
    """The real library with some modules replaced by stub namespaces."""
    names = ("census", "counting", "diagonals", "errors", "hamiltonicity", "surface")
    lib = {name: getattr(bitorus, name) for name in names}
    lib.update(modules)
    return SimpleNamespace(**lib)


def test_diag_checker_flags_a_wrong_reduction():
    real = bitorus.counting
    stub = SimpleNamespace(
        diag_count_tree=real.diag_count_tree,
        diag_count_reduction=lambda n, m: real.diag_count_tree(n, m) + 1,
    )
    lib = _lib(counting=stub)
    inp = Inputs("diag", 0, 0, 2, ((3, 100_000), (7, 100_002)))
    ops = run_diag(lib, inp, None)
    problems = check_diag(lib, inp, ops)
    assert len(problems) >= 2
    assert [op.rejected for op in ops] == [True, True]
    assert all(op.failed and op.cross.rejected for op in ops)


def test_diag_checker_passes_the_real_library():
    inp = Inputs("diag", 0, 0, 2, ((3, 100_000), (6, 100_002)))
    ops = run_diag(bitorus, inp, None)
    assert check_diag(bitorus, inp, ops) == []
    assert [len(op.calls()) for op in ops] == [2, 2]


def test_diag_counts_a_raising_reduction_as_raised_not_failed():
    real = bitorus.counting

    def refuse(n, m):
        raise bitorus.InconsistencyError("planted")

    lib = _lib(counting=SimpleNamespace(diag_count_tree=real.diag_count_tree,
                                        diag_count_reduction=refuse))
    inp = Inputs("diag", 0, 0, 1, ((3, 100_000),))
    ops = run_diag(lib, inp, None)
    assert check_diag(lib, inp, ops) == []
    assert not ops[0].failed and ops[0].answer == real.diag_count_tree(3, 100_000)
    assert ops[0].cross.error.startswith("InconsistencyError")


def test_ham_checker_flags_a_wrong_link_tier():
    real = bitorus.hamiltonicity
    stub = SimpleNamespace(
        BRUTE_DIAGONAL_CAP=real.BRUTE_DIAGONAL_CAP,
        is_hamiltonian_fast=lambda n, m: not real.is_hamiltonian_fast(n, m),
        is_hamiltonian_brute=real.is_hamiltonian_brute,
        hamiltonian_witness=real.hamiltonian_witness,
        validate_witness=real.validate_witness,
    )
    lib = _lib(hamiltonicity=stub)
    inp = Inputs("ham", 0, 0, 3, ((3, 5), (5, 19), (4, 6)))
    ops = run_ham(lib, inp, [True, True, True])
    problems = check_ham(lib, inp, ops)
    assert any("link tier" in line for line in problems)
    assert all(op.rejected for op in ops if op.name in ("fast", "brute"))


def test_census_checker_flags_a_wrong_pair_total():
    real = bitorus.census

    def short(h):
        rep = real.diag_distribution(h)
        return real.DistributionReport(h, rep.pairs - 1, rep.count1 - 1, rep.count2, rep.count3)

    lib = _lib(census=SimpleNamespace(diag_distribution=short))
    inp = Inputs("census", 1, 0, 60, (), ((2, 5), (3, 8)))
    ops = [call("diag_distribution", lib.census.diag_distribution, inp.size)]
    assert check_census(lib, inp, ops) and ops[0].rejected


def test_table_checker_flags_a_missing_row():
    real = bitorus.census
    lib = _lib(census=SimpleNamespace(exceptional_pairs=lambda k: real.exceptional_pairs(k)[1:]))
    inp = Inputs("table", 1, 0, 60, (), ((5, 19), (2, 3)))
    ops = [call("exceptional_pairs", lib.census.exceptional_pairs, inp.size)]
    problems = check_table(lib, inp, ops)
    assert any("paper's table" in line for line in problems) and ops[0].rejected


# ---------------------------------------------------------------------------
# The harness itself


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    zero = (0, 0, 0), (0, 0, 0)
    layer = set(worker.layer_metrics(Tracer(), 1.0, zero, zero))
    layer |= {"trace.overhead_ratio", "counting.diag_count_tree.slope",
              "links.loop_count.slope", "hamiltonicity.is_hamiltonian_fast.slope"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    for metric in spec["per_layer"]:
        suffix = metric["name"].rsplit(".", 1)[1]
        assert metric["unit"] == run.PER_LAYER_UNITS.get(suffix, "count")
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_each_round_is_scaled_by_its_own_reference_time():
    ref = run.REFERENCE_S

    def round_at(slowdown, raised=0):
        return {"ref_s": [slowdown * ref, slowdown * ref], "setup_s": 0.1 * slowdown,
                "items": 10, "wall_s": slowdown, "call_s": [0.001 * slowdown] * 10,
                "rss_mb": 30.0, "calls": 10, "raised": raised}

    rounds = [round_at(1), round_at(2, raised=1), round_at(3)]
    scaled, measured, slowdown = run.end_to_end(rounds)
    assert scaled["setup_s"] == pytest.approx(0.1)
    assert scaled["items_per_s"] == pytest.approx(10)
    assert scaled["op_p50_ms"] == scaled["op_p90_ms"] == pytest.approx(1.0)
    assert measured["op_p50_ms"] == pytest.approx(2.0) and slowdown == pytest.approx(2)
    assert scaled["answered_ratio"] == pytest.approx(1 - 1 / 30)


def test_loglog_slope_recovers_a_power_law():
    xs = [1, 10, 100, 1000]
    assert worker.loglog_slope(xs, [3 * x**2 for x in xs]) == pytest.approx(2.0)


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

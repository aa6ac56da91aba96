#!/usr/bin/env python3
"""Benchmark of the bitorus library.

    python3 bench/run.py --workload census|table|diag|ham --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each round is a fresh single-threaded
worker process (bench/worker.py) that imports bitorus from ./src, runs
one input chunk of the workload as one closed-loop client and checks
the answers out of timing.  Round k runs chunk k of the seed; rounds
repeat until S seconds have passed (at least MIN_ROUNDS).  Each round's
timings are scaled to reference machine speed, and each metric is the
median over rounds (see end_to_end); answered_ratio counts all library
calls.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates plain and
traced rounds for S seconds, then runs the complexity probe, and prints
the per-layer metrics; spans go to .bench_out/spans-<workload>.csv.gz.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from inputs import WORKLOADS  # noqa: E402

MIN_ROUNDS = 3
# Best time of worker.reference_loop on the 2-vCPU Xeon virtual machine
# the benchmark was written on, in a state where census --max 1000 took
# about 2.1 s.  Timings are reported as if the machine ran the loop in
# exactly this long.
REFERENCE_S = 0.010
# Every run must end well inside the 180 s a run is allowed.
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("answered_ratio", "ratio"),
)

PER_LAYER_UNITS = {
    "self_s": "s",
    "cache_hit_ratio": "ratio",
    "hit_ratio": "ratio",
    "links_per_call": "links/call",
    "overhead_ratio": "ratio",
    "self_coverage": "ratio",
    "slope": "slope",
}


class RoundFailed(RuntimeError):
    pass


def spawn(args: list[str], started: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise RoundFailed("no time left for another round")
    cmd = [sys.executable, str(BENCH / "worker.py"), str(ROOT), *args]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"worker {args} did not finish in {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise RoundFailed(f"worker {args} exited with code {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise RoundFailed(f"worker {args} printed no result") from exc


def repeat(step, seconds: float, minimum: int, started: float) -> list:
    """Call step() until `seconds` have passed and it ran `minimum` times.

    Stops early rather than start a step that would not end by the deadline.
    """
    results = []
    last = 0.0
    while len(results) < minimum or time.monotonic() - started < seconds:
        if results and time.monotonic() - started + last > DEADLINE_S - 30:
            break
        begin = time.monotonic()
        results.append(step(len(results)))
        last = time.monotonic() - begin
    return results


def percentile_ms(seconds: list[float], q: int) -> float:
    """The q-th percentile of one round's call times, in ms; a lone call is its own percentile."""
    if len(seconds) == 1:
        return seconds[0] * 1e3
    return statistics.quantiles(seconds, n=100, method="inclusive")[q - 1] * 1e3


def end_to_end(rounds: list[dict]) -> tuple[dict[str, float], dict[str, float], float]:
    """Metrics at reference machine speed, the same as measured, and the speed factor.

    Other tenants of a shared machine slow it down by up to twice, for
    anything from a second to minutes.  Each round times the reference
    loop right before bitorus is imported and right after the timed
    section, and each of its timings is scaled by REFERENCE_S over the
    reference time taken around it: set-up by the sample before it, the
    timed section by the mean of the two.  A round that runs in a slow
    spell is then scaled back as a whole.  Every metric is the median over
    rounds, of scaled timings and of peak RSS.
    """
    measured: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}
    slowdowns = []
    for r in rounds:
        before, after = r["ref_s"]
        slowdown = (before + after) / 2 / REFERENCE_S
        slowdowns.append(slowdown)
        for name, value, factor in (
            ("setup_s", r["setup_s"], before / REFERENCE_S),
            ("items_per_s", r["items"] / r["wall_s"], 1 / slowdown),
            ("op_p50_ms", percentile_ms(r["call_s"], 50), slowdown),
            ("op_p90_ms", percentile_ms(r["call_s"], 90), slowdown),
        ):
            measured.setdefault(name, []).append(value)
            scaled.setdefault(name, []).append(value / factor)
    common = {
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
        "answered_ratio": 1 - sum(r["raised"] for r in rounds) / sum(r["calls"] for r in rounds),
    }
    median = {name: statistics.median(values) for name, values in scaled.items()}
    as_measured = {name: statistics.median(values) for name, values in measured.items()}
    return median | common, as_measured | common, statistics.median(slowdowns)


def report_rounds(workload: str, seed: int, rounds: list[dict]) -> None:
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    errors: dict[str, int] = {}
    for r in rounds:
        for kind, count in r["errors"].items():
            errors[kind] = errors.get(kind, 0) + count
    per_round = sorted(r["attempted"] for r in rounds)
    print(f"workload {workload} seed {seed}: {len(rounds)} rounds, "
          f"{per_round[0]}-{per_round[-1]} ops per round")
    calls = sum(r["calls"] for r in rounds)
    raised = sum(r["raised"] for r in rounds)
    print(f"fail_ratio {failed / attempted:.4f} ratio ({failed} of {attempted} ops_attempted; "
          f"{sum(r['rejected'] for r in rounds)} answers rejected)")
    print(f"library calls raised {raised} of {calls} ({errors or 'nothing'})")
    for r in rounds:
        for line in r["problems"]:
            print(f"problem: {line}")


def run_plain(workload: str, seed: int, seconds: float, started: float) -> tuple[list, dict]:
    rounds = repeat(
        lambda k: spawn([workload, str(seed), str(k), "plain"], started),
        seconds, MIN_ROUNDS, started,
    )
    report_rounds(workload, seed, rounds)
    metrics, measured, slowdown = end_to_end(rounds)
    print(f"machine ran the reference loop x{slowdown:.3f} as slow as REFERENCE_S "
          f"(median round); timings below are scaled back round by round")
    for name, unit in END_TO_END:
        print(f"{name} {metrics[name]:.6g} {unit} (as measured: {measured[name]:.6g})")
    return rounds, {name: (metrics[name], unit) for name, unit in END_TO_END}


def run_traced(workload: str, seed: int, seconds: float, started: float) -> tuple[list, dict]:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload}.csv.gz"

    def pair(k: int) -> tuple[dict, dict]:
        """Chunk k plain and traced, alternating which goes first."""
        plain = lambda: spawn([workload, str(seed), str(k), "plain"], started)  # noqa: E731
        traced = lambda: spawn(  # noqa: E731
            [workload, str(seed), str(k), "traced", str(spans_path)], started
        )
        if k % 2:
            t = traced()
            return plain(), t
        p = plain()
        return p, traced()

    pairs = repeat(pair, seconds, 1, started)
    probe = spawn([workload, str(seed), "0", "probe"], started)
    plain_rounds = [p for p, _ in pairs]
    traced_rounds = [t for _, t in pairs]
    report_rounds(workload, seed, plain_rounds + traced_rounds)

    layers = {
        key: statistics.median(r["layers"][key] for r in traced_rounds)
        for key in traced_rounds[0]["layers"]
    }
    layers["trace.overhead_ratio"] = statistics.median(
        (t["wall_s"] / sum(t["ref_s"])) / (p["wall_s"] / sum(p["ref_s"])) for p, t in pairs
    )
    layers.update(probe["layers"])
    last = traced_rounds[-1]
    print(f"traced rounds: {len(traced_rounds)}; last recorded {last['spans']} spans "
          f"to {spans_path.relative_to(ROOT)}")
    print(f"self times cover {layers['trace.self_coverage']:.2%} of the traced timed section "
          f"(median over traced rounds); tracing costs x{layers['trace.overhead_ratio']:.3f}")
    for label, points in probe["points"].items():
        shown = ", ".join(f"{x}: {s * 1e3:.3g} ms" for x, s in points.items())
        print(f"probe {label}: {shown}")
    metrics = {}
    for key in sorted(layers):
        unit = PER_LAYER_UNITS.get(key.rsplit(".", 1)[1], "count")
        metrics[key] = (layers[key], unit)
        print(f"{key} {layers[key]:.6g} {unit}")
    return plain_rounds + traced_rounds, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bitorus" / "__init__.py").is_file():
        print(f"bench: no bitorus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    runner = run_traced if args.trace else run_plain
    try:
        rounds, metrics = runner(args.workload, args.seed, args.seconds, started)
    except RoundFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": all(r["rejected"] == 0 for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

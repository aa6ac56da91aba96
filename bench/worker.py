"""One benchmark round in a fresh, single-threaded process.

    python3 bench/worker.py ROOT WORKLOAD SEED CHUNK plain|traced|probe [SPANS_PATH]

A round times a fixed reference loop that gauges machine speed, imports
bitorus from ROOT/src (timed as set-up), runs the ops of one input chunk
of the workload in the timed section, reads the peak RSS, times the
reference loop again, and only then checks the answers.  A traced round
records spans around every library entry point and writes them to
SPANS_PATH.  The probe fits log-log slopes of three entry points.  The
result is one JSON object on stdout.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
from collections import Counter

from inputs import make_inputs
from spans import Tracer, child_count, summarize
from workloads import SPECS, call

# Per-layer metrics a traced round reports: (span name, counter) pairs.
SPAN_METRICS = (
    ("census.diag_distribution", "self_s"),
    ("census.exceptional_pairs", "self_s"),
    ("counting.diag_count_tree", "calls"),
    ("counting.diag_count_tree", "self_s"),
    ("counting.diag_count_reduction", "calls"),
    ("counting.diag_count_reduction", "self_s"),
    ("counting.diag_count_reduction", "failed"),
    ("diagonals.decompose", "calls"),
    ("diagonals.decompose", "self_s"),
    ("diagonals.decompose", "cells"),
    ("diagonals.diag_count_naive", "calls"),
    ("diagonals.diag_count_naive", "self_s"),
    ("surface.index_tables", "calls"),
    ("surface.index_tables", "self_s"),
    ("links.loop_count", "calls"),
    ("links.loop_count", "self_s"),
    ("links.loop_count", "strands"),
    ("hamiltonicity.is_hamiltonian_fast", "calls"),
    ("hamiltonicity.is_hamiltonian_fast", "self_s"),
    ("hamiltonicity.is_hamiltonian_brute", "calls"),
    ("hamiltonicity.is_hamiltonian_brute", "self_s"),
    ("hamiltonicity.hamiltonian_witness", "calls"),
    ("hamiltonicity.hamiltonian_witness", "self_s"),
)


def reference_loop() -> int:
    """Fixed pure-Python work (arithmetic, tuples, a dict) that gauges machine speed."""
    acc = 0
    first: dict[int, tuple[int, int]] = {}
    for i in range(20_000):
        cell = divmod(i * 7919, 1009)
        acc += (cell[0] * cell[1]) % 13
        first.setdefault(cell[0], cell)
    return acc + len(first)


def reference_seconds() -> float:
    """Best of 7 runs of the reference loop; about 10 ms on an unloaded machine."""
    best = math.inf
    for _ in range(7):
        start = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - start)
    return best


def import_bitorus(root: str):
    """Import bitorus from ROOT/src and return it with the import time."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import bitorus

    setup_s = time.perf_counter() - start
    if not os.path.abspath(bitorus.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"bitorus was imported from {bitorus.__file__}, not from {src}")
    return bitorus, setup_s


def _cache_counts(fn) -> tuple[int, int, int]:
    """(hits, misses, size) of an lru_cache, zeros once a function has none."""
    info = getattr(fn, "cache_info", None)
    if info is None:
        return 0, 0, 0
    info = info()
    return info.hits, info.misses, info.currsize


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, dec: tuple, naive: tuple) -> dict[str, float]:
    """Per-layer numbers of one traced round.  `dec`, `naive`: cache counts before and after."""
    summary = summarize(tracer)
    out = {
        f"{name}.{key}": summary.get(name, {}).get(key, 0) for name, key in SPAN_METRICS
    }
    fast_calls = out["hamiltonicity.is_hamiltonian_fast.calls"]
    links = child_count(tracer, "links.loop_count", "hamiltonicity.is_hamiltonian_fast")
    out["hamiltonicity.is_hamiltonian_fast.links_per_call"] = _ratio(links, fast_calls)
    (h0, m0, _), (h1, m1, _) = naive
    out["diagonals.diag_count_naive.cache_hit_ratio"] = _ratio(h1 - h0, h1 - h0 + m1 - m0)
    (h0, m0, _), (h1, m1, size) = dec
    out["hamiltonicity.dec_cache.size"] = size
    out["hamiltonicity.dec_cache.hit_ratio"] = _ratio(h1 - h0, h1 - h0 + m1 - m0)
    out["trace.self_coverage"] = _ratio(sum(tracer.self_ns()) / 1e9, wall_s)
    return out


def run_round(
    root: str, workload: str, seed: int, chunk: int, traced: bool, spans_path: str | None
) -> dict:
    ref_before = reference_seconds()
    lib, setup_s = import_bitorus(root)
    inp = make_inputs(workload, seed, chunk)
    spec = SPECS[workload]
    prep = spec.prep(lib, inp) if spec.prep else None

    tracer = None
    if traced:
        dec_cache = getattr(lib.hamiltonicity, "_dec", None)
        naive = lib.diagonals.diag_count_naive
        before = _cache_counts(dec_cache), _cache_counts(naive)
        tracer = Tracer()
        tracer.install(lib)
    start = time.perf_counter()
    ops = spec.run(lib, inp, prep)
    wall_s = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ref_after = reference_seconds()
    layers = None
    if tracer is not None:
        tracer.uninstall()
        after = _cache_counts(dec_cache), _cache_counts(naive)
        layers = layer_metrics(
            tracer, wall_s, (before[0], after[0]), (before[1], after[1])
        )

    problems = spec.check(lib, inp, ops)
    items = sum(spec.items(inp, op) if spec.items else 1 for op in ops if not op.failed)
    calls = [c for op in ops for c in op.calls()]
    result = {
        "setup_s": setup_s,
        "ref_s": [ref_before, ref_after],
        "wall_s": wall_s,
        "items": items,
        "call_s": [c.seconds for c in calls],
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "rejected": sum(op.rejected for op in ops),
        "calls": len(calls),
        "raised": sum(c.error is not None for c in calls),
        "errors": dict(Counter(c.error.split(":")[0] for c in calls if c.error)),
        "problems": problems[:20],
        "rss_mb": rss_mb,
    }
    if tracer is not None:
        result["layers"] = layers
        result["spans"] = len(tracer.names)
        if spans_path:
            tracer.write(spans_path)
    return result


# ---------------------------------------------------------------------------
# Complexity probe


def _best_seconds(fn, *args, budget: float = 0.05, repeats: int = 5) -> float:
    """Fastest of a few calls, stopping once `budget` seconds are spent."""
    best = math.inf
    spent = 0.0
    for _ in range(repeats):
        op = call("probe", fn, *args)
        if op.error:
            raise RuntimeError(f"probe call {fn.__name__}{args} failed: {op.error}")
        best = min(best, op.seconds)
        spent += op.seconds
        if spent >= budget:
            break
    return best


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def run_probe(root: str) -> dict:
    """Scaling slopes that test the docstrings' complexity claims.

    diag_count_tree(1, m) over m = 1e3..1e6 (even m, so the walk runs);
    loop_count on near-balanced links of 1e2..1e5 strands per side; and
    is_hamiltonian_fast(n, n+1) over n = 6..384.  The last is one cold
    call per size, because decompositions are cached per grid.
    """
    lib, _ = import_bitorus(root)
    tree = lib.counting.diag_count_tree
    ms = [2 * round(10 ** (3 + k / 2) / 2) for k in range(7)]
    tree_s = [_best_seconds(tree, 1, m) for m in ms]

    link, loop_count = lib.links.Link, lib.links.loop_count
    ks = [round(10 ** (2 + j / 2)) for j in range(7)]
    loop_s = [_best_seconds(loop_count, link(k, k + 1, k // 2, k // 2)) for k in ks]

    fast = lib.hamiltonicity.is_hamiltonian_fast
    ns = [round(6 * 2 ** (k / 2)) for k in range(13)]
    fast_s = [_best_seconds(fast, n, n + 1, repeats=1) for n in ns]
    return {
        "layers": {
            "counting.diag_count_tree.slope": loglog_slope(ms, tree_s),
            "links.loop_count.slope": loglog_slope(ks, loop_s),
            "hamiltonicity.is_hamiltonian_fast.slope": loglog_slope(ns, fast_s),
        },
        "points": {
            "diag_count_tree(1, m)": dict(zip(ms, tree_s)),
            "loop_count(k, k+1, k//2, k//2)": dict(zip(ks, loop_s)),
            "is_hamiltonian_fast(n, n+1)": dict(zip(ns, fast_s)),
        },
    }


def main(argv: list[str]) -> int:
    if len(argv) not in (5, 6) or argv[4] not in ("plain", "traced", "probe"):
        print(__doc__, file=sys.stderr)
        return 2
    root, workload, seed, chunk, mode = argv[:5]
    if mode == "probe":
        result = run_probe(root)
    else:
        spans_path = argv[5] if len(argv) == 6 else None
        result = run_round(root, workload, int(seed), int(chunk), mode == "traced", spans_path)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    code = main(sys.argv[1:])
    # Skip interpreter teardown: freeing every cached decomposition one
    # object at a time only delays the next round.
    os._exit(code)

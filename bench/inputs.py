"""Seeded workload inputs.  Standard library only: bitorus is never imported here.

A run's inputs are chunks 0, 1, 2, ... of its seed, one chunk per round,
for as many rounds as the run lasts; chunk k of a seed is always the same.
Every draw is stratified (one jittered draw per equal-probability stratum,
strata shuffled), so chunks differ but share one shape, and per-run
totals stay steady across seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("census", "table", "diag", "ham")

CENSUS_H = 1000
CENSUS_SAMPLE = 40

TABLE_K = 64
TABLE_SAMPLE = 24

DIAG_PAIRS = 100
DIAG_M_RANGE = (100_000, 1_000_000)

HAM_GRIDS = 70
HAM_SIDES = (2, 400)
# Every HAM_WITNESS_EVERY-th Hamiltonian grid also asks for a witness.
HAM_WITNESS_EVERY = 3


@dataclass(frozen=True)
class Inputs:
    """One chunk: `size` is H or K for census and table, else len(pairs).

    `pairs` are the op arguments of diag and ham; `sample` holds the
    pairs that the census and table checks re-derive.
    """

    workload: str
    seed: int
    chunk: int
    size: int
    pairs: tuple[tuple[int, int], ...]
    sample: tuple[tuple[int, int], ...] = ()


def _strata(rng: random.Random, count: int) -> list[float]:
    """One uniform draw in each of `count` equal strata of [0, 1), shuffled."""
    values = [(i + rng.random()) / count for i in range(count)]
    rng.shuffle(values)
    return values


def _coprime_sample(rng: random.Random, limit: int, count: int) -> tuple[tuple[int, int], ...]:
    """Distinct random coprime pairs n < m <= limit, sorted."""
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < count:
        m = rng.randint(2, limit)
        n = rng.randint(1, m - 1)
        if math.gcd(n, m) == 1:
            chosen.add((n, m))
    return tuple(sorted(chosen))


def census_inputs(seed: int, chunk: int) -> Inputs:
    """`census --max H` at a fixed H; the seed picks the pairs re-counted by the check."""
    rng = random.Random(f"census/{seed}/{chunk}")
    sample = _coprime_sample(rng, CENSUS_H, CENSUS_SAMPLE)
    return Inputs("census", seed, chunk, CENSUS_H, (), sample)


def table_inputs(seed: int, chunk: int) -> Inputs:
    """`table --max K` at a fixed K; the seed picks the pairs re-decided by brute force."""
    rng = random.Random(f"table/{seed}/{chunk}")
    return Inputs("table", seed, chunk, TABLE_K, (), _coprime_sample(rng, TABLE_K, TABLE_SAMPLE))


def diag_inputs(seed: int, chunk: int) -> Inputs:
    """m uniform in DIAG_M_RANGE, n log-uniform in [1, m]; gcd > 1 is kept."""
    rng = random.Random(f"diag/{seed}/{chunk}")
    count = DIAG_PAIRS
    lo, hi = DIAG_M_RANGE
    pairs = []
    for u, v in zip(_strata(rng, count), _strata(rng, count)):
        m = lo + int(u * (hi - lo + 1))
        n = min(m, max(1, int(math.exp(v * math.log(m + 1)))))
        pairs.append((n, m))
    return Inputs("diag", seed, chunk, count, tuple(pairs))


def ham_inputs(seed: int, chunk: int) -> Inputs:
    """Both sides log-uniform in HAM_SIDES, drawn through the log of the area.

    Independent log-uniform sides give a triangular log-area.  Taking
    the log-area at the midpoints of `count` equal-probability strata and
    then drawing log n uniformly on the segment that area allows follows
    the same distribution, but gives every seed the same grid areas, so
    the seed moves only aspect ratios, common factors and order.
    """
    rng = random.Random(f"ham/{seed}/{chunk}")
    count = HAM_GRIDS
    lo, hi = HAM_SIDES
    span = math.log(hi / lo)
    areas = [(i + 0.5) / count for i in range(count)]
    rng.shuffle(areas)
    grids = []
    for t, v in zip(areas, _strata(rng, count)):
        if t < 0.5:
            s = span * math.sqrt(2 * t)
        else:
            s = 2 * span - span * math.sqrt(2 * (1 - t))
        x_lo, x_hi = max(0.0, s - span), min(span, s)
        x = x_lo + v * (x_hi - x_lo)
        n = min(hi, max(lo, round(lo * math.exp(x))))
        m = min(hi, max(lo, round(lo * math.exp(s - x))))
        grids.append((n, m))
    return Inputs("ham", seed, chunk, count, tuple(grids))


def make_inputs(workload: str, seed: int, chunk: int = 0) -> Inputs:
    makers = {
        "census": census_inputs,
        "table": table_inputs,
        "diag": diag_inputs,
        "ham": ham_inputs,
    }
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return makers[workload](seed, chunk)

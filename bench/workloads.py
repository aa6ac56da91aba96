"""What each workload calls, and the checks that judge its answers.

The library is passed in as the imported ``bitorus`` package, and every
entry point is looked up on its module when a workload starts, so the
tracer's rebinding (installed before that) sees the calls.  Checks run
after the timed section; they mark rejected answers on the ops and
return one line per problem.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

from inputs import HAM_WITNESS_EVERY, Inputs

# The paper's 31 coprime pairs n < m <= 60 with several diagonals and no
# Hamiltonian cycle.
PAPER_TABLE_60 = (
    (5, 19), (5, 41), (7, 27), (7, 29), (7, 55), (7, 57), (11, 53),
    (13, 29), (13, 31), (13, 43), (13, 47), (17, 31), (17, 37), (17, 39),
    (17, 55), (19, 47), (19, 53), (20, 29), (25, 43), (27, 43), (27, 49),
    (27, 59), (31, 37), (32, 59), (33, 43), (33, 53), (35, 59), (36, 53),
    (36, 59), (41, 56), (53, 56),
)

# Brute force runs on a ham grid only while orientations x cells stays
# under this budget, so one sweep never dominates a run.
HAM_BRUTE_BUDGET = 100_000

# diag pairs whose direct orbit walk is short enough to re-count naively,
# and how many of them each run re-counts.
DIAG_NAIVE_MAX_SUM = 150_000
DIAG_NAIVE_CHECKS = 2


@dataclass
class Op:
    """One op: what was asked, how long its call took, what came back.

    An op is one library call, except on diag, where it also holds a
    second, separately timed call in `cross`: the reduction route on the
    same pair.  The op fails if its own call raises or a check rejects
    an answer; a cross call that raises is counted as raised, not as a
    failed op.
    """

    name: str
    args: tuple
    seconds: float
    answer: object = None
    error: str | None = None
    rejected: bool = False
    cross: Op | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None or self.rejected

    def calls(self) -> list[Op]:
        """The library calls this op made."""
        return [self] if self.cross is None else [self, self.cross]


def call(name: str, fn: Callable, *args) -> Op:
    start = time.perf_counter()
    try:
        answer = fn(*args)
    except Exception as exc:  # a failed op is counted, not fatal to the run
        return Op(name, args, time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
    return Op(name, args, time.perf_counter() - start, answer)


def _coprime_pairs(limit: int) -> int:
    """Coprime pairs n < m <= limit, as the sum of Euler's totient."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            for k in range(p, limit + 1, p):
                phi[k] -= phi[k] // p
    return sum(phi[2:])


# ---------------------------------------------------------------------------
# census: one diag_distribution(H) call


def run_census(lib, inp: Inputs, prep) -> list[Op]:
    return [call("diag_distribution", lib.census.diag_distribution, inp.size)]


def check_census(lib, inp: Inputs, ops: list[Op]) -> list[str]:
    problems = []
    for op in ops:
        if op.error:
            continue
        rep = op.answer
        expected = _coprime_pairs(inp.size)
        if rep.pairs != expected or rep.count1 + rep.count2 + rep.count3 != rep.pairs:
            problems.append(
                f"census H={inp.size}: pairs {rep.pairs}, tallies "
                f"{rep.count1}+{rep.count2}+{rep.count3}, expected {expected} pairs"
            )
            op.rejected = True
    for n, m in inp.sample:
        tree, naive = lib.counting.diag_count_tree(n, m), lib.diagonals.diag_count_naive(n, m)
        if tree != naive:
            problems.append(f"census pair ({n},{m}): tree {tree} != naive {naive}")
            for op in ops:
                op.rejected = True
    return problems


def census_items(inp: Inputs, op: Op) -> int:
    return op.answer.pairs


# ---------------------------------------------------------------------------
# table: one exceptional_pairs(K) call


def run_table(lib, inp: Inputs, prep) -> list[Op]:
    return [call("exceptional_pairs", lib.census.exceptional_pairs, inp.size)]


def check_table(lib, inp: Inputs, ops: list[Op]) -> list[str]:
    problems = []
    cap = lib.hamiltonicity.BRUTE_DIAGONAL_CAP
    for op in ops:
        if op.error:
            continue
        rows = op.answer
        got = [(r.n, r.m) for r in rows]
        bad = []
        if inp.size >= 60 and tuple(p for p in got if p[1] <= 60) != PAPER_TABLE_60:
            bad.append("rows with m <= 60 differ from the paper's table")
        if got != sorted(got) or any(r.diag < 2 or r.hamiltonian for r in rows):
            bad.append("rows unsorted, or a row with one diagonal or a cycle")
        listed = set(got)
        for n, m in inp.sample:
            diag = lib.diagonals.diag_count_naive(n, m)
            if diag < 2 or diag > cap:
                exceptional = False
            else:
                exceptional = not lib.hamiltonicity.is_hamiltonian_brute(n, m)[0]
            if ((n, m) in listed) != exceptional:
                bad.append(f"pair ({n},{m}) listed={(n, m) in listed}, brute says {exceptional}")
        if bad:
            op.rejected = True
            problems.extend(f"table K={inp.size}: {line}" for line in bad)
    return problems


def table_items(inp: Inputs, op: Op) -> int:
    return _coprime_pairs(inp.size)


# ---------------------------------------------------------------------------
# diag: each pair is one op, answered by the tree walk (the CLI's default
# route) and cross-checked by the pair reduction in the same op


def run_diag(lib, inp: Inputs, prep) -> list[Op]:
    tree = lib.counting.diag_count_tree
    reduction = lib.counting.diag_count_reduction
    ops = []
    for n, m in inp.pairs:
        op = call("diag", tree, n, m)
        op.cross = call("reduction", reduction, n, m)
        ops.append(op)
    return ops


def check_diag(lib, inp: Inputs, ops: list[Op]) -> list[str]:
    problems = []
    naive_left = DIAG_NAIVE_CHECKS
    for op in ops:
        n, m = op.args
        red = op.cross
        if not op.error and not red.error and op.answer != red.answer:
            op.rejected = red.rejected = True
            problems.append(f"diag ({n},{m}): tree {op.answer} != reduction {red.answer}")
        if naive_left and n + m <= DIAG_NAIVE_MAX_SUM:
            naive_left -= 1
            truth = lib.diagonals.diag_count_naive(n, m)
            for route, call_ in (("tree", op), ("reduction", red)):
                if not call_.error and call_.answer != truth:
                    op.rejected = call_.rejected = True
                    problems.append(f"diag ({n},{m}): {route} {call_.answer} != naive {truth}")
    return problems


# ---------------------------------------------------------------------------
# ham: the link tier on every grid, brute force on small ones, witnesses


def prep_ham(lib, inp: Inputs) -> list[bool]:
    """Which grids also get the brute sweep; decided before the timed section."""
    cap = lib.hamiltonicity.BRUTE_DIAGONAL_CAP
    out = []
    for n, m in inp.pairs:
        diagonals = lib.counting.diag_count_tree(n, m)
        out.append(diagonals <= cap and (1 << diagonals) * 4 * n * m <= HAM_BRUTE_BUDGET)
    return out


def run_ham(lib, inp: Inputs, brute_flags: list[bool]) -> list[Op]:
    fast = lib.hamiltonicity.is_hamiltonian_fast
    brute = lib.hamiltonicity.is_hamiltonian_brute
    witness = lib.hamiltonicity.hamiltonian_witness
    ops = []
    hamiltonian = 0
    for (n, m), with_brute in zip(inp.pairs, brute_flags):
        op = call("fast", fast, n, m)
        ops.append(op)
        if with_brute:
            ops.append(call("brute", brute, n, m))
        if op.answer is True:
            hamiltonian += 1
            if hamiltonian % HAM_WITNESS_EVERY == 0:
                ops.append(call("witness", witness, n, m))
    return ops


def check_ham(lib, inp: Inputs, ops: list[Op]) -> list[str]:
    problems = []
    grid_params = lib.surface.GridParams
    inconsistency = lib.errors.InconsistencyError
    fast_answer = {}

    def valid(n, m, witness) -> bool:
        try:
            lib.hamiltonicity.validate_witness(grid_params(n, m), witness)
        except inconsistency:
            return False
        return True

    for op in ops:
        if op.error:
            continue
        n, m = op.args
        if op.name == "fast":
            fast_answer[(n, m)] = op
            if n > 1 and m > 1 and op.answer and lib.counting.diag_count_tree(n, m) == 1:
                op.rejected = True
                problems.append(f"ham ({n},{m}): single-diagonal grid called Hamiltonian")
        elif op.name == "brute":
            verdict, witness = op.answer
            fast = fast_answer[(n, m)]
            if not fast.error and fast.answer != verdict:
                op.rejected = fast.rejected = True
                problems.append(f"ham ({n},{m}): link tier {fast.answer} != brute {verdict}")
            if verdict and not valid(n, m, witness):
                op.rejected = True
                problems.append(f"ham ({n},{m}): brute witness does not validate")
        elif op.answer is None or not valid(n, m, op.answer):
            op.rejected = True
            problems.append(f"ham ({n},{m}): link-tier witness missing or invalid")
    return problems


@dataclass(frozen=True)
class Workload:
    run: Callable
    check: Callable
    # Items per answered op: pairs surveyed for census and table, 1 otherwise.
    items: Callable | None = None
    prep: Callable | None = None


SPECS = {
    "census": Workload(run_census, check_census, census_items),
    "table": Workload(run_table, check_table, table_items),
    "diag": Workload(run_diag, check_diag),
    "ham": Workload(run_ham, check_ham, prep=prep_ham),
}

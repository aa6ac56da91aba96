"""Deciding Hamiltonicity of the folded grid.

Orienting every cell of a diagonal the same way (all up or all right)
is forced in any Hamiltonian cycle, so Hamiltonicity reduces to finding
an orientation string whose permutation graph is a single cycle.  Three
tiers implement this:

* brute force over all orientation strings (the reference tier);
* the link tier, which enumerates only per-group up-counts and tests
  whether the induced boundary link is a knot;
* closed-form constructions for square grids and for height-2 grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .counting import diag_count_tree
from .diagonals import DiagonalDecomposition, decompose
from .errors import CapExceededError, InconsistencyError
from .links import Link, is_knot
from .surface import (
    RIGHT,
    UP,
    Cell,
    GridParams,
    check_sizes,
    diag_successor,
    right_indices,
    step,
    up_indices,
)

BRUTE_DIAGONAL_CAP = 24
_PYTHON_SWEEP_LIMIT = 2_000_000
_CHUNK = 4096


@dataclass
class HamWitness:
    """An orientation string plus the single cycle it generates."""

    orientation: str
    cycle: list[Cell]


# Callers reuse a decomposition only while they work on one grid (brute
# sweep, witness, tracing), so a small bound keeps the hits and drops the
# expanded cell tuples of grids already answered.
@lru_cache(maxsize=64)
def _dec(n: int, m: int) -> DiagonalDecomposition:
    return decompose(GridParams(n, m))


def _cell_directions(dec: DiagonalDecomposition, omega: str) -> list[str]:
    """Flat per-cell direction table for an orientation string."""
    if len(omega) != len(dec.diagonals):
        raise ValueError(
            f"orientation string length {len(omega)} != {len(dec.diagonals)} diagonals"
        )
    grid = dec.grid
    table = [""] * grid.size
    for diag, direction in zip(dec.diagonals, omega):
        if direction not in "UR":
            raise ValueError(f"orientation characters must be U or R, got {direction!r}")
        for row, col in diag.cells:
            table[row * grid.cols + col] = direction
    return table


def _oriented_successors(dec: DiagonalDecomposition, omega: str) -> list[int]:
    grid = dec.grid
    su = up_indices(grid).tolist()
    sr = right_indices(grid).tolist()
    dirs = _cell_directions(dec, omega)
    return [su[i] if dirs[i] == "U" else sr[i] for i in range(grid.size)]


def trace_components(grid: GridParams, omega: str) -> list[list[Cell]]:
    """Cycles of the permutation graph induced by an orientation string."""
    dec = _dec(grid.n, grid.m)
    succ = _oriented_successors(dec, omega)
    cols = grid.cols
    seen = bytearray(grid.size)
    cycles = []
    for start in range(grid.size):
        if seen[start]:
            continue
        cycle = []
        i = start
        while not seen[i]:
            seen[i] = 1
            cycle.append(divmod(i, cols))
            i = succ[i]
        if i != start:
            raise InconsistencyError("oriented edges do not form a permutation")
        cycles.append(cycle)
    return cycles


def up_cell_count(dec: DiagonalDecomposition, omega: str) -> int:
    """Cells on up-oriented diagonals, summed over runs without expanding cells."""
    return sum(
        length
        for diag, ch in zip(dec.diagonals, omega)
        if ch == "U"
        for _, _, length in diag.runs
    )


def orientation_k(dec: DiagonalDecomposition, omega: str) -> int:
    """The integer k with k*m*n up-oriented cells (coprime sizes only)."""
    grid = dec.grid
    ups = up_cell_count(dec, omega)
    k, rem = divmod(ups, grid.m * grid.n)
    if rem:
        raise InconsistencyError(
            f"up-cell count {ups} of grid ({grid.n},{grid.m}) is not a multiple of mn"
        )
    return k


def _witness_from_omega(dec: DiagonalDecomposition, omega: str) -> HamWitness:
    succ = _oriented_successors(dec, omega)
    cols = dec.grid.cols
    cycle = []
    i = 0
    while True:
        cycle.append(divmod(i, cols))
        i = succ[i]
        if i == 0:
            break
    if len(cycle) != dec.grid.size:
        raise InconsistencyError("claimed witness does not cover the grid")
    return HamWitness("".join(omega), cycle)


def _brute_python(dec: DiagonalDecomposition) -> str | None:
    grid = dec.grid
    size = grid.size
    su = up_indices(grid).tolist()
    sr = right_indices(grid).tolist()
    member_ids = [
        [row * grid.cols + col for row, col in diag.cells] for diag in dec.diagonals
    ]
    for omega in product("UR", repeat=len(dec.diagonals)):
        succ = [0] * size
        for diag_cells, ch in zip(member_ids, omega):
            table = su if ch == "U" else sr
            for i in diag_cells:
                succ[i] = table[i]
        length = 0
        i = 0
        while True:
            i = succ[i]
            length += 1
            if i == 0:
                break
        if length == size:
            return "".join(omega)
    return None


def _brute_vectorized(dec: DiagonalDecomposition) -> str | None:
    """Sweep all orientation masks in lexicographic batches.

    Bit c-1-j of a mask orients diagonal j (0 = up, 1 = right), so
    ascending masks match ascending orientation strings with U < R.
    The walk from cell 0 returns after exactly `size` steps only for
    Hamiltonian orientations.
    """
    grid = dec.grid
    size = grid.size
    c = len(dec.diagonals)
    su = up_indices(grid).astype(np.int32)
    sr = right_indices(grid).astype(np.int32)
    diag_id = np.zeros(size, dtype=np.int64)
    for diag in dec.diagonals:
        for row, col in diag.cells:
            diag_id[row * grid.cols + col] = diag.id
    shifts = (c - 1 - diag_id)[None, :]
    for lo in range(0, 1 << c, _CHUNK):
        masks = np.arange(lo, min(lo + _CHUNK, 1 << c), dtype=np.int64)
        bits = (masks[:, None] >> shifts) & 1
        succ = np.where(bits == 1, sr[None, :], su[None, :])
        k = len(masks)
        rows = np.arange(k)
        pos = np.zeros(k, dtype=np.int32)
        ret = np.zeros(k, dtype=np.int32)
        for step_no in range(1, size + 1):
            pos = succ[rows, pos]
            hit = (pos == 0) & (ret == 0)
            if hit.any():
                ret[hit] = step_no
        winners = np.nonzero(ret == size)[0]
        if winners.size:
            mask = int(masks[winners[0]])
            return "".join("R" if (mask >> (c - 1 - j)) & 1 else "U" for j in range(c))
    return None


def is_hamiltonian_brute(n: int, m: int) -> tuple[bool, HamWitness | None]:
    """Try every orientation string; return the first witness found.

    Orientation strings are enumerated lexicographically with U < R.
    Grids with more diagonals than the cap are refused; use
    is_hamiltonian_fast for those.
    """
    dec = _dec(n, m)
    c = len(dec.diagonals)
    if c > BRUTE_DIAGONAL_CAP:
        raise CapExceededError(
            f"grid ({n},{m}) has {c} diagonals; brute force capped at "
            f"{BRUTE_DIAGONAL_CAP} -- use is_hamiltonian_fast"
        )
    if (1 << c) * dec.grid.size <= _PYTHON_SWEEP_LIMIT:
        omega = _brute_python(dec)
    else:
        omega = _brute_vectorized(dec)
    if omega is None:
        return False, None
    return True, _witness_from_omega(dec, omega)


def group_profiles(dec: DiagonalDecomposition):
    """(size, shared profile) per profile group, in group order."""
    out = []
    for group in dec.groups:
        out.append((len(group), dec.diagonals[group[0]].profile))
    return out


def grouped_link(dec: DiagonalDecomposition, up_counts) -> Link:
    """Link induced by orienting `up_counts[k]` members of group k up."""
    if len(up_counts) != len(dec.groups):
        raise ValueError("one up-count per profile group required")
    a = b = c = d = 0
    for (size, prof), ups in zip(group_profiles(dec), up_counts):
        if not 0 <= ups <= size:
            raise ValueError(f"up-count {ups} outside group of size {size}")
        rights = size - ups
        a += ups * prof.cnt_a
        b += ups * prof.cnt_b
        c += rights * prof.cnt_c
        d += rights * prof.cnt_d
    return Link(a, b, c, d)


def expand_grouped(dec: DiagonalDecomposition, up_counts) -> str:
    """One orientation string realising the given per-group up-counts."""
    chars = ["R"] * len(dec.diagonals)
    for group, ups in zip(dec.groups, up_counts):
        for diag_id in group[:ups]:
            chars[diag_id] = "U"
    return "".join(chars)


def _first_knot(dec: DiagonalDecomposition):
    """First per-group up-counts, in lexicographic order, inducing a knot.

    None when no link is a knot.  Reads only the groups' profiles.
    """
    if len(dec.groups) > 4:
        raise InconsistencyError(
            f"grid ({dec.grid.n},{dec.grid.m}) produced {len(dec.groups)} profile groups, "
            "expected <= 4"
        )
    for counts in product(*(range(len(group) + 1) for group in dec.groups)):
        if is_knot(grouped_link(dec, counts)):
            return counts
    return None


def is_hamiltonian_fast(n: int, m: int) -> bool:
    """Knot test over per-group up-counts; at most (g+1)^4 links.

    The decomposition is not cached and no cell is materialised: one
    O(n + m) run walk, then one O(n + m) loop count per link tried.
    """
    return _first_knot(decompose(GridParams(n, m))) is not None


def hamiltonian_witness(n: int, m: int) -> HamWitness | None:
    """A validated witness from the link tier, without a full sweep."""
    dec = _dec(n, m)
    counts = _first_knot(dec)
    if counts is None:
        return None
    return _witness_from_omega(dec, expand_grouped(dec, counts))


def validate_witness(grid: GridParams, witness: HamWitness) -> None:
    """Check a witness is a Hamiltonian cycle matching its orientation."""
    cycle = witness.cycle
    if len(cycle) != grid.size:
        raise InconsistencyError(
            f"witness covers {len(cycle)} cells, expected {grid.size}"
        )
    if len(set(cycle)) != grid.size:
        raise InconsistencyError("witness repeats a cell")
    dec = _dec(grid.n, grid.m)
    dirs = _cell_directions(dec, witness.orientation)
    for idx, cell in enumerate(cycle):
        move = dirs[cell[0] * grid.cols + cell[1]]
        expected = step(grid, cell, move)
        if cycle[(idx + 1) % len(cycle)] != expected:
            raise InconsistencyError(f"witness breaks at {cell}")


# ---------------------------------------------------------------------------
# Square grids


def _square_cycle(n: int, start_row: int) -> list[Cell] | None:
    """Walk 4n-1 rights then one up, n times; None unless it closes."""
    grid = GridParams(n, n)
    pos: Cell = (start_row, 0)
    cycle = [pos]
    for _ in range(n):
        for _ in range(4 * n - 1):
            pos = step(grid, pos, RIGHT)
            cycle.append(pos)
        pos = step(grid, pos, UP)
        cycle.append(pos)
    if cycle[-1] != cycle[0]:
        return None
    cycle.pop()
    if len(set(cycle)) != grid.size:
        return None
    return cycle


def square_construction(n: int) -> HamWitness:
    """Closed-form Hamiltonian cycle of the (n, n) grid."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    # The walk starts at row n, counted from the top; the tests show row
    # n - 1 does not close.
    cycle = _square_cycle(n, n)
    if cycle is None:
        raise InconsistencyError(f"square walk failed to close on the ({n},{n}) grid")
    grid = GridParams(n, n)
    dec = _dec(n, n)
    # Direction used out of each cell; must be constant per diagonal.
    direction = {}
    for idx, cell in enumerate(cycle):
        nxt = cycle[(idx + 1) % len(cycle)]
        direction[cell] = "U" if nxt == step(grid, cell, UP) else "R"
    chars = []
    for diag in dec.diagonals:
        dirs = {direction[cell] for cell in diag.cells}
        if len(dirs) != 1:
            raise InconsistencyError(
                f"square walk is not diagonal-constant on the ({n},{n}) grid"
            )
        chars.append(dirs.pop())
    witness = HamWitness("".join(chars), cycle)
    validate_witness(grid, witness)
    return witness


# ---------------------------------------------------------------------------
# Height-2 grids


# Residue patterns of row - col (stacked coordinates) oriented right.
# The width-7 set is pinned by exhaustive search: among all 256 residue
# subsets it is the only one tracing a single cycle at widths 7 and 15.
_N2_RIGHT_RULES = {
    0: lambda d: d % 2 == 1,
    1: lambda d: d % 8 in (1, 2, 6, 7),
    2: lambda d: d % 8 == 3,
    4: lambda d: d % 8 == 0,
    6: lambda d: d % 8 == 1,
    7: lambda d: d % 8 in (3, 4, 6, 7),
}


# Stacked 8 x m layout: the right quadrant column goes directly below the
# left one.  The tests show the rules fail when its rows are rotated.
def _n2_stacked(rho: int, col: int, m: int) -> Cell:
    return (rho, col) if rho < 4 else (rho - 4, col + m)


def _n2_omega_for(m: int, layout) -> str | None:
    """Orientation induced by the residue rule under one stacked layout.

    None when the rule is not diagonal-constant or not Hamiltonian
    under this layout.
    """
    rule = _N2_RIGHT_RULES[m % 8]
    table = {}
    for rho in range(8):
        for col in range(m):
            cell = layout(rho, col, m)
            table[cell] = "R" if rule(rho - col) else "U"
    dec = _dec(2, m)
    chars = []
    for diag in dec.diagonals:
        dirs = {table[cell] for cell in diag.cells}
        if len(dirs) != 1:
            return None
        chars.append(dirs.pop())
    omega = "".join(chars)
    cycles = trace_components(dec.grid, omega)
    if len(cycles) != 1:
        return None
    return omega


def n2_orientation(m: int) -> str:
    """Hamiltonian orientation of the (2, m) grid from the residue rules."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if m % 8 in (3, 5):
        raise ValueError(f"no Hamiltonian orientation exists for width {m} (mod 8 in 3,5)")
    omega = _n2_omega_for(m, _n2_stacked)
    if omega is None:
        raise InconsistencyError(f"height-2 rule failed to validate at width {m}")
    return omega


def segment_successor(m: int, d: int) -> int:
    """Successor index of the height-2 grid's diagonal segments.

    Segments of the 4 x 2m grid are indexed by column minus row.  The
    generic step adds m + 4 modulo 2m; the four segments meeting the
    wrap corner behave specially.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    if not -3 <= d <= 2 * m - 1:
        raise ValueError(f"segment index {d} outside [-3, {2 * m - 1}]")
    if d == 2 * m - 4:
        return -2
    if d == 2 * m - 3:
        return -1
    if d == 2 * m - 2:
        return m
    if d == 2 * m - 1:
        return -3
    return (d + m + 4) % (2 * m)


def segment_successor_from_grid(m: int, d: int) -> int:
    """Same map, read off the grid: step from the last cell of a segment."""
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    if not -3 <= d <= 2 * m - 1:
        raise ValueError(f"segment index {d} outside [-3, {2 * m - 1}]")
    grid = GridParams(2, m)
    row = min(3, 2 * m - 1 - d)
    nxt = diag_successor(grid, (row, row + d))
    return nxt[1] - nxt[0]


# ---------------------------------------------------------------------------
# Single-diagonal grids


@dataclass
class OneDiagonalReport:
    n: int
    m: int
    diagonal_count: int
    applicable: bool
    base_not_hamiltonian: bool | None = None
    doubled_hamiltonian: bool | None = None
    doubled_link: Link | None = None
    doubled_link_is_knot: bool | None = None


def one_diagonal_checks(n: int, m: int) -> OneDiagonalReport:
    """Consequences of a grid having a single diagonal.

    Such a grid is never Hamiltonian (for sizes above 1), but doubling
    both sides always gives a Hamiltonian grid whose two diagonals
    induce the knot (m, m, n, n).
    """
    count = diag_count_tree(n, m)
    if count != 1:
        return OneDiagonalReport(n, m, count, applicable=False)
    report = OneDiagonalReport(n, m, count, applicable=True)
    if n > 1 and m > 1:
        report.base_not_hamiltonian = not is_hamiltonian_fast(n, m)
        if not report.base_not_hamiltonian:
            raise InconsistencyError(
                f"single-diagonal grid ({n},{m}) claimed Hamiltonian"
            )
    report.doubled_hamiltonian = is_hamiltonian_fast(2 * n, 2 * m)
    report.doubled_link = Link(m, m, n, n)
    report.doubled_link_is_knot = is_knot(report.doubled_link)
    if not (report.doubled_hamiltonian and report.doubled_link_is_knot):
        raise InconsistencyError(
            f"doubling single-diagonal grid ({n},{m}) did not give a Hamiltonian grid"
        )
    return report


# ---------------------------------------------------------------------------
# Periodicity and the one-holed torus


def periodicity_check(n: int, m: int) -> bool:
    """Does adding 12n columns preserve Hamiltonicity?  Expected always.

    Only the coprime case is implemented.  For gcd g > 1 a period also
    exists, but it is 4*(4g)!*n: already at g = 2 that is far beyond
    any feasible computation, so no operation exposes it.
    """
    if math.gcd(n, m) != 1:
        raise ValueError(f"periodicity check needs coprime sizes, got ({n}, {m})")
    return is_hamiltonian_fast(n, m) == is_hamiltonian_fast(n, m + 12 * n)


def ham_torus1(n: int, m: int) -> bool:
    """Hamiltonicity of the ordinary directed torus grid.

    True exactly when gcd(n, m) splits as g1 + g2 with g1 coprime to n
    and g2 coprime to m, both positive.
    """
    n, m = check_sizes(n, m)
    g = math.gcd(n, m)
    return any(
        math.gcd(g1, n) == 1 and math.gcd(g - g1, m) == 1 for g1 in range(1, g)
    )


def torus1_components(n: int, m: int, orientation: str) -> int:
    """Cycle count of an oriented ordinary torus, one direction per diagonal.

    Torus diagonals are the residues of column minus row mod gcd(n, m).
    """
    g = math.gcd(n, m)
    if len(orientation) != g:
        raise ValueError(f"need one direction per torus diagonal ({g})")
    seen = bytearray(n * m)
    cycles = 0
    for start in range(n * m):
        if seen[start]:
            continue
        cycles += 1
        i = start
        while not seen[i]:
            seen[i] = 1
            r, c = divmod(i, m)
            if orientation[(c - r) % g] == "U":
                r = (r - 1) % n
            else:
                c = (c + 1) % m
            i = r * m + c
    return cycles

"""Deciding Hamiltonicity of the folded grid.

Orienting every cell of a diagonal the same way (all up or all right)
is forced in any Hamiltonian cycle, so Hamiltonicity reduces to finding
an orientation string whose permutation graph is a single cycle.  Three
tiers implement this:

* brute force over all orientation strings (the reference tier);
* the link tier, which enumerates only per-group up-counts and tests
  whether the induced boundary link is a knot;
* closed-form constructions for square grids and for height-2 grids.

Everything here reads the runs of `decompose` and expands no cell.  A
run (r, c, L) covers the flat indices r*cols + c + j*(cols + 1), j < L,
so one strided slice per run fills the per-cell diagonal-id table and
the brute sweep's successor table.  A run is also a whole line
col - row = d of the rectangle, which lets witnesses walk line by line:
O(n + m) Python steps per cycle, with every cell written by numpy.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .counting import diag_count_tree
from .diagonals import DiagonalDecomposition, decompose, diagonal_ids, line_ids, run_slice
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


@dataclass
class HamWitness:
    """An orientation string plus the single cycle it generates."""

    orientation: str
    cycle: list[Cell]


# Callers reuse a decomposition only while they work on one grid (brute
# sweep, witness, tracing), so a small bound keeps the hits and drops the
# decompositions of grids already answered.
@lru_cache(maxsize=64)
def _dec(n: int, m: int) -> DiagonalDecomposition:
    return decompose(GridParams(n, m))


def _omega_up(dec: DiagonalDecomposition, omega: str) -> np.ndarray:
    """Per diagonal, whether the orientation string orients it up."""
    if len(omega) != len(dec.diagonals):
        raise ValueError(
            f"orientation string length {len(omega)} != {len(dec.diagonals)} diagonals"
        )
    for direction in omega:
        if direction not in ("U", "R"):
            raise ValueError(f"orientation characters must be U or R, got {direction!r}")
    return np.array([direction == "U" for direction in omega], dtype=bool)


def _cell_up(dec: DiagonalDecomposition, omega: str) -> np.ndarray:
    """Per flat cell index, whether its diagonal is oriented up."""
    return _omega_up(dec, omega)[diagonal_ids(dec)]


def _walk_from_zero(dec: DiagonalDecomposition, omega: str) -> np.ndarray:
    """Flat indices of the oriented cycle through cell 0, in walk order.

    The cells with col - row = d form one run, so one direction serves
    the whole line d, and both moves lead from line d to line d + 1: up
    lowers the row by one, right keeps it.  Between wraps the walk thus
    crosses consecutive lines, its row on each found by a prefix count
    of up lines.  From (r, c) it wraps at the r-th up line or the
    (cols - 1 - c)-th right line ahead, whichever comes first, so each
    stretch takes two bisections.  A stretch ends on a distinct top-row
    or last-column cell, so a cycle has at most rows + cols stretches;
    their cells are filled in one numpy pass at the end.
    """
    grid = dec.grid
    rows, cols = grid.rows, grid.cols
    off = rows - 1  # line d sits at index d + off; cell 0 is on line index off
    line_up = _omega_up(dec, omega)[line_ids(dec)]
    lines = len(line_up)
    ups = np.concatenate(([0], np.cumsum(line_up)))  # up lines below each index
    ups_at = ups.tolist()
    up_lines = np.flatnonzero(line_up).tolist()
    right_lines = np.flatnonzero(~line_up).tolist()
    firsts, lengths, shifts = [], [], []
    r = c = 0
    for k in range(rows + cols):
        x0 = c - r + off
        i = bisect_left(up_lines, x0) + r
        j = bisect_left(right_lines, x0) + cols - 1 - c
        x_up = up_lines[i] if i < len(up_lines) else lines
        x_right = right_lines[j] if j < len(right_lines) else lines
        x1 = min(x_up, x_right)
        if x1 == lines:
            raise InconsistencyError("oriented walk leaves the grid")
        closes = k > 0 and x0 <= off <= x1 and r == ups_at[off] - ups_at[x0]
        if closes:
            x1 = off - 1
        # the row on line x of this stretch is r - (ups[x] - ups[x0])
        firsts.append(x0)
        lengths.append(x1 + 1 - x0)
        shifts.append(r + ups_at[x0])
        if closes:
            break
        r -= ups_at[x1] - ups_at[x0]
        c = r + x1 - off
        if x_up < x_right:
            r, c = rows - 1, (c + grid.m) % cols
        else:
            r, c = (r + grid.n) % rows, 0
    else:
        raise InconsistencyError("oriented walk from cell 0 does not return")
    lengths = np.array(lengths)
    before = np.cumsum(lengths) - lengths
    x = np.arange(lengths.sum()) + np.repeat(np.array(firsts) - before, lengths)
    row = np.repeat(shifts, lengths) - ups[x]
    return row * (cols + 1) + x - off


def _diagonal_constant(dec: DiagonalDecomposition, up: np.ndarray) -> str | None:
    """The orientation string of a per-cell up table; None unless constant per diagonal."""
    ids = diagonal_ids(dec)
    count = len(dec.diagonals)
    ups = np.bincount(ids[up], minlength=count)
    if ((ups != 0) & (ups != np.bincount(ids, minlength=count))).any():
        return None
    return "".join("U" if k else "R" for k in ups.tolist())


def _flat_to_cells(grid: GridParams, flat) -> list[Cell]:
    """Cells by flat index, taken from one row-major array of tuples."""
    cells = product(range(grid.rows), range(grid.cols))
    return np.fromiter(cells, dtype=object, count=grid.size)[flat].tolist()


def trace_components(grid: GridParams, omega: str) -> list[list[Cell]]:
    """Cycles of the permutation graph induced by an orientation string."""
    up = _cell_up(_dec(grid.n, grid.m), omega)
    succ = np.where(up, up_indices(grid), right_indices(grid)).tolist()
    seen = bytearray(grid.size)
    order = []
    ends = []
    for start in range(grid.size):
        if seen[start]:
            continue
        i = start
        while not seen[i]:
            seen[i] = 1
            order.append(i)
            i = succ[i]
        if i != start:
            raise InconsistencyError("oriented edges do not form a permutation")
        ends.append(len(order))
    cells = _flat_to_cells(grid, order)
    return [cells[lo:hi] for lo, hi in zip([0, *ends], ends)]


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
    grid = dec.grid
    cycle = _walk_from_zero(dec, omega)
    if len(cycle) != grid.size:
        raise InconsistencyError("claimed witness does not cover the grid")
    return HamWitness("".join(omega), _flat_to_cells(grid, cycle))


def _brute_sweep(dec: DiagonalDecomposition) -> str | None:
    """First orientation string, U < R, whose walk from cell 0 covers the grid.

    This walk goes cell by cell, independently of the line walk that
    builds the witness, so every brute witness checks one against the
    other.  Between strings only the diagonals whose direction changed
    are rewritten, one run slice at a time.  A numpy sweep over batches
    of strings lost to this walk on every benchmark brute grid
    (2^c * 4nm <= 1e5) and on every n <= m <= 10, so there is no other.
    """
    grid = dec.grid
    size = grid.size
    su = up_indices(grid).tolist()
    sr = right_indices(grid).tolist()
    slices = [[run_slice(grid, run) for run in diag.runs] for diag in dec.diagonals]
    succ = [0] * size
    prev = ("",) * len(slices)
    for omega in product("UR", repeat=len(slices)):
        for diag_slices, ch, old in zip(slices, omega, prev):
            if ch != old:
                table = su if ch == "U" else sr
                for sl in diag_slices:
                    succ[sl] = table[sl]
        prev = omega
        i = 0
        for length in range(1, size + 1):
            i = succ[i]
            if i == 0:
                break
        if i != 0:
            raise InconsistencyError("oriented edges do not form a permutation")
        if length == size:
            return "".join(omega)
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
    omega = _brute_sweep(dec)
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
    up = _cell_up(_dec(grid.n, grid.m), witness.orientation).tolist()
    for idx, cell in enumerate(cycle):
        move = UP if up[cell[0] * grid.cols + cell[1]] else RIGHT
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
    # Direction used out of each cell; must be constant per diagonal.
    flat = np.array(cycle, dtype=np.intp) @ np.array([grid.cols, 1])
    up = np.empty(grid.size, dtype=bool)
    up[flat] = np.roll(flat, -1) == up_indices(grid)[flat]
    omega = _diagonal_constant(_dec(n, n), up)
    if omega is None:
        raise InconsistencyError(
            f"square walk is not diagonal-constant on the ({n},{n}) grid"
        )
    witness = HamWitness(omega, cycle)
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
    dec = _dec(2, m)
    cols = dec.grid.cols
    up = np.empty(dec.grid.size, dtype=bool)
    for rho in range(8):
        for col in range(m):
            row, c = layout(rho, col, m)
            up[row * cols + c] = not rule(rho - col)
    omega = _diagonal_constant(dec, up)
    if omega is None:
        return None
    if len(_walk_from_zero(dec, omega)) != dec.grid.size:
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

"""Deciding Hamiltonicity of the folded grid.

Orienting every cell of a diagonal the same way (all up or all right)
is forced in any Hamiltonian cycle, so Hamiltonicity reduces to finding
an orientation string whose permutation graph is a single cycle.  Three
tiers implement this:

* brute force over the orientation strings (the reference tier);
* the link tier, which enumerates only per-group up-counts and tests
  whether the induced boundary link is a knot;
* closed-form constructions for square grids and for height-2 grids.

The link tier walks no run: `decompose` finds the profile groups as
the loops of the link (m, m, n, n) and `loop_count` counts each
candidate link's loops, both by Rauzy induction in O(log(n + m))
steps; the run walk checks the groups when its line table is read.
Everything else but the brute sweep reads the run walk of `decompose`
and expands no cell.  Each whole line col - row = d of the rectangle
lies on one diagonal, so the per-cell diagonal-id table is one numpy gather
from the decomposition's line table.  Every oriented cycle is walked by
one primitive, `_stretch_walk`: one stretch between wraps at a time,
O(1) Python steps each, over three O(n + m) tables per orientation (the
prefix counts of up lines and the positions of up and right lines), at
most max(2n, 2m) stretches whatever the 4nm cells.  It counts the
cycle's cells and records each stretch's first line and row shift, and
numpy turns those into a `StretchPath` with each stretch's length.  The
brute sweep, the height-2 rule, witnesses and `trace_components` all
call it.  A witness keeps the path of the walk from cell 0, which must
cover 4nm cells; numpy writes the cells only when `HamWitness.cycle` is
read.  A cycle is an array of flat cell indices r*cols + c in cycle
order, and divmod(i, cols) gives the cell (r, c).  Past CELL_CAP cells,
reading a cycle or asking for its batches, tracing, the height-2 rule
and the brute sweep raise CapExceededError; finding a witness, the
square construction's included, does not.  The brute sweep, the
reference tier, runs its own `walk_diagonals`, with no induction, and
gathers each orientation string's per-line flags from that walk's line
table: O(n + m) time and memory per string, no per-cell table.  It
skips the all-U string when m > 1 and the all-R one when n > 1, since
by `surface.step`'s wrap rule their cycles have 4n and 4m cells.  Its
witness is the found string's walk.  Two checks share no code with the
walk: `validate_stretches`, by its own prefix counts and `surface.step`,
and `validate_witness`, by the per-cell up and right tables.

The ordinary one-holed torus walks nothing either: `ham_torus1` is
Trotter and Erdős's splitting criterion, and `torus1_components` counts
an oriented torus's cycles by its first-return law, which reads only
the number of up diagonals, in three gcds and one lcm.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import accumulate, islice, product

import numpy as np

from .diagonals import DiagonalDecomposition, decompose, diagonal_ids, walk_diagonals
from .errors import CapExceededError, InconsistencyError, check_int
from .links import group_link, is_knot
from .surface import (
    RIGHT,
    UP,
    Cell,
    GridParams,
    check_sizes,
    diag_successor,
    orientation_ups,
    right_indices,
    right_power,
    step,
    up_indices,
)

BRUTE_DIAGONAL_CAP = 24
# On 64-bit Python 3.11 at (1000, 1001), 4,004,000 cells: reading a witness's `cycle`
# peaks at 123 MB RSS, about 23 B per cell above the interpreter's 30 MB, so the routes
# that expand every cell stop near 1 GB.  `ham N M --witness` writes a path's cells in
# batches and peaks at 39 MB there.  The brute sweep holds O(n + m) (`ham 1000 1001
# --method brute` peaks at 32 MB), so for it the cap bounds time: its walk takes about
# 0.3 us per stretch, at most 2 max(n, m) stretches per orientation string, so about
# 3 ms per string on a square grid at the cap and, extrapolated from (1, 500001), up to
# 2.5 s on a (1, m) one, where a stretch averages under 3 cells.  A grid with d
# diagonals and both sides above 1 costs 2^d - 2 strings, since the sweep skips the two
# constant ones, so a single diagonal costs only the run walk.  The walk that finds a
# witness records its stretches, O(n + m) more, and builds no second table.
CELL_CAP = 2 * 10**7
BATCH_CELLS = 1 << 16  # cells per `StretchPath.batches` batch, rounded to whole stretches


class StretchPath:
    """A cycle as its stretches between wraps, O(n + m) numbers for 4nm cells.

    Stretch i covers the lines first[i] .. first[i] + length[i] - 1 of the
    grid, one cell each: on line x = col - row + rows - 1 its row is
    shift[i] - ups[x], ups the prefix counts of up lines (ups[0] = 0), and
    its column x - (rows - 1) + row.  Every stretch starts on a landing
    cell and ends at a wrap, but a walk that starts inside a stretch, as
    cell 0 entered from (1, 0) on (3, 7), ends on that stretch's piece
    before the start.  The stretch lengths sum to the cycle's length.
    """

    __slots__ = ("grid", "ups", "first", "length", "shift")

    def __init__(self, grid: GridParams, ups: np.ndarray, first: np.ndarray, length: np.ndarray,
                 shift: np.ndarray):
        self.grid, self.ups, self.first, self.length, self.shift = grid, ups, first, length, shift

    @property
    def size(self) -> int:
        """Cells on the cycle: the stretch lengths summed, no cell expanded."""
        return int(self.length.sum())

    def cells(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Flat indices of stretches start .. stop - 1 in walk order; numpy writes every cell."""
        rows, cols = self.grid.rows, self.grid.cols
        first, length = self.first[start:stop], self.length[start:stop]
        before = np.cumsum(length) - length
        x = np.arange(length.sum()) + np.repeat(first - before, length)
        row = np.repeat(self.shift[start:stop], length) - self.ups[x]
        return row * (cols + 1) + x - (rows - 1)

    def batches(self):
        """The cycle's flat indices in walk order, whole stretches of about BATCH_CELLS at a time.

        CapExceededError past CELL_CAP, raised by the call, before any cell.
        """
        check_cell_cap(self.grid)
        ends = np.cumsum(self.length)
        cuts = np.searchsorted(ends, np.arange(BATCH_CELLS, ends[-1], BATCH_CELLS)) + 1
        bounds = np.unique([0, *cuts.tolist(), len(ends)]).tolist()
        return (self.cells(lo, hi) for lo, hi in zip(bounds, bounds[1:]))


class HamWitness:
    """An orientation string plus the single cycle it generates.

    `path` is the cycle as a `StretchPath`, O(n + m), and None for a
    witness built from its cells, HamWitness(orientation, cycle).  `cycle`
    holds flat indices i = r*cols + c (divmod(i, 2m) is (r, c)).  Expanded
    from the path on first read, it is a read-only np.intp array, and that
    read raises CapExceededError past CELL_CAP.  A witness built from its
    cells keeps `cycle` exactly as given, list or array, unchecked, so that
    `validate_witness` sees the raw input and can refuse it.
    """

    def __init__(self, orientation: str, cycle=None, *, path: StretchPath | None = None):
        if (cycle is None) == (path is None):
            raise ValueError("a witness takes its cycle or its stretch path")
        self.orientation = orientation
        self.path = path
        if cycle is not None:
            self.cycle = cycle

    def __repr__(self) -> str:
        form = f"{len(self.path.first)} stretches" if self.path is not None else "cells"
        return f"HamWitness({self.orientation!r}, {form})"

    @cached_property
    def cycle(self) -> np.ndarray:
        check_cell_cap(self.path.grid)
        return _read_only(self.path.cells())


def _read_only(flat: np.ndarray) -> np.ndarray:
    """A cycle as callers get it: np.intp, and safe to share."""
    flat = flat.astype(np.intp, copy=False)
    flat.flags.writeable = False
    return flat


def _walk_tables(grid: GridParams, up: np.ndarray) -> tuple:
    """`_stretch_walk`'s tables for the per-line flags `up`, O(n + m) numpy read as Python ints.

    The prefix counts of up lines (ups[0] = 0), then the indices of the
    up lines and of the right lines, each followed by rows or cols
    indices past the last line, which stand for a wrap the stretch does
    not reach.
    """
    ups = np.zeros(len(up) + 1, dtype=np.intp)
    up.cumsum(out=ups[1:])
    (up_at,) = np.concatenate((up, np.ones(grid.rows, dtype=bool))).nonzero()
    (right_at,) = np.concatenate((~up, np.ones(grid.cols, dtype=bool))).nonzero()
    return ups.data, up_at.data, right_at.data


def _stretch_walk(grid: GridParams, ups, up_at, right_at, r0: int = 0, c0: int = 0) -> tuple:
    """The oriented cycle through landing (r0, c0), one stretch between wraps at a time.

    The tables come from `_walk_tables`.  A stretch of shift s sits at row
    s - ups[x] on line x = col - row + rows - 1, and at column x - (rows -
    1) + row, so it reaches row 0 on up line up_at[s] and column cols - 1
    on right line right_at[rows + cols - 2 - s], and wraps at the earlier
    one by `surface.step`'s half shifts.  Every wrap lands on the last row
    or the first column.  The start is on line xs = c0 - r0 + rows - 1
    with shift s0 = r0 + ups[xs], and a stretch of shift s0 that starts
    on line xs or before runs into it.  So the walk is back once a wrap
    lands on such a stretch: at the start itself, or before it when the
    start is entered from a neighbour, as (0, 0) from (1, 0) on (3, 7).
    Only a line from min(rows, cols) - 1 on holds a cell that wraps, and
    at most one: on row 0 if the line is up, in the last column if it is
    right.  So a walk that returns takes at most max(rows, cols)
    stretches, O(1) each, whatever the cycle's length; InconsistencyError
    past them, which a permutation rules out.  Returns the cells on the
    cycle and, in walk order, each stretch's first line and shift, the
    last stretch the one that runs into the start.
    """
    n, m, rows, cols = grid.n, grid.m, grid.rows, grid.cols
    off, last = rows - 1, rows + cols - 2
    xs = c0 - r0 + off
    home = r0 + ups[xs]
    s, x, cells = home, xs, 0
    firsts, shifts = [x], [s]
    for _ in range(max(rows, cols)):
        a, b = up_at[s], right_at[last - s]
        if a < b:  # up from (0, a - off) to (rows - 1, a - off + m)
            cells += a + 1 - x
            x = a - off + m if a - off < m else a - off - m
            s = off + ups[x]
        else:  # right from (last - b, cols - 1) to (last - b + n, 0)
            cells += b + 1 - x
            r = last - b + n if last - b < n else last - b - n
            x = off - r
            s = r + ups[x]
        firsts.append(x)
        shifts.append(s)
        if s == home and x <= xs:
            return cells + xs - x, firsts, shifts
    raise InconsistencyError(f"oriented walk from {(r0, c0)} does not return in {grid.size} steps")


def _walk_path(grid: GridParams, tables: tuple, firsts: list, shifts: list) -> StretchPath:
    """A `_stretch_walk`'s recorded stretches as a `StretchPath`, in one numpy pass.

    A stretch of shift s ends on line min(up_at[s], right_at[rows + cols -
    2 - s]), where it wraps, but for the last, which runs into the start
    on the first stretch's first line and is cut before it, and dropped
    when that leaves it empty: the walk then closed at a wrap.
    """
    ups, up_at, right_at = (np.asarray(table) for table in tables)
    first, shift = np.array(firsts), np.array(shifts)
    length = np.minimum(up_at[shift], right_at[grid.rows + grid.cols - 2 - shift]) + 1 - first
    length[-1] = first[0] - first[-1]
    keep = len(first) - (length[-1] == 0)
    return StretchPath(grid, ups, first[:keep], length[:keep], shift[:keep])


def _diagonal_constant(dec: DiagonalDecomposition, up: np.ndarray) -> str | None:
    """The orientation string of a per-cell up table; None unless constant per diagonal."""
    ids = diagonal_ids(dec)
    count = len(dec)
    ups = np.bincount(ids[up], minlength=count)
    if ((ups != 0) & (ups != np.bincount(ids, minlength=count))).any():
        return None
    return "".join("U" if k else "R" for k in ups.tolist())


def _refuse(grid: GridParams, count: int, what: str, route: str, cap: int) -> None:
    """CapExceededError, naming the link tier, when a capped route meets `count` > `cap`."""
    if count > cap:
        raise CapExceededError(f"grid ({grid.n},{grid.m}) has {count} {what}; {route} "
                               f"capped at {cap} -- use is_hamiltonian_fast")


def check_cell_cap(grid: GridParams) -> None:
    """CapExceededError past CELL_CAP cells, where every route that expands a cycle's cells stops."""
    _refuse(grid, grid.size, "cells", "cell expansion", CELL_CAP)


def trace_components(dec: DiagonalDecomposition, omega: str) -> list[np.ndarray]:
    """Cycles of the permutation graph induced by an orientation string.

    Each cycle is a read-only array of flat cell indices, as in
    `HamWitness.cycle`, starting at its smallest index, and the cycles
    come in the order of those indices.  Every cycle wraps, and every
    wrap lands on the bottom row or the first column, so stretch walks
    from those cells that no earlier walk covered, all over one set of
    `_walk_tables`, find every cycle once.
    """
    _refuse(dec.grid, dec.grid.size, "cells", "cycle tracing", CELL_CAP)
    grid, tables = dec.grid, _walk_tables(dec.grid, dec.line_ups(omega))
    rows, cols = grid.rows, grid.cols
    covered = np.zeros(grid.size, dtype=bool)
    cycles = []
    for r, c in [(rows - 1, col) for col in range(cols)] + [(row, 0) for row in range(rows - 1)]:
        if covered[r * cols + c]:
            continue
        _, firsts, shifts = _stretch_walk(grid, *tables, r, c)
        cycle = _walk_path(grid, tables, firsts, shifts).cells()
        if covered[cycle].any():
            raise InconsistencyError("oriented edges do not form a permutation")
        covered[cycle] = True
        cycles.append(_read_only(np.roll(cycle, -int(cycle.argmin()))))
    if not covered.all():
        raise InconsistencyError("oriented cycles leave cells uncovered")
    return sorted(cycles, key=lambda cycle: cycle[0])


def up_cell_count(dec: DiagonalDecomposition, omega: str) -> int:
    """Cells on up-oriented diagonals, summed over lines without expanding cells."""
    rows, cols = dec.grid.rows, dec.grid.cols
    d = np.arange(1 - rows, cols)  # line d starts at (max(-d, 0), max(d, 0))
    line_cells = np.minimum(rows - np.maximum(-d, 0), cols - np.maximum(d, 0))
    return int(line_cells[dec.line_ups(omega)].sum())


def orientation_k(dec: DiagonalDecomposition, omega: str) -> int:
    """The integer k with k*m*n up-oriented cells; ValueError unless the sizes are coprime."""
    grid = dec.grid
    if grid.g != 1:
        raise ValueError(f"orientation_k needs coprime sizes, got ({grid.n}, {grid.m})")
    ups = up_cell_count(dec, omega)
    k, rem = divmod(ups, grid.m * grid.n)
    if rem:
        raise InconsistencyError(
            f"up-cell count {ups} of grid ({grid.n},{grid.m}) is not a multiple of mn"
        )
    return k


def _witness_from_omega(grid: GridParams, omega: str, line_up: np.ndarray) -> HamWitness:
    """The witness of an orientation, given per line too: the stretch walk from cell 0.

    The walk must cover all 4nm cells.
    """
    tables = _walk_tables(grid, line_up)
    cells, firsts, shifts = _stretch_walk(grid, *tables)
    if cells != grid.size:
        raise InconsistencyError("claimed witness does not cover the grid")
    return HamWitness(omega, path=_walk_path(grid, tables, firsts, shifts))


def _brute_sweep(grid: GridParams, count: int, lines: np.ndarray) -> HamWitness | None:
    """The witness of the first orientation string, U < R, whose walk from cell 0 covers the grid.

    `lines` is the run walk's diagonal id per line, so one gather gives
    each string's flags per line.  `_stretch_walk` counts the cycle
    through cell 0 by stretches, and the witness is the stretches that
    walk recorded, with no second table or walk.  The walk shares no code
    with `validate_witness`'s index tables or `validate_stretches`' own
    prefix counts, so each checks a brute witness independently.  Each
    string costs O(n + m), whatever its cycle's length.  The two constant
    strings are skipped where `surface.step` rules them out: under all U
    a cell only moves up, each wrap m columns on, so its cycle has 4n
    cells, and under all R it only moves right, each wrap n rows on, so
    its cycle has 4m.  So the first string is swept only when m = 1, and
    the last only when n = 1.
    """
    strings = product((True, False), repeat=count)
    for flags in islice(strings, 1 if grid.m > 1 else 0, (1 << count) - (grid.n > 1)):
        tables = _walk_tables(grid, np.array(flags)[lines])
        cells, firsts, shifts = _stretch_walk(grid, *tables)
        if cells == grid.size:
            omega = "".join("U" if flag else "R" for flag in flags)
            return HamWitness(omega, path=_walk_path(grid, tables, firsts, shifts))
    return None


def is_hamiltonian_brute(n: int, m: int) -> tuple[bool, HamWitness | None]:
    """Try the orientation strings in order; return the first witness found.

    Orientation strings are enumerated lexicographically with U < R,
    but for the constant ones that `surface.step` rules out: all U when
    m > 1 and all R when n > 1 (see `_brute_sweep`).
    Grids past the cell cap, checked first, or the diagonal cap raise
    CapExceededError.  The line table comes from one run walk, with no
    induction, and the witness is the stretches of the sweep's own walk
    of the found string.
    """
    grid = GridParams(n, m)
    _refuse(grid, grid.size, "cells", "brute force", CELL_CAP)
    lines, profiles = walk_diagonals(grid)
    _refuse(grid, len(profiles), "diagonals", "brute force", BRUTE_DIAGONAL_CAP)
    witness = _brute_sweep(grid, len(profiles), lines)
    return witness is not None, witness


def expand_grouped(dec: DiagonalDecomposition, groups, up_counts) -> str:
    """One orientation string: up the `up_counts[k]` smallest ids of group k's profile."""
    chars = ["R"] * len(dec)
    for (_, prof), ups in zip(groups, up_counts):
        members = [i for i, diag_prof in enumerate(dec.profiles) if diag_prof == prof]
        for diag_id in members[:ups]:
            chars[diag_id] = "U"
    return "".join(chars)


def _first_knot(groups):
    """First per-group up-counts, in lexicographic order, inducing a knot.

    `groups` lists (size, profile) per profile group: by the group law
    of `induction_groups`, (g) or (a, b) with at most (g+1)(2g+1) links,
    so candidate i is (i,) or divmod(i, b + 1), in O(1) memory.  None
    when no link is a knot.  All right induces (0, 0, n, n), with n
    loops, and all up (m, m, 0, 0), with m loops; so each is tried only
    when its side is 1, which leaves the first knot unchanged.
    """
    n = m = 0
    total = 1
    for size, prof in groups:
        n += size * prof.cnt_c
        m += size * prof.cnt_a
        total *= size + 1
    start = 1 if n > 1 else 0
    stop = total - 1 if m > 1 else total
    for i in range(start, stop):
        counts = divmod(i, groups[1][0] + 1) if len(groups) == 2 else (i,)
        if is_knot(group_link(groups, counts)):
            return counts
    return None


def is_hamiltonian_fast(n: int, m: int) -> bool:
    """Knot test over per-group up-counts, never walking a run or a cell.

    The profile groups are the loops of the link (m, m, n, n), and each
    candidate link's loop count comes from the same induction,
    O(log(n + m)) steps each.  For n, m >= 2 there are prod(size + 1) - 2
    candidates: at most (g+1)(2g+1) - 2, g = gcd(n, m), since the group
    law checked in `induction_groups` allows only the shapes (g), (g, g)
    and (g, 2g).
    """
    return _first_knot(decompose(GridParams(n, m)).profile_groups) is not None


def hamiltonian_witness(n: int, m: int) -> HamWitness | None:
    """A witness from the link tier, checked only for its stretch lengths summing to 4nm.

    It is a stretch path at any size, O(n + m); its cells are expanded
    only when `cycle` is read.  `validate_stretches` checks it stretch by
    stretch and `validate_witness` step by step.  Groups are searched in the
    order of their first diagonal by id, whatever order the induction emits.
    """
    dec = decompose(GridParams(n, m))
    groups = sorted(dec.profile_groups, key=lambda group: dec.profiles.index(group[1]))
    counts = _first_knot(groups)
    if counts is None:
        return None
    omega = expand_grouped(dec, groups, counts)
    return _witness_from_omega(dec.grid, omega, dec.line_ups(omega))


def validate_witness(grid: GridParams, witness: HamWitness) -> None:
    """Check a witness is a Hamiltonian cycle matching its orientation.

    ValueError unless the cycle is a 1-D sequence of integer flat cell
    indices inside the grid.  Each cell's successor in the cycle must be
    its up or right neighbour, as its diagonal's direction says, read
    off the flat `up_indices` and `right_indices` tables rather than the
    stretch walk that builds witnesses.
    """
    dec = decompose(grid)
    flat = np.asarray(witness.cycle)
    if flat.ndim != 1 or flat.dtype.kind not in "iu":
        raise ValueError(f"witness cycle is not 1-D integer cell indices: {flat.dtype} {flat.shape}")
    if len(flat) != grid.size:
        raise InconsistencyError(f"witness covers {len(flat)} cells, expected {grid.size}")
    outside = (flat < 0) | (flat >= grid.size)
    if outside.any():
        raise ValueError(f"cell index {flat[outside.argmax()]} outside {grid.rows}x{grid.cols} grid")
    flat = flat.astype(np.intp, copy=False)
    if np.bincount(flat, minlength=grid.size).max() > 1:
        raise InconsistencyError("witness repeats a cell")
    up = dec.ups(witness.orientation)[diagonal_ids(dec)]
    succ = np.where(up, up_indices(grid), right_indices(grid))
    broken = succ[flat] != np.roll(flat, -1)
    if broken.any():
        raise InconsistencyError(f"witness breaks at cell index {flat[broken.argmax()]}")


def validate_stretches(grid: GridParams, witness: HamWitness) -> None:
    """Check a witness's stretch path is a Hamiltonian cycle of its orientation, in O(n + m).

    It shares no code with `_stretch_walk` and expands no cell.  With its
    own prefix counts of up lines it places the first and last cell of
    every stretch, so each stretch follows the orientation.  Each must
    start on a landing cell (last row or first column), stay inside the
    grid, and end at a wrap, except a last piece that runs into the
    first cell.  `surface.step` of each stretch's last cell must be the
    next stretch's first cell, cyclically; the landings must be distinct
    and the lengths sum to 4nm.  The oriented moves form a permutation,
    and only a stretch start is entered by a wrap, so a closed walk of
    4nm cells that met a cell twice would meet some landing twice.  The
    path must be of `grid`; ValueError for a witness without a path.
    """
    _validate_stretches(decompose(grid), witness)


def _validate_stretches(dec: DiagonalDecomposition, witness: HamWitness) -> None:
    """`validate_stretches` on a decomposition the caller already holds."""
    grid, path = dec.grid, witness.path
    if path is None:
        raise ValueError("witness has no stretch path; validate_witness checks its cells")
    if path.grid != grid:  # its cells are placed on path.grid's lines
        raise InconsistencyError(f"stretch path of grid {tuple(path.grid)} checked against {tuple(grid)}")
    rows, cols = grid.rows, grid.cols
    line_up = dec.line_ups(witness.orientation).tolist()
    ups = list(accumulate(line_up, initial=0))
    stretches = list(zip(path.first.tolist(), path.length.tolist(), path.shift.tolist()))
    if sum(length for _, length, _ in stretches) != grid.size:
        raise InconsistencyError(f"stretch lengths do not sum to {grid.size} cells")
    ends, landings = [], set()
    for i, (x, length, shift) in enumerate(stretches):
        y = x + length - 1  # the last line
        if length < 1 or x < 0 or y >= len(line_up):
            raise InconsistencyError(f"stretch {i} covers lines {x}..{y} of {len(line_up)}")
        # rows fall and columns rise along a stretch, so its ends bound its cells
        head = (shift - ups[x], x - rows + 1 + shift - ups[x])
        tail = (shift - ups[y], y - rows + 1 + shift - ups[y])
        if head[0] > rows - 1 or head[1] < 0 or tail[0] < 0 or tail[1] > cols - 1:
            raise InconsistencyError(f"stretch {i} leaves the grid")
        if head[0] != rows - 1 and head[1] != 0:
            raise InconsistencyError(f"stretch {i} starts at {head}, not on a landing cell")
        wraps = tail[0] == 0 if line_up[y] else tail[1] == cols - 1
        if not wraps and i < len(stretches) - 1:
            raise InconsistencyError(f"stretch {i} ends at {tail} without a wrap")
        landings.add(head)
        ends.append((head, step(grid, tail, UP if line_up[y] else RIGHT)))
    if len(landings) != len(stretches):
        raise InconsistencyError("stretch path lands on a cell twice")
    for i, ((_, nxt), (head, _)) in enumerate(zip(ends, ends[1:] + ends[:1])):
        if nxt != head:
            raise InconsistencyError(f"stretch {i} steps to {nxt}, not to the next stretch's {head}")
    if not np.array_equal(path.ups[:-1], ups[:-1]):  # the counts that place cells
        raise InconsistencyError("stretch path's up counts do not follow the orientation")


# ---------------------------------------------------------------------------
# Square grids


def _square_orientation(dec: DiagonalDecomposition, start_row: int) -> str | None:
    """Orientation of the walk of 4n - 1 rights then one up, n times, on dec's (n, n) grid.

    Each stretch of 4n cells is a right power of its first cell, so only
    the n turn cells, where the walk goes up, are stepped here.  None
    unless the walk closes after n distinct turns and the up diagonals
    hold just those n cells: the walk then follows the orientation at
    every cell, so it is the orientation's cycle.
    """
    grid, n = dec.grid, dec.grid.n
    cell, turns = (start_row, 0), set()
    for _ in range(n):
        turn = right_power(grid, cell, 4 * n - 1)
        turns.add(turn)
        cell = step(grid, turn, UP)
    if cell != (start_row, 0) or len(turns) != n:
        return None
    up = {int(dec.lines[c - r + grid.rows - 1]) for r, c in turns}
    omega = "".join("U" if k in up else "R" for k in range(len(dec)))
    return omega if up_cell_count(dec, omega) == n else None


def square_construction(n: int) -> HamWitness:
    """Closed-form Hamiltonian cycle of the (n, n) grid, from cell 0, checked by its stretches in O(n)."""
    n = check_int(n, 1, "n")
    grid = GridParams(n, n)
    # The walk starts at row n, counted from the top; the tests show row
    # n - 1 does not close.
    dec = decompose(grid)
    omega = _square_orientation(dec, n)
    if omega is None:
        raise InconsistencyError(f"square walk is no diagonal-constant cycle of the ({n},{n}) grid")
    witness = _witness_from_omega(grid, omega, dec.line_ups(omega))
    _validate_stretches(dec, witness)
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


def _n2_omega_for(m: int) -> str | None:
    """Orientation induced by the residue rule under the stacked layout.

    None when the rule is not diagonal-constant or not Hamiltonian
    under that layout.
    """
    rule = _N2_RIGHT_RULES[m % 8]
    dec = decompose(GridParams(2, m))
    cols = dec.grid.cols
    col = np.arange(m)
    # the rule reads only (rho - col) mod 8: one gather over the stacked 8 x m rows
    rule_up = ~np.array([rule(d) for d in range(8)])[(np.arange(8)[:, None] - col) % 8]
    up = np.empty(dec.grid.size, dtype=bool)
    for rho in range(8):
        row, c = _n2_stacked(rho, col, m)
        up[row * cols + c] = rule_up[rho]
    omega = _diagonal_constant(dec, up)
    if omega is None:
        return None
    if _stretch_walk(dec.grid, *_walk_tables(dec.grid, dec.line_ups(omega)))[0] != dec.grid.size:
        return None
    return omega


def n2_orientation(m: int) -> str:
    """Hamiltonian orientation of the (2, m) grid from the residue rules."""
    m = check_int(m, 1, "m")
    if m % 8 in (3, 5):
        raise ValueError(f"no Hamiltonian orientation exists for width {m} (mod 8 in 3,5)")
    _refuse(GridParams(2, m), 8 * m, "cells", "height-2 rule", CELL_CAP)
    omega = _n2_omega_for(m)
    if omega is None:
        raise InconsistencyError(f"height-2 rule failed to validate at width {m}")
    return omega


def _segment_args(m, d) -> tuple[int, int]:
    """m and d as ints; ValueError unless m >= 2 and -3 <= d <= 2m - 1."""
    m, d = check_int(m, 2, "m"), check_int(d, -3, "segment index")
    if d > 2 * m - 1:
        raise ValueError(f"segment index {d} outside [-3, {2 * m - 1}]")
    return m, d


def segment_successor(m: int, d: int) -> int:
    """Successor index of the height-2 grid's diagonal segments.

    Segments of the 4 x 2m grid are indexed by column minus row.  The
    generic step adds m + 4 modulo 2m; the four segments meeting the
    wrap corner behave specially.
    """
    m, d = _segment_args(m, d)
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
    m, d = _segment_args(m, d)
    grid = GridParams(2, m)
    row = min(3, 2 * m - 1 - d)
    nxt = diag_successor(grid, (row, row + d))
    return nxt[1] - nxt[0]


# ---------------------------------------------------------------------------
# The one-holed torus


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
    """Cycle count of an oriented ordinary torus, one direction per diagonal, by its first-return law.

    Torus diagonals are the residues of column minus row mod g = gcd(n, m),
    and every move adds 1 to that residue, so each cycle crosses diagonal
    0 and returns to it after one pass over the g diagonals, moved by
    (-u, g - u) for the u diagonals oriented up.  The nm/g cells of
    diagonal 0 split into orbits of that translation, each as long as its
    order in Z_n x Z_m: three gcds and one lcm, whatever the size.
    """
    n, m = check_sizes(n, m)
    g = math.gcd(n, m)
    u = int(orientation_ups(orientation, g).sum())
    return n * m // g // math.lcm(n // math.gcd(n, u), m // math.gcd(m, g - u))

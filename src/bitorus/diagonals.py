"""Diagonal orbits of the folded grid, walked run by run, and their profile groups.

A diagonal is an orbit of the step right-then-down; every cell lies on
exactly one.  Interior steps are forced (+1, +1), so a diagonal is a
cyclic sequence of straight runs, each starting on the top row or the
left column and ending on the last row or the last column.  One run
walk over the 2n + 2m - 1 run starts, O(n + m), is the only orbit
primitive; everything else is read off it:

* the diagonal count is the number of orbits;
* the boundary profile (cnt_a, cnt_b, cnt_c, cnt_d) of a diagonal counts
  its run starts on the top row and its run ends on the last column,
  which is exact because every top-row cell starts a run and every
  last-column cell ends one;
* diagonals with identical profiles form a group.  The induced link
  depends only on how many members of each group are oriented up, so
  the Hamiltonicity search needs nothing else;
* a diagonal's cells are expanded from its runs only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator

from .errors import InconsistencyError
from .surface import Cell, GridParams

# A straight stretch of a diagonal: start row, start column, cell count.
Run = tuple[int, int, int]


@dataclass(frozen=True)
class BoundaryProfile:
    """How many of a diagonal's cells lie on each boundary half."""

    cnt_a: int
    cnt_b: int
    cnt_c: int
    cnt_d: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.cnt_a, self.cnt_b, self.cnt_c, self.cnt_d)


@dataclass
class Diagonal:
    """One orbit, kept as its runs; the cells are expanded on first use."""

    id: int
    runs: list[Run]
    profile: BoundaryProfile
    group_id: int

    @cached_property
    def cells(self) -> tuple[Cell, ...]:
        """Cells in successor order, from the row-major-minimal one."""
        return tuple((r + j, c + j) for r, c, length in self.runs for j in range(length))


@dataclass
class DiagonalDecomposition:
    grid: GridParams
    diagonals: list[Diagonal]
    groups: list[tuple[int, ...]]

    def __len__(self) -> int:
        return len(self.diagonals)


def profile(grid: GridParams, cells) -> BoundaryProfile:
    """Count cells of one diagonal on boundaries A, B, C and D."""
    n, m = grid.n, grid.m
    last_col = grid.cols - 1
    a = b = c = d = 0
    for row, col in cells:
        if row == 0:
            if col < m:
                a += 1
            else:
                b += 1
        if col == last_col:
            if row < n:
                c += 1
            else:
                d += 1
    return BoundaryProfile(a, b, c, d)


def _orbit_runs(grid: GridParams) -> Iterator[list[Run]]:
    """Each diagonal as its runs in successor order, in row-major order.

    Run starts are scanned along the top row, then down the left column.
    A diagonal's row-major-minimal cell is a run start (its predecessor
    would otherwise be smaller), so each diagonal is met at that cell
    and its runs are listed from there.  Jumping run ends in O(1) makes
    the walk O(n + m) while still enumerating every orbit of the
    successor map; a start visited twice is an internal inconsistency.
    """
    n, m = grid.n, grid.m
    rows, cols = grid.rows, grid.cols
    starts = [(0, c) for c in range(cols)] + [(r, 0) for r in range(1, rows)]
    visited = set()
    budget = len(starts)
    for start in starts:
        if start in visited:
            continue
        runs = []
        cur = start
        while True:
            visited.add(cur)
            budget -= 1
            if budget < 0:
                raise InconsistencyError("run walk revisited a run start")
            r, c = cur
            k = min(rows - 1 - r, cols - 1 - c)
            runs.append((r, c, k + 1))
            r += k
            c += k
            if c == cols - 1:
                r2 = (r + n) % rows
                cur = (r2 + 1, 0) if r2 < rows - 1 else (0, m)
            else:
                cur = (0, (c + 1 + m) % cols)
            if cur == start:
                break
        yield runs


def _run_profile(grid: GridParams, runs: list[Run]) -> BoundaryProfile:
    """A and B are run starts on the top row, C and D run ends on the last column."""
    n, m = grid.n, grid.m
    last_col = grid.cols - 1
    a = b = c = d = 0
    for row, col, length in runs:
        if row == 0:
            if col < m:
                a += 1
            else:
                b += 1
        if col + length - 1 == last_col:
            if row + length - 1 < n:
                c += 1
            else:
                d += 1
    return BoundaryProfile(a, b, c, d)


def _block_cross_check(grid: GridParams, orbit_of, group_of) -> None:
    """Validate groups against the 1 x g blocks at each quadrant corner.

    The g cells of each block must hit g distinct diagonals that share
    a single profile group, and the four blocks must reach every
    diagonal.  A cell's diagonal is that of the run through it, which
    starts min(row, col) steps back; `orbit_of` maps run starts to ids.
    """
    g = grid.g
    n, m = grid.n, grid.m
    covered = set()
    for top, left in ((0, 0), (0, m), (n, 0), (n, m)):
        ids = []
        for col in range(left, left + g):
            back = min(top, col)
            ids.append(orbit_of[(top - back, col - back)])
        if len(set(ids)) != g:
            raise InconsistencyError(
                f"corner block of grid ({n},{m}) hits {len(set(ids))} diagonals, expected {g}"
            )
        if len({group_of[i] for i in ids}) != 1:
            raise InconsistencyError(
                f"corner block of grid ({n},{m}) spans multiple profile groups"
            )
        covered.update(ids)
    if len(covered) != len(group_of):
        raise InconsistencyError(
            f"corner blocks of grid ({n},{m}) miss some diagonals"
        )


def decompose(grid: GridParams) -> DiagonalDecomposition:
    """Diagonals, their profiles and profile groups from one run walk.

    O(n + m): no cell is materialised until a diagonal's `cells` is
    read.  Ids follow the row-major-minimal cells; groups are ordered
    by their smallest member, members ascending.
    """
    runs = list(_orbit_runs(grid))
    if len(runs) > 4 * grid.g:
        raise InconsistencyError(
            f"grid ({grid.n},{grid.m}) produced {len(runs)} diagonals, more than 4*gcd"
        )
    profiles = [_run_profile(grid, orbit) for orbit in runs]
    members: dict[BoundaryProfile, list[int]] = {}
    for oid, prof in enumerate(profiles):
        members.setdefault(prof, []).append(oid)
    groups = [tuple(ids) for ids in members.values()]
    group_of = {oid: gid for gid, ids in enumerate(groups) for oid in ids}
    orbit_of = {(r, c): oid for oid, orbit in enumerate(runs) for r, c, _ in orbit}
    _block_cross_check(grid, orbit_of, group_of)
    diagonals = [
        Diagonal(oid, orbit, profiles[oid], group_of[oid]) for oid, orbit in enumerate(runs)
    ]
    return DiagonalDecomposition(grid=grid, diagonals=diagonals, groups=groups)


@lru_cache(maxsize=None)
def diag_count_naive(n: int, m: int) -> int:
    """Number of diagonals: the orbits of one run walk, in O(n + m).

    This is the reference count the faster methods are checked against;
    the walk enumerates every orbit of the successor map rather than
    deriving the count from a formula.
    """
    return sum(1 for _ in _orbit_runs(GridParams(n, m)))

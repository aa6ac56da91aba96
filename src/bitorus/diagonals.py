"""Diagonal orbits of the folded grid, walked line by line, and their profile groups.

A diagonal is an orbit of the step right-then-down; every cell lies on
exactly one.  Interior steps are forced (+1, +1), so a diagonal is a
cyclic sequence of straight runs, each starting on the top row or the
left column and ending on the last row or the last column.  A run is
the whole line col - row = d of the rectangle, so each of the
2n + 2m - 1 lines lies on one diagonal.  Two routes find the diagonals:

* Rauzy induction (`induction_groups`): the diagonals are the loops of
  the link (m, m, n, n), so `link_cycles` finds them, with their
  boundary crossings summed, in O(log(n + m)) steps.  This gives the
  one list of profile groups, which is all the Hamiltonicity search needs;
* the run walk (`walk_diagonals`, `diag_count_naive`): O(n + m) steps
  that enumerate every orbit, the reference route and the induction's
  check.  `walk_diagonals` follows the line map, a list built from its
  five ranges of next lines; `diag_count_naive` counts orbits at one
  byte per line with its own scalar step.

The decomposition keeps two arrays from the walk, no object per diagonal:

* the line table `lines`: the diagonal id of each line col - row.  Any
  per-cell table, such as the diagonal id of every cell, is one numpy
  gather from it;
* `profiles`: each diagonal's boundary profile by id, the `CheckedTuple`
  (cnt_a, cnt_b, cnt_c, cnt_d), counts its lines in four ranges: top-row
  cell (0, c) lies on line c and last-column cell (r, 2m - 1) on line
  2m - 1 - r, so A, B, C and D are the m, m, n and n lines [0, m), [m, 2m),
  [2m - n, 2m) and [2m - 2n, 2m - n), the link (m, m, n, n).  Diagonals of
  one profile form a group; the induced link depends only on their up counts.

`decompose` runs the induction at once and the walk on first read of
`lines` or `profiles`, and the walk must find the induction's groups.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import CapExceededError, CheckedTuple, InconsistencyError
from .links import Link, link_cycles
from .surface import GridParams, orientation_ups


class BoundaryProfile(CheckedTuple, NamedTuple("BoundaryProfile", [(f"cnt_{x}", int) for x in "abcd"])):
    """How many of a diagonal's cells lie on each boundary half: a `CheckedTuple` of ints >= 0."""

    __slots__ = ()
    _label = "boundary count"


@dataclass
class DiagonalDecomposition:
    """A grid's profile groups, with its line table and profiles walked on first read.

    `profile_groups` holds (size, profile) per group, in the induction's
    order; it is the one group list.  `lines`, the diagonal id of each
    line col - row at index col - row + rows - 1, and `profiles`, each
    diagonal's profile by id, come from one cached run walk, whose
    profiles must agree with `profile_groups` as a multiset.
    """

    grid: GridParams
    profile_groups: list[tuple[int, BoundaryProfile]]

    @cached_property
    def _walk(self) -> tuple[np.ndarray, list[BoundaryProfile]]:
        lines, profiles = walk_diagonals(self.grid)
        walked = Counter((size, prof) for prof, size in Counter(profiles).items())
        if walked != Counter(self.profile_groups):
            raise InconsistencyError(
                f"run walk of grid ({self.grid.n},{self.grid.m}) found groups "
                f"{list(walked)}, induction {self.profile_groups}"
            )
        return lines, profiles

    @property
    def lines(self) -> np.ndarray:
        return self._walk[0]

    @property
    def profiles(self) -> list[BoundaryProfile]:
        return self._walk[1]

    def __len__(self) -> int:
        return sum(size for size, _ in self.profile_groups)

    def ups(self, omega: str) -> np.ndarray:
        """Per diagonal, whether the orientation string orients it up (U) or right (R)."""
        return orientation_ups(omega, len(self))

    def line_ups(self, omega: str) -> np.ndarray:
        """Per line col - row, at index col - row + rows - 1, whether the string orients it up."""
        return self.ups(omega)[self.lines]


def diagonal_ids(dec: DiagonalDecomposition) -> np.ndarray:
    """The diagonal id of every cell by flat index, gathered from `dec.lines`.

    Cell (r, c) lies on line c - r, so one broadcast index reads the
    whole table; no cell is expanded.
    """
    rows, cols = dec.grid.rows, dec.grid.cols
    return dec.lines[np.arange(cols) - np.arange(rows)[:, None] + rows - 1].ravel()


def _line_successors(grid: GridParams) -> list[int]:
    """The next line of every line, by index d + rows - 1: the line map's five ranges.

    With off = rows - 1 = 2n - 1, line d sits at index i = d + off.  The
    first 2m - 1 lines end on the last row, at column i, and step down
    onto the top row's line (i + 1 + m) mod 2m: they rotate, the first
    m - 1 onto indices [m + 1 + off, 2m + off) and the next m onto
    [off, m + off).  The last 2n lines end on the last column, at rows
    2n - 1 down to 0, and step right onto the first column n rows lower,
    then down one row: the first n land on rows n .. 1, the lines
    -n .. -1 at [n - 1, 2n - 1); the next wraps off the last row onto the
    top row's cell (0, m), line m; the last n - 1 land on rows
    2n - 1 .. n + 1, at [0, n - 1).  So the map is an interval exchange of
    five pieces; `diag_count_naive` takes the same step one line at a time.
    """
    n, m, off = grid.n, grid.m, grid.rows - 1
    return [*range(m + 1 + off, 2 * m + off), *range(off, m + off),
            *range(n - 1, off), m + off, *range(n - 1)]


def _line_profiles(grid: GridParams, lines: np.ndarray, count: int) -> list[BoundaryProfile]:
    """Every diagonal's profile: how many of its lines lie in each of A, B, C and D's ranges."""
    n, m, off = grid.n, grid.m, grid.rows - 1
    ranges = ((0, m), (m, 2 * m), (2 * m - n, 2 * m), (2 * m - 2 * n, 2 * m - n))
    counts = [np.bincount(lines[lo + off : hi + off], minlength=count) for lo, hi in ranges]
    return [BoundaryProfile(*profile) for profile in np.array(counts).T.tolist()]


def _block_cross_check(grid: GridParams, lines: np.ndarray, profiles) -> None:
    """Validate profiles against the 1 x g blocks at each quadrant corner.

    The g cells of each block must hit g distinct diagonals that share
    a single profile, and the four blocks must reach every diagonal.  A
    block's cells lie on consecutive lines col - row, so its diagonal
    ids are one slice of `lines`.
    """
    g = grid.g
    n, m = grid.n, grid.m
    off = grid.rows - 1
    covered = set()
    for top, left in ((0, 0), (0, m), (n, 0), (n, m)):
        ids = set(lines[left - top + off : left - top + off + g].tolist())
        if len(ids) != g:
            raise InconsistencyError(
                f"corner block of grid ({n},{m}) hits {len(ids)} diagonals, expected {g}"
            )
        if len({profiles[i] for i in ids}) != 1:
            raise InconsistencyError(
                f"corner block of grid ({n},{m}) spans multiple profile groups"
            )
        covered.update(ids)
    if len(covered) != len(profiles):
        raise InconsistencyError(f"corner blocks of grid ({n},{m}) miss some diagonals")


def walk_diagonals(grid: GridParams) -> tuple[np.ndarray, list[BoundaryProfile]]:
    """The line table and the profiles by diagonal id from one run walk, O(n + m).

    The reference route, enumerating every orbit: `_line_successors` is
    followed once per line from starts along the top row, then down the
    left column.  Each orbit's walk stops at the first labelled line and
    must stop at its own start.  All walks close so exactly when the
    table is a permutation of the line indices: each walk is then one
    whole cycle.  Otherwise some line has no predecessor, and the walk
    it starts cannot return to it.  So this one comparison per orbit is
    the permutation check.  A diagonal's row-major-minimal cell
    starts a line (its predecessor would otherwise be smaller), so ids
    follow those cells.
    `lines` (np.intp) holds the diagonal id of line col - row = d at
    index d + rows - 1; the profiles read from it must pass the
    corner-block check.  `DiagonalDecomposition` checks them as groups.
    """
    off = grid.rows - 1  # line d sits at index d + off
    succ = _line_successors(grid)
    lines, count = [-1] * len(succ), 0
    for start in chain(range(off, len(succ)), range(off - 1, -1, -1)):
        if lines[start] < 0:
            x = start
            while lines[x] < 0:
                lines[x] = count
                x = succ[x]
            if x != start:
                raise InconsistencyError(f"orbits of grid ({grid.n},{grid.m}) do not cover every line")
            count += 1
    lines = np.array(lines, dtype=np.intp)
    profiles = _line_profiles(grid, lines, count)
    _block_cross_check(grid, lines, profiles)
    return lines, profiles


def induction_groups(grid: GridParams) -> list[tuple[int, BoundaryProfile]]:
    """(size, profile) per profile group: the loops of the link (m, m, n, n).

    The grid's diagonals are exactly the loops of the link (m, m, n, n)
    (checked against the run walk and the tree counter, not proved
    here), whose four intervals carry the grid's B, A, D and C crossings
    in that order.  Packed into one int, those flags are `link_cycles`'
    weights, so each emitted block is a set of diagonals with one
    profile; blocks of equal profile merge into a group.  O(log(n + m))
    induction steps; groups come in the order the induction emits them.

    The group law, checked here: the sizes are (g), (g, g) or (g, 2g),
    g = gcd(n, m), so the link tier tries at most (g+1)(2g+1) - 2
    links, and the profiles sum to (m, m, n, n).
    """
    n, m = grid
    bits = (2 * (n + m)).bit_length()
    sizes: dict[int, int] = {}
    for count, weight in link_cycles(Link(m, m, n, n), (1 << bits, 1, 1 << 3 * bits, 1 << 2 * bits)):
        sizes[weight] = sizes.get(weight, 0) + count
    g = grid.g
    if tuple(sizes.values()) not in ((g,), (g, g), (g, 2 * g), (2 * g, g)):
        raise InconsistencyError(
            f"induction on grid ({n},{m}) gave group sizes {list(sizes.values())}, "
            f"not (g), (g, g) or (g, 2g) with g = {g}"
        )
    mask = (1 << bits) - 1
    groups = []
    ta = tb = tc = td = 0
    for w, size in sizes.items():
        a, b, c, d = w & mask, w >> bits & mask, w >> 2 * bits & mask, w >> 3 * bits
        groups.append((size, BoundaryProfile(a, b, c, d)))
        ta += size * a
        tb += size * b
        tc += size * c
        td += size * d
    if (ta, tb, tc, td) != (m, m, n, n):  # field by field: a carry could hide a wrong packed sum
        raise InconsistencyError(
            f"induction profiles of grid ({n},{m}) sum to {[ta, tb, tc, td]}, expected {[m, m, n, n]}"
        )
    return groups


def decompose(grid: GridParams) -> DiagonalDecomposition:
    """Profile groups by induction now, the line table and profiles by run walk when read.

    O(log(n + m)): `induction_groups`, the loops of the link
    (m, m, n, n), answers the Hamiltonicity search.
    The line table and the profiles come from one `walk_diagonals`,
    O(n + m), on the first read of either, and that walk must find the
    induction's (size, profile) groups.
    """
    return DiagonalDecomposition(grid, induction_groups(grid))


# The run walk takes 1-1.5 s at n + m = 2 * 10**6 on a 2-core x86-64 box, linear in n + m.
NAIVE_CAP = 2 * 10**6


def diag_count_naive(n: int, m: int) -> int:
    """Number of diagonals: the orbits of one run walk, in O(n + m).

    This is the reference count the faster methods are checked against;
    the walk enumerates every orbit of the successor map rather than
    deriving the count from a formula.  Each unvisited line start, along
    the top row and then down the left column, opens an orbit, followed
    back to it by a step that reads d alone, at one visited byte per
    line; a line visited twice is an internal inconsistency.
    CapExceededError past n + m = NAIVE_CAP.
    """
    grid = GridParams(n, m)
    if grid.n + grid.m > NAIVE_CAP:
        raise CapExceededError(f"grid ({grid.n},{grid.m}) has n + m > {NAIVE_CAP}; the run walk "
                               f"is capped there -- use diag_count_tree")
    n, m, rows, cols = grid.n, grid.m, grid.rows, grid.cols
    off = rows - 1  # line d sits at index d + off
    visited = bytearray(rows + cols - 1)
    budget = len(visited)
    count = 0
    for start in chain(range(cols), range(-1, -rows, -1)):
        if visited[start + off]:
            continue
        count += 1
        d = start
        while True:
            visited[d + off] = 1
            budget -= 1
            if budget < 0:
                raise InconsistencyError("run walk revisited a line")
            if d >= cols - rows:
                # ends on the last column at row cols - 1 - d, wraps right
                r = (cols - 1 - d + n) % rows
                d = -(r + 1) if r < rows - 1 else m
            else:
                # ends on the last row at column d + rows - 1, wraps down
                d = (d + rows + m) % cols
            if d == start:
                break
    return count

"""Cell-level references the tests check the line-based library against.

The library keeps the diagonal id of each line col - row and reads
boundary profiles off line ranges.  These helpers go cell by cell
instead: they list a grid's cells, flag each cell's boundary halves,
step from each line's last cell to the next line, list each diagonal's
lines in successor order, expand them into its cells and count a
diagonal's boundary cells from those flags.  `derive_quad_perms` is the
calibration of the crossing permutations `counting` pins: it reads them
off the cells that cross each quadrant's bottom and right edges.
`torus1_trace` counts an oriented ordinary torus's cycles cell by cell,
the reference for `hamiltonicity.torus1_components`' first-return law.
"""

import math
from collections import Counter
from typing import NamedTuple

import numpy as np

from bitorus.diagonals import BoundaryProfile
from bitorus.errors import CapExceededError
from bitorus.hamiltonicity import CELL_CAP
from bitorus.links import perm_cycles
from bitorus.surface import RIGHT, UP_INV, GridParams, check_sizes, diag_successor, orientation_ups, step

# `torus1_trace` holds about 65 B per cell (tracemalloc peak at 300 x 300 and at
# 600 x 500), so a third of CELL_CAP keeps it near the 460 MB that CELL_CAP gives the
# witness's 23 B per cell.
TORUS_CELL_CAP = CELL_CAP // 3


def grid_cells(grid):
    """All cells of the grid in row-major order."""
    for row in range(grid.rows):
        for col in range(grid.cols):
            yield (row, col)


class BoundaryClass(NamedTuple):
    on_a: bool
    on_b: bool
    on_c: bool
    on_d: bool
    quadrant: str


def classify(grid, cell) -> BoundaryClass:
    """Boundary membership flags and quadrant of a cell."""
    grid.check_cell(cell)
    row, col = cell
    n, m = grid.n, grid.m
    quadrant = ("T" if row < n else "B") + ("L" if col < m else "R")
    return BoundaryClass(
        on_a=row == 0 and col < m,
        on_b=row == 0 and col >= m,
        on_c=col == grid.cols - 1 and row < n,
        on_d=col == grid.cols - 1 and row >= n,
        quadrant=quadrant,
    )


def line_run(grid, d):
    """The cells of line col - row = d: start row, start column, cell count."""
    r, c = (0, d) if d >= 0 else (-d, 0)
    return r, c, min(grid.rows - r, grid.cols - c)


def line_steps(grid):
    """Each line's next line, by index d + rows - 1: the line `diag_successor` takes its last cell to."""
    off = grid.rows - 1
    succ = []
    for d in range(-off, grid.cols):
        r, c, length = line_run(grid, d)
        row, col = diag_successor(grid, (r + length - 1, c + length - 1))
        assert row == 0 or col == 0, (grid, d)  # the step lands on a line's first cell
        succ.append(col - row + off)
    return np.array(succ)


def orbit_lines(dec):
    """Each diagonal's lines col - row in successor order, by id, from its row-major-minimal line.

    The order comes from `line_steps`, cell by cell; `dec.lines` only
    names the orbits, and each orbit must hold just the lines its id labels.
    """
    grid, off = dec.grid, dec.grid.rows - 1
    steps, ids = line_steps(grid).tolist(), dec.lines.tolist()
    sizes, orbits = Counter(ids), {}
    # line starts in row-major order: the top row, then down the left column
    for start in [*range(grid.cols), *range(-1, -grid.rows, -1)]:
        if ids[start + off] in orbits:
            continue
        orbit, x = [start], steps[start + off] - off
        while x != start:
            orbit.append(x)
            x = steps[x + off] - off
        oid = ids[start + off]
        assert all(ids[d + off] == oid for d in orbit) and len(orbit) == sizes[oid], (grid, oid)
        orbits[oid] = orbit
    return [orbits[oid] for oid in range(len(orbits))]


def diagonal_cells(grid, lines):
    """A diagonal's cells in successor order, expanded from its lines col - row in that order."""
    runs = [line_run(grid, d) for d in lines]
    return tuple((r + j, c + j) for r, c, length in runs for j in range(length))


def profile(grid, cells) -> BoundaryProfile:
    """Count cells of one diagonal on boundaries A, B, C and D, as `classify` flags them."""
    flags = [classify(grid, cell) for cell in cells]
    return BoundaryProfile(*(sum(getattr(f, "on_" + side) for f in flags) for side in "abcd"))


def _uniform_image(grid, cells, move: str) -> int:
    """Quadrant reached from a set of cells by one move; must be unique."""
    n, m = grid.n, grid.m
    targets = set()
    for cell in cells:
        row, col = step(grid, cell, move)
        targets.add((0 if row < n else 2) + (0 if col < m else 1))
    assert len(targets) == 1, f"move {move} from one quadrant of grid ({n},{m}) reaches {targets}"
    return targets.pop()


def derive_quad_perms(grid=None):
    """Quadrant permutations for a down-crossing and a right-crossing, read off the wrap rules.

    Quadrants are numbered TL 0, TR 1, BL 2, BR 3.
    """
    if grid is None:
        grid = GridParams(2, 3)
    n, m = grid.n, grid.m
    if n < 2 or m < 2:
        raise ValueError("need n, m >= 2 to derive quadrant permutations")
    down, right = [], []
    for qrow, qcol in ((0, 0), (0, m), (n, 0), (n, m)):
        down.append(_uniform_image(grid, [(qrow + n - 1, qcol + j) for j in range(m)], UP_INV))
        right.append(_uniform_image(grid, [(qrow + i, qcol + m - 1) for i in range(n)], RIGHT))
    return tuple(down), tuple(right)


def torus1_trace(n, m, orientation):
    """Cycle count of an oriented ordinary torus, one direction per diagonal, cell by cell.

    Torus diagonals are the residues of column minus row mod gcd(n, m).
    CapExceededError past TORUS_CELL_CAP cells, before any array is built.
    """
    n, m = check_sizes(n, m)
    if n * m > TORUS_CELL_CAP:
        raise CapExceededError(f"torus ({n},{m}) has {n * m} cells; component tracing "
                               f"capped at {TORUS_CELL_CAP} -- use ham_torus1")
    g = math.gcd(n, m)
    r, c = np.divmod(np.arange(n * m), m)
    up = orientation_ups(orientation, g)[(c - r) % g]
    return perm_cycles(np.where(up, (r - 1) % n * m + c, r * m + (c + 1) % m).tolist())

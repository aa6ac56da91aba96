"""Cell-level references the tests check the line-based library against.

The library keeps a diagonal as its lines col - row and reads boundary
profiles off line ranges.  These helpers go cell by cell instead: they
list a grid's cells, flag each cell's boundary halves, expand a
diagonal's lines into its cells and count a diagonal's boundary cells
from those flags.
"""

from typing import NamedTuple

from bitorus.diagonals import BoundaryProfile


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


def diagonal_cells(grid, diag):
    """A diagonal's cells in successor order, from the row-major-minimal one, expanded from its lines."""
    runs = [line_run(grid, d) for d in diag.lines]
    return tuple((r + j, c + j) for r, c, length in runs for j in range(length))


def profile(grid, cells) -> BoundaryProfile:
    """Count cells of one diagonal on boundaries A, B, C and D, as `classify` flags them."""
    flags = [classify(grid, cell) for cell in cells]
    return BoundaryProfile(*(sum(getattr(f, "on_" + side) for f in flags) for side in "abcd"))

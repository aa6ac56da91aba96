"""The folded grid: a 2n x 2m directed grid glued into a two-holed torus.

A genus-2 surface is obtained from a rectangle by splitting each side into
two segments and gluing each segment to the diametrically opposite one.
For the grid this yields "half-shift" wrap rules, with rows counted from
the top and columns from the left:

* moving up from row 0 lands on row 2n-1 with the column shifted by m
  (mod 2m);
* moving right from column 2m-1 lands on column 0 with the row shifted
  by n (mod 2n).

Both shifts are involutions (m doubled is 2m, n doubled is 2n), which is
what makes the four boundary gluings consistent.  Every cell has one up
and one right out-edge; `step` realises these bijections and their
inverses.

The boundary halves are labelled A (top row, left half), B (top row,
right half), C (right column, top half) and D (right column, bottom
half).  The single corner cell (0, 2m-1) lies on both B and C.  A grid's
sizes are one `GridParams` (n, m), a `CheckedTuple` built by `check_sizes`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import CheckedTuple, check_int

Cell = tuple[int, int]

UP = "U"
RIGHT = "R"
UP_INV = "U_inv"
RIGHT_INV = "R_inv"
MOVES = (UP, RIGHT, UP_INV, RIGHT_INV)


def check_sizes(n, m) -> tuple[int, int]:
    """Grid sizes as ints; ValueError unless both are positive integers."""
    if type(n) is not int or type(m) is not int:
        try:
            n, m = check_int(n, -math.inf, "n"), check_int(m, -math.inf, "m")
        except ValueError:
            raise ValueError(f"grid sizes must be integers, got ({n!r}, {m!r})") from None
    if n < 1 or m < 1:
        raise ValueError(f"grid sizes must be positive, got ({n}, {m})")
    return n, m


def orientation_ups(omega: str, count: int) -> np.ndarray:
    """Per diagonal, whether the orientation string orients it up (U) or right (R), as bools."""
    if len(omega) != count:
        raise ValueError(f"orientation string length {len(omega)} != {count} diagonals")
    for direction in omega:
        if direction not in (UP, RIGHT):
            raise ValueError(f"orientation characters must be U or R, got {direction!r}")
    return np.array([direction == UP for direction in omega], dtype=bool)


class GridParams(CheckedTuple, NamedTuple("GridParams", [("n", int), ("m", int)])):
    """Grid sizes: quadrants are n x m, the full grid is 2n x 2m; a `CheckedTuple` built by `check_sizes`."""

    __slots__ = ()

    def __new__(cls, n, m):
        return tuple.__new__(cls, check_sizes(n, m))

    @property
    def g(self) -> int:
        return math.gcd(self.n, self.m)

    @property
    def rows(self) -> int:
        return 2 * self.n

    @property
    def cols(self) -> int:
        return 2 * self.m

    @property
    def size(self) -> int:
        """Number of cells, 4nm."""
        return self.rows * self.cols

    def check_cell(self, cell: Cell) -> None:
        row, col = cell
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(f"cell {cell} outside {self.rows}x{self.cols} grid")


def step(grid: GridParams, cell: Cell, move: str) -> Cell:
    """Apply one of the four edge bijections to a cell."""
    grid.check_cell(cell)
    row, col = cell
    rows, cols = grid.rows, grid.cols
    if move == UP:
        if row > 0:
            return (row - 1, col)
        return (rows - 1, (col + grid.m) % cols)
    if move == UP_INV:
        if row < rows - 1:
            return (row + 1, col)
        return (0, (col + grid.m) % cols)
    if move == RIGHT:
        if col < cols - 1:
            return (row, col + 1)
        return ((row + grid.n) % rows, 0)
    if move == RIGHT_INV:
        if col > 0:
            return (row, col - 1)
        return ((row + grid.n) % rows, cols - 1)
    raise ValueError(f"unknown move {move!r}")


def diag_successor(grid: GridParams, cell: Cell) -> Cell:
    """One diagonal step: right, then down (the inverse of up)."""
    return step(grid, step(grid, cell, RIGHT), UP_INV)


def right_power(grid: GridParams, cell: Cell, i: int) -> Cell:
    """Apply the right bijection i >= 0 times in O(1).

    Each pass over the right boundary shifts the row by n, and the
    number of passes is (col + i) // 2m.
    """
    row, col = cell
    wraps, col2 = divmod(col + i, grid.cols)
    return ((row + grid.n * wraps) % grid.rows, col2)


def diag_successor_indices(grid: GridParams) -> np.ndarray:
    """Flat-index table of the diagonal step: right, then down (the inverse of up).

    No library route reads it; `bench/spans.py` times it by name, and the tests walk orbits by it.
    """
    up = up_indices(grid)
    down = np.empty_like(up)
    down[up] = np.arange(grid.size)
    return down[right_indices(grid)]


def up_indices(grid: GridParams) -> np.ndarray:
    """Flat-index table of the up bijection for every cell.

    Row r > 0 moves to row r - 1, and row 0 to the last row shifted by
    m columns, which swaps that row's halves: whole-row copies of one
    arange, no per-cell arithmetic.
    """
    m = grid.m
    flat = np.arange(grid.size).reshape(grid.rows, grid.cols)
    up = np.empty_like(flat)
    up[1:] = flat[:-1]
    up[0, :m], up[0, m:] = flat[-1, m:], flat[-1, :m]
    return up.ravel()


def right_indices(grid: GridParams) -> np.ndarray:
    """Flat-index table of the right bijection for every cell.

    Column c < 2m - 1 moves to column c + 1, and the last column to
    column 0, n rows down (mod 2n), which swaps that column's halves.
    """
    n = grid.n
    flat = np.arange(grid.size).reshape(grid.rows, grid.cols)
    right = np.empty_like(flat)
    right[:, :-1] = flat[:, 1:]
    right[:n, -1], right[n:, -1] = flat[n:, 0], flat[:n, 0]
    return right.ravel()

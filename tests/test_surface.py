import math

import numpy as np
import pytest

from bitorus.surface import (
    MOVES,
    Cell,
    GridParams,
    diag_successor,
    diag_successor_indices,
    right_indices,
    right_power,
    step,
    up_indices,
)
from cell_reference import classify, grid_cells

# the skewed grids with a side of 1 or 2 put the up table's row shift
# (m columns) and the right table's column shift (n rows) at their extremes
GRIDS = [GridParams(1, 1), GridParams(1, 3), GridParams(2, 2), GridParams(2, 3),
         GridParams(3, 5), GridParams(4, 6), GridParams(3, 1), GridParams(5, 2),
         GridParams(1, 4), GridParams(2, 7)]


def test_grid_params_derived_fields():
    grid = GridParams(4, 6)
    assert (grid.g, grid.rows, grid.cols, grid.size) == (2, 8, 12, 96)


@pytest.mark.parametrize("n,m", [(0, 3), (3, 0), (-1, 2)])
def test_grid_params_rejects_nonpositive(n, m):
    with pytest.raises(ValueError):
        GridParams(n, m)


@pytest.mark.parametrize(
    "n,m",
    [(2.5, 3), (2.0, 3), ("2", 3), (True, 3), (3, False), (np.array([3]), 4), (np.array(2.5), 4)],
)
def test_grid_params_rejects_non_integers(n, m):
    # GridParams(2.5, 3) used to be accepted with size 30.0; the arrays define
    # __index__ but refuse it with TypeError
    with pytest.raises(ValueError):
        GridParams(n, m)


def test_grid_params_accepts_index_types_as_ints():
    grid = GridParams(np.int64(2), np.uint8(3))
    assert type(grid.n) is int and type(grid.m) is int
    assert grid == GridParams(2, 3) and grid.size == 24


def test_step_examples():
    grid = GridParams(2, 3)
    assert step(grid, (1, 0), "U") == (0, 0)
    assert step(grid, (0, 1), "U") == (3, 4)
    assert step(grid, (2, 5), "R") == (0, 0)


def test_step_rejects_bad_cells():
    grid = GridParams(2, 3)
    with pytest.raises(ValueError):
        step(grid, (4, 0), "U")
    with pytest.raises(ValueError):
        step(grid, (0, 6), "R")
    with pytest.raises(ValueError):
        step(grid, (0, 0), "left")


@pytest.mark.parametrize("grid", GRIDS)
def test_each_move_is_a_bijection_with_inverse(grid):
    for move, inverse in (("U", "U_inv"), ("R", "R_inv")):
        images = set()
        for cell in grid_cells(grid):
            out = step(grid, cell, move)
            images.add(out)
            assert step(grid, out, inverse) == cell
        assert len(images) == grid.size


@pytest.mark.parametrize("grid", GRIDS)
def test_moves_match_plain_shifts_off_the_boundary(grid):
    for row, col in grid_cells(grid):
        if row > 0:
            assert step(grid, (row, col), "U") == (row - 1, col)
        if col < grid.cols - 1:
            assert step(grid, (row, col), "R") == (row, col + 1)


def test_classify_examples():
    grid = GridParams(2, 3)
    corner = classify(grid, (0, 0))
    assert corner.on_a and not corner.on_b and corner.quadrant == "TL"
    other = classify(grid, (3, 5))
    assert other.on_d and not other.on_c and other.quadrant == "BR"
    interior = classify(grid, (1, 2))
    assert not any([interior.on_a, interior.on_b, interior.on_c, interior.on_d])
    assert interior.quadrant == "TL"


def test_classify_top_right_corner_sits_on_two_boundaries():
    grid = GridParams(2, 3)
    cell = classify(grid, (0, 5))
    assert cell.on_b and cell.on_c and not cell.on_a and not cell.on_d
    assert cell.quadrant == "TR"


def test_diag_successor_examples():
    assert diag_successor(GridParams(2, 3), (0, 0)) == (1, 1)
    for m in (2, 3, 5, 8):
        grid = GridParams(2, m)
        assert diag_successor(grid, (3, 2 * m - 1)) == (2, 0)
        assert diag_successor(grid, (1, 2 * m - 1)) == (0, m)


@pytest.mark.parametrize("grid", GRIDS)
def test_diag_orbit_closes_and_length_divisible_by_lcm(grid):
    lcm = math.lcm(grid.n, grid.m)
    start: Cell = (0, 0)
    cur = diag_successor(grid, start)
    length = 1
    while cur != start:
        cur = diag_successor(grid, cur)
        length += 1
        assert length <= grid.size
    assert length % lcm == 0


@pytest.mark.parametrize("grid", GRIDS)
def test_index_tables_agree_with_step(grid):
    su = up_indices(grid)
    sr = right_indices(grid)
    sd = diag_successor_indices(grid)
    for row, col in grid_cells(grid):
        i = row * grid.cols + col
        assert tuple(divmod(int(su[i]), grid.cols)) == step(grid, (row, col), "U")
        assert tuple(divmod(int(sr[i]), grid.cols)) == step(grid, (row, col), "R")
        assert tuple(divmod(int(sd[i]), grid.cols)) == diag_successor(grid, (row, col))


@pytest.mark.parametrize("grid", GRIDS)
def test_index_tables_are_permutations(grid):
    for table in (up_indices(grid), right_indices(grid), diag_successor_indices(grid)):
        assert table.shape == (grid.size,)
        assert (np.bincount(table, minlength=grid.size) == 1).all()


@pytest.mark.parametrize("grid", GRIDS)
def test_right_power_closed_form(grid):
    cell = (min(1, grid.rows - 1), 0)
    walked = cell
    for i in range(1, 4 * grid.m + 1):
        walked = step(grid, walked, "R")
        assert right_power(grid, cell, i) == walked
    assert right_power(grid, cell, 4 * grid.m) == cell


def test_moves_constant_list():
    assert MOVES == ("U", "R", "U_inv", "R_inv")

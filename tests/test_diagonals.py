import math
from collections import Counter

import numpy as np
import pytest

from bitorus.diagonals import (
    decompose,
    diag_count_naive,
    diagonal_ids,
    line_ids,
    profile,
)
from bitorus.surface import GridParams, diag_successor, diag_successor_indices, right_power


def coprime_pairs(limit):
    for n in range(1, limit + 1):
        for m in range(1, limit + 1):
            if math.gcd(n, m) == 1:
                yield n, m


def cell_walk_orbits(grid):
    """Reference: orbits of the successor table, cell by cell, row-major starts."""
    succ = diag_successor_indices(grid).tolist()
    seen = bytearray(grid.size)
    orbits = []
    for start in range(grid.size):
        if seen[start]:
            continue
        cells = []
        i = start
        while not seen[i]:
            seen[i] = 1
            cells.append(divmod(i, grid.cols))
            i = succ[i]
        orbits.append(tuple(cells))
    return orbits


@pytest.mark.parametrize(
    "n,m,count",
    [(1, 3, 2), (3, 5, 2), (2, 6, 4), (2, 3, 1), (1, 1, 2), (1, 2, 3),
     (1, 4, 1), (3, 4, 1), (2, 2, 4), (2, 5, 1)],
)
def test_diagonal_counts(n, m, count):
    assert diag_count_naive(n, m) == count
    assert len(decompose(GridParams(n, m)).diagonals) == count


@pytest.mark.parametrize("n,m", [(1, 1), (1, 4), (2, 3), (3, 4), (2, 6), (4, 6), (3, 9)])
def test_decomposition_partitions_the_grid(n, m):
    grid = GridParams(n, m)
    dec = decompose(grid)
    seen = Counter()
    lcm = math.lcm(n, m)
    for diag in dec.diagonals:
        assert len(diag.cells) % lcm == 0
        seen.update(diag.cells)
    assert len(seen) == grid.size
    assert max(seen.values()) == 1


def test_diagonal_ids_follow_row_major_minimal_cells():
    dec = decompose(GridParams(2, 6))
    minima = [min(d.cells) for d in dec.diagonals]
    assert minima == sorted(minima)
    for diag in dec.diagonals:
        assert diag.cells[0] == min(diag.cells)
        # successor order
        grid = dec.grid
        for cell, nxt in zip(diag.cells, diag.cells[1:]):
            assert diag_successor(grid, cell) == nxt


def test_count_bounded_by_four_gcd():
    for n in range(1, 41):
        for m in range(1, 41):
            assert diag_count_naive(n, m) <= 4 * math.gcd(n, m)


def test_scaling_multiplies_the_count():
    for g in range(1, 7):
        for n, m in [(1, 1), (1, 2), (2, 3), (3, 4), (1, 3), (3, 5)]:
            assert diag_count_naive(g * n, g * m) == g * diag_count_naive(n, m)


def test_count_symmetric_in_the_sizes():
    for n in range(1, 41):
        for m in range(1, 41):
            assert diag_count_naive(n, m) == diag_count_naive(m, n)


def test_profiles_single_diagonal_carries_all_boundary_cells():
    dec = decompose(GridParams(2, 3))
    assert [d.profile.as_tuple() for d in dec.diagonals] == [(3, 3, 2, 2)]


def test_profiles_sum_to_boundary_totals():
    for n, m in [(1, 3), (2, 2), (3, 5), (2, 6), (4, 6)]:
        dec = decompose(GridParams(n, m))
        sums = [sum(d.profile.as_tuple()[i] for d in dec.diagonals) for i in range(4)]
        assert sums == [m, m, n, n]


def test_profile_components_small_on_the_two_by_two_grid():
    dec = decompose(GridParams(2, 2))
    for diag in dec.diagonals:
        assert all(c <= 2 for c in diag.profile.as_tuple())


def test_profile_function_matches_stored_profiles():
    dec = decompose(GridParams(3, 5))
    for diag in dec.diagonals:
        assert profile(dec.grid, diag.cells) == diag.profile


def test_groups_share_boundary_profiles_and_lengths():
    for n in range(1, 11):
        for m in range(1, 11):
            dec = decompose(GridParams(n, m))
            for group in dec.groups:
                profiles = {dec.diagonals[i].profile.as_tuple() for i in group}
                lengths = {len(dec.diagonals[i].cells) for i in group}
                assert len(profiles) == 1
                assert len(lengths) == 1


def test_group_members_are_right_translates():
    for n in range(1, 13):
        for m in range(1, 13):
            dec = decompose(GridParams(n, m))
            grid = dec.grid
            for group in dec.groups:
                first = dec.diagonals[group[0]].cells
                for y in group[1:]:
                    cells_y = set(dec.diagonals[y].cells)
                    assert any(
                        {right_power(grid, c, i) for c in first} == cells_y
                        for i in range(1, 4 * grid.m + 1)
                    ), (n, m, group, y)


def test_corner_blocks_land_in_single_groups():
    for n, m in [(2, 4), (3, 6), (4, 6), (6, 9), (2, 2)]:
        grid = GridParams(n, m)
        dec = decompose(grid)
        g = grid.g
        owner = {}
        for diag in dec.diagonals:
            for cell in diag.cells:
                owner[cell] = diag
        for top, left in ((0, 0), (0, m), (n, 0), (n, m)):
            block = [owner[(top, left + j)] for j in range(g)]
            assert len({d.id for d in block}) == g
            assert len({d.group_id for d in block}) == 1


def test_run_walk_counter_matches_cell_walk():
    for n in range(1, 21):
        for m in range(1, 21):
            grid = GridParams(n, m)
            ref = cell_walk_orbits(grid)
            assert diag_count_naive(n, m) == len(ref)
            dec = decompose(grid)
            assert [d.cells for d in dec.diagonals] == ref
            assert [d.profile for d in dec.diagonals] == [profile(grid, c) for c in ref]



def test_run_tables_match_cell_by_cell_tables():
    # per cell and per line col - row, the id of the diagonal through it
    for n in range(1, 21):
        for m in range(1, 21):
            grid = GridParams(n, m)
            dec = decompose(grid)
            ref = np.full(grid.size, -1)
            ref_lines = np.full(grid.rows + grid.cols - 1, -1)
            for diag in dec.diagonals:
                for row, col in diag.cells:
                    ref[row * grid.cols + col] = diag.id
                    assert ref_lines[col - row + grid.rows - 1] in (-1, diag.id)
                    ref_lines[col - row + grid.rows - 1] = diag.id
            assert (diagonal_ids(dec) == ref).all(), (n, m)
            assert (line_ids(dec) == ref_lines).all(), (n, m)

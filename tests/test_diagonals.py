import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bitorus.diagonals as diagonals
from bitorus.counting import diag_count_tree
from bitorus.diagonals import (
    BoundaryProfile,
    DiagonalDecomposition,
    decompose,
    diag_count_naive,
    diagonal_ids,
    induction_groups,
    walk_diagonals,
)
from bitorus.errors import InconsistencyError
from bitorus.links import Link, loop_count
from bitorus.surface import GridParams, diag_successor, diag_successor_indices, right_power
from bitorus.verify import CHECKS
from cell_reference import diagonal_cells, line_steps, orbit_lines, profile


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
    assert len(decompose(GridParams(n, m)).profiles) == count


@pytest.mark.parametrize("n,m", [(1, 1), (1, 4), (2, 3), (3, 4), (2, 6), (4, 6), (3, 9)])
def test_decomposition_partitions_the_grid(n, m):
    grid = GridParams(n, m)
    dec = decompose(grid)
    seen = Counter()
    lcm = math.lcm(n, m)
    for lines in orbit_lines(dec):
        cells = diagonal_cells(grid, lines)
        assert len(cells) % lcm == 0
        seen.update(cells)
    assert len(seen) == grid.size
    assert max(seen.values()) == 1


def test_diagonal_ids_follow_row_major_minimal_cells():
    grid = GridParams(2, 6)
    cells = [diagonal_cells(grid, lines) for lines in orbit_lines(decompose(grid))]
    minima = [min(c) for c in cells]
    assert minima == sorted(minima)
    for diag in cells:
        assert diag[0] == min(diag)
        # successor order
        for cell, nxt in zip(diag, diag[1:]):
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
    assert [prof.as_tuple() for prof in dec.profiles] == [(3, 3, 2, 2)]


def test_profiles_sum_to_boundary_totals():
    for n, m in [(1, 3), (2, 2), (3, 5), (2, 6), (4, 6)]:
        dec = decompose(GridParams(n, m))
        sums = [sum(prof.as_tuple()[i] for prof in dec.profiles) for i in range(4)]
        assert sums == [m, m, n, n]


def test_profile_components_small_on_the_two_by_two_grid():
    dec = decompose(GridParams(2, 2))
    for prof in dec.profiles:
        assert all(c <= 2 for c in prof.as_tuple())


def test_profile_function_matches_stored_profiles():
    dec = decompose(GridParams(3, 5))
    for lines, prof in zip(orbit_lines(dec), dec.profiles, strict=True):
        assert profile(dec.grid, diagonal_cells(dec.grid, lines)) == prof


def group_members(dec):
    """Each profile group's members: the diagonal ids with that group's profile."""
    return [
        tuple(i for i, diag_prof in enumerate(dec.profiles) if diag_prof == prof)
        for _, prof in dec.profile_groups
    ]


def test_groups_share_boundary_profiles_and_lengths():
    for n in range(1, 11):
        for m in range(1, 11):
            dec = decompose(GridParams(n, m))
            orbits = orbit_lines(dec)
            for (size, _), group in zip(dec.profile_groups, group_members(dec)):
                assert len(group) == size
                assert len({len(diagonal_cells(dec.grid, orbits[i])) for i in group}) == 1


def test_group_members_are_right_translates():
    for n in range(1, 13):
        for m in range(1, 13):
            dec = decompose(GridParams(n, m))
            grid, orbits = dec.grid, orbit_lines(dec)
            for group in group_members(dec):
                first = diagonal_cells(grid, orbits[group[0]])
                for y in group[1:]:
                    cells_y = set(diagonal_cells(grid, orbits[y]))
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
        for oid, lines in enumerate(orbit_lines(dec)):
            for cell in diagonal_cells(grid, lines):
                owner[cell] = oid
        for top, left in ((0, 0), (0, m), (n, 0), (n, m)):
            block = [owner[(top, left + j)] for j in range(g)]
            assert len(set(block)) == g
            assert len({dec.profiles[oid] for oid in block}) == 1


def test_run_walk_counter_matches_cell_walk():
    for n in range(1, 21):
        for m in range(1, 21):
            grid = GridParams(n, m)
            ref = cell_walk_orbits(grid)
            assert diag_count_naive(n, m) == len(ref)
            dec = decompose(grid)
            assert [diagonal_cells(grid, lines) for lines in orbit_lines(dec)] == ref
            assert dec.profiles == [profile(grid, c) for c in ref]



def test_run_tables_match_cell_by_cell_tables():
    # per cell and per line col - row, the id of the diagonal through it,
    # ids in the order of the orbits' row-major-minimal cells
    for n in range(1, 21):
        for m in range(1, 21):
            grid = GridParams(n, m)
            dec = decompose(grid)
            ref = np.full(grid.size, -1)
            ref_lines = np.full(grid.rows + grid.cols - 1, -1)
            for oid, cells in enumerate(cell_walk_orbits(grid)):
                for row, col in cells:
                    ref[row * grid.cols + col] = oid
                    assert ref_lines[col - row + grid.rows - 1] in (-1, oid)
                    ref_lines[col - row + grid.rows - 1] = oid
            assert (diagonal_ids(dec) == ref).all(), (n, m)
            assert dec.lines.dtype == np.intp
            assert (dec.lines == ref_lines).all(), (n, m)


# --- Rauzy induction on the run map ----------------------------------------------

def test_induction_groups_match_the_run_walk():
    holds = CHECKS["induction-groups"].holds
    assert all(holds(n, m) for n in range(1, 41) for m in range(1, 41))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 500), st.integers(1, 500), st.integers(1, 4))
def test_induction_groups_match_the_run_walk_on_larger_grids(n, m, common):
    assert CHECKS["induction-groups"].holds(common * n, common * m)  # keep pairs with gcd > 1


_large_side = st.one_of(st.integers(1, 10**4), st.integers(1, 10**12))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_large_side, _large_side, st.integers(1, 6))
def test_diagonals_are_the_loops_of_the_link_m_m_n_n_at_scale(n, m, common):
    n, m = common * n, common * m  # keep pairs with gcd > 1
    assert len(decompose(GridParams(n, m))) == diag_count_tree(n, m) == loop_count(Link(m, m, n, n))


def test_decompose_walks_only_when_diagonals_are_read():
    dec = decompose(GridParams(10**6, 10**6 + 1))
    assert len(dec) == 3 and dec.ups("URU").tolist() == [True, False, True]
    assert "_walk" not in vars(dec)
    small = decompose(GridParams(4, 6))
    assert len(small.profiles) == len(small) == small.lines.max() + 1
    assert "_walk" in vars(small)


def test_walk_that_disagrees_with_the_induction_raises():
    grid = GridParams(3, 5)  # two diagonals with different profiles
    dec = DiagonalDecomposition(grid, [(2, BoundaryProfile(5, 5, 3, 3))])
    with pytest.raises(InconsistencyError, match="run walk"):
        dec.profiles
    with pytest.raises(InconsistencyError, match="run walk"):
        dec.lines


def _bypass(succ, x):
    """The successor table with line index x's predecessor leading past x, so no line leads to x."""
    out = succ.copy()
    out[succ == x] = succ[x]
    return out


def _detach(succ, x):
    """The successor table with line index x an orbit of its own, its old orbit closed around it."""
    out = _bypass(succ, x)
    out[x] = x
    return out


@pytest.mark.parametrize(
    "n,m,plant,message",
    [
        # every line its own orbit: 15 orbits, of which the g = 1 corner blocks reach 4
        (3, 5, lambda succ: np.arange(len(succ)), "miss some diagonals"),
        # no line leads to the first line, so the table is no permutation
        (3, 5, lambda succ: _bypass(succ, 0), "do not cover every line"),
        # g = 2: one orbit cannot fill a corner block, and no block meets
        # line d = -3, which lies on no block's row
        (2, 4, lambda succ: np.roll(np.arange(len(succ)), -1), "hits 1 diagonals"),
        (2, 4, lambda succ: _detach(succ, 0), "miss some diagonals"),
    ],
)
def test_walk_checks_catch_planted_runs(monkeypatch, n, m, plant, message):
    succ = np.array(diagonals._line_successors(GridParams(n, m)))
    monkeypatch.setattr(diagonals, "_line_successors", lambda grid: plant(succ).tolist())
    with pytest.raises(InconsistencyError, match=message):
        walk_diagonals(GridParams(n, m))


def test_line_successors_match_the_run_walk():
    for n in range(1, 41):
        for m in range(1, 41):
            grid = GridParams(n, m)
            assert diagonals._line_successors(grid) == line_steps(grid).tolist(), (n, m)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 10**4), st.integers(1, 10**4))
def test_line_successors_match_the_run_walk_on_large_sides(n, m):
    grid = GridParams(n, m)
    assert diagonals._line_successors(grid) == line_steps(grid).tolist()


def test_walk_diagonals_visits_every_line_once(monkeypatch):
    # counted work: the walk reads the successor table once per line, 2n + 2m - 1 reads
    reads = []

    class CountedList(list):
        def __getitem__(self, i):
            reads.append(i)
            return super().__getitem__(i)

    line_successors = diagonals._line_successors
    monkeypatch.setattr(diagonals, "_line_successors", lambda grid: CountedList(line_successors(grid)))
    for n, m in [(1, 1), (3, 5), (2, 4), (6, 9), (40, 17), (120, 300)]:
        reads.clear()
        lines, profiles = walk_diagonals(GridParams(n, m))
        assert sorted(reads) == list(range(2 * n + 2 * m - 1)), (n, m)
        counts = np.bincount(lines)  # raises on a line left unlabelled at -1
        assert len(counts) == len(profiles) and counts.all()


def test_walk_with_split_corner_block_raises(monkeypatch):
    # (2, 4) has g = 2: two diagonals per corner block, which must share a profile
    monkeypatch.setattr(
        diagonals,
        "_line_profiles",
        lambda grid, lines, count: [BoundaryProfile(i, 0, 0, 0) for i in range(count)],
    )
    with pytest.raises(InconsistencyError, match="spans multiple profile groups"):
        walk_diagonals(GridParams(2, 4))


class _ForgetfulBytes(bytearray):
    """A visited table that drops every mark, so the walk meets its lines again."""

    def __setitem__(self, index, value):
        pass


def test_walk_that_revisits_a_line_raises(monkeypatch):
    monkeypatch.setattr(diagonals, "bytearray", _ForgetfulBytes, raising=False)
    with pytest.raises(InconsistencyError, match="revisited a line"):
        diag_count_naive(3, 5)


def test_induction_blocks_are_checked(monkeypatch):
    # blocks whose profiles do not add up to the boundary, or too many groups
    grid = GridParams(3, 5)
    monkeypatch.setattr(diagonals, "link_cycles", lambda *args: [(2, 1)])
    with pytest.raises(InconsistencyError):
        induction_groups(grid)
    monkeypatch.setattr(diagonals, "link_cycles", lambda *args: [(1, w) for w in range(5)])
    with pytest.raises(InconsistencyError):
        induction_groups(grid)
    # three single diagonals of distinct profiles summing to (5, 5, 3, 3): the
    # shape (g, g, g), which obeys "at most 4g diagonals in at most 4 groups"
    pack = lambda a, b, c, d: a | b << 5 | c << 10 | d << 15  # 5 bits per count on (3, 5)
    blocks = [(1, pack(1, 2, 1, 1)), (1, pack(2, 2, 1, 1)), (1, pack(2, 1, 1, 1))]
    monkeypatch.setattr(diagonals, "link_cycles", lambda *args: blocks)
    with pytest.raises(InconsistencyError, match=r"group sizes \[1, 1, 1\]"):
        induction_groups(grid)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_large_side, _large_side, st.integers(1, 10**6))
def test_groups_of_a_grid_are_its_coprime_core_groups_times_g(n, m, k):
    # the group law at scale: a coprime core has one diagonal, two, or three
    # in groups of one and two, and k times the core scales each group by k
    g = math.gcd(n, m)
    core = induction_groups(GridParams(n // g, m // g))
    assert sorted(size for size, _ in core) in ([1], [1, 1], [1, 2])
    scaled = induction_groups(GridParams(k * n // g, k * m // g))
    assert Counter(scaled) == Counter((k * size, prof) for size, prof in core)


def test_walk_memory_stays_below_a_bound_per_line():
    # the line table, the successor table as a list of ints while it is
    # labelled, and a profile per diagonal: about 56 B per line at (1, m)
    # (97 when the walk kept a line list per diagonal)
    m = 100001
    tracemalloc.start()
    try:
        walk_diagonals(GridParams(1, m))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 72 * (2 * m + 1)


def test_reference_walk_memory_is_about_one_byte_per_line():
    # a set of run-start tuples here peaked at about 2 MB
    tracemalloc.start()
    try:
        diag_count_naive(20, 3001)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * (2 * 20 + 2 * 3001)

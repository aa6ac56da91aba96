import math
import random
import tracemalloc
from itertools import islice, product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import bitorus
import bitorus.diagonals as diagonals
import bitorus.hamiltonicity as ham
from bitorus.counting import diag_count_tree
from bitorus.diagonals import BoundaryProfile, decompose, diag_count_naive, diagonal_ids
from bitorus.errors import CapExceededError, InconsistencyError
from bitorus.hamiltonicity import (
    HamWitness,
    expand_grouped,
    ham_torus1,
    hamiltonian_witness,
    is_hamiltonian_brute,
    is_hamiltonian_fast,
    n2_orientation,
    orientation_k,
    segment_successor,
    segment_successor_from_grid,
    square_construction,
    torus1_components,
    trace_components,
    up_cell_count,
    validate_witness,
)
from bitorus.links import group_link, loop_count, orientation_link
from bitorus.surface import GridParams, right_power, step
from bitorus.verify import CHECKS, run_check
import cell_reference
from cell_reference import diagonal_cells, grid_cells, orbit_lines, torus1_trace


def coprime_pairs(limit):
    for n in range(1, limit + 1):
        for m in range(1, limit + 1):
            if math.gcd(n, m) == 1:
                yield n, m


# --- component tracing -------------------------------------------------------

def test_all_up_on_single_diagonal_grid():
    cycles = trace_components(decompose(GridParams(2, 3)), "U")
    assert len(cycles) == 3
    assert sum(len(c) for c in cycles) == 24


def test_trace_rejects_wrong_length():
    with pytest.raises(ValueError):
        trace_components(decompose(GridParams(2, 3)), "UR")


def test_component_count_equals_link_loops_small():
    assert run_check("cycle-link-equivalence", 5).ok  # covers (1, 3), (2, 3), (3, 5), (1, 2)


# --- brute force tier ---------------------------------------------------------

def test_brute_examples():
    assert is_hamiltonian_brute(3, 3)[0] is True
    assert is_hamiltonian_brute(2, 3)[0] is False
    assert is_hamiltonian_brute(5, 19)[0] is False


def test_brute_witness_is_lexicographically_first():
    verdict, witness = is_hamiltonian_brute(1, 3)
    assert verdict and witness.orientation == "UR"
    validate_witness(GridParams(1, 3), witness)


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize(
    "query,sizes,valid",
    # once the equal int sizes were cached, these answered 1, 2 and (False, None)
    [
        (diag_count_naive, (2.0, 3), (2, 3)),
        (diag_count_naive, (True, 3), (1, 3)),
        (is_hamiltonian_brute, (2.0, 3), (2, 3)),
    ],
)
def test_cached_queries_refuse_non_integer_sizes_cold_or_warm(query, sizes, valid, warm):
    if warm:
        query(*valid)
    with pytest.raises(ValueError, match="must be integers"):
        query(*sizes)


def test_brute_cap(monkeypatch):
    monkeypatch.setattr(ham, "BRUTE_DIAGONAL_CAP", 3)
    with pytest.raises(CapExceededError):
        is_hamiltonian_brute(2, 2)


def test_brute_refuses_before_walking_the_diagonals(monkeypatch):
    # the cell cap is checked first, in O(1), so a grid past it is refused
    # without the O(n + m) run walk that the diagonal cap reads
    def no_walk(grid):
        raise AssertionError("walk_diagonals ran before the caps")

    monkeypatch.setattr(diagonals, "walk_diagonals", no_walk)
    monkeypatch.setattr(ham, "walk_diagonals", no_walk)
    with pytest.raises(CapExceededError, match="cells;"):
        is_hamiltonian_brute(2_000_000, 2_000_001)


def holds_no_per_orbit_object(dec):
    """The decomposition holds its groups and the walk's line table and profiles: no object
    per diagonal, and no cell."""
    grid = dec.grid
    return (vars(dec).keys() == {"grid", "profile_groups", "_walk"}
            and dec.lines.dtype == np.intp and dec.lines.shape == (grid.rows + grid.cols - 1,)
            and type(dec.profiles) is list and len(dec.profiles) == len(dec)
            and all(type(prof) is BoundaryProfile for prof in dec.profiles))


def per_cell_cycles(grid, dec, omega):
    """Reference: every oriented cycle, cell by cell from each diagonal's cells,
    each from its row-major first cell, cycles in the order of those cells."""
    succ = {}
    for lines, ch in zip(orbit_lines(dec), omega, strict=True):
        for cell in diagonal_cells(grid, lines):
            succ[cell] = step(grid, cell, ch)
    cycles, seen = [], set()
    for start in grid_cells(grid):
        if start in seen:
            continue
        walk = [start]
        while succ[walk[-1]] != start:
            walk.append(succ[walk[-1]])
        seen.update(walk)
        cycles.append(walk)
    return cycles


def as_cells(grid, flat):
    """The (row, col) cells of an array of flat cell indices."""
    return [divmod(i, grid.cols) for i in flat.tolist()]


def per_cell_walk(grid, dec, omega):
    """Reference: the oriented walk from (0, 0)."""
    return per_cell_cycles(grid, dec, omega)[0]


def per_cell_sweep(n, m):
    """Reference sweep: the first orientation string, U < R, whose per-cell
    walk covers the grid, with that walk; None when there is none."""
    grid = GridParams(n, m)
    dec = decompose(grid)
    for omega in product("UR", repeat=len(dec)):
        walk = per_cell_walk(grid, dec, omega)
        if len(walk) == grid.size:
            return "".join(omega), walk
    return None


def walk_path(grid, up, r=0, c=0):
    """The stretch walk's path from landing (r, c) under per-line flags."""
    tables = ham._walk_tables(grid, np.asarray(up, dtype=bool))
    _, firsts, shifts = ham._stretch_walk(grid, *tables, r, c)
    return ham._walk_path(grid, tables, firsts, shifts)


def test_line_walk_matches_per_cell_walk():
    # every orientation, Hamiltonian or not, up to 64 per grid
    for n in range(1, 10):
        for m in range(1, 10):
            grid = GridParams(n, m)
            dec = decompose(grid)
            for omega in islice(product("UR", repeat=len(dec)), 64):
                flat = walk_path(grid, dec.line_ups(omega)).cells()
                assert as_cells(grid, flat) == per_cell_walk(grid, dec, omega)


def test_trace_components_matches_per_cell_cycles():
    for n in range(1, 10):
        for m in range(1, 10):
            grid = GridParams(n, m)
            dec = decompose(grid)
            for omega in islice(product("UR", repeat=len(dec)), 64):
                cycles = trace_components(dec, "".join(omega))
                assert [as_cells(grid, cycle) for cycle in cycles] == per_cell_cycles(grid, dec, omega)


def test_trace_components_partitions_a_large_multi_cycle_grid():
    dec = decompose(GridParams(200, 300))
    rng = random.Random(2024)
    omega = "".join(rng.choice("UR") for _ in range(len(dec)))
    cycles = trace_components(dec, omega)
    assert len(cycles) == loop_count(orientation_link(dec, omega)) > 1
    assert np.array_equal(np.sort(np.concatenate(cycles)), np.arange(dec.grid.size))


def test_trace_raises_when_walks_overlap_or_leave_cells_uncovered(monkeypatch):
    # every walk's path reads as cell 0 alone, then as its start cell alone
    dec = decompose(GridParams(2, 3))
    cells = ham.StretchPath.cells
    monkeypatch.setattr(ham.StretchPath, "cells", lambda path: np.array([0]))
    with pytest.raises(InconsistencyError):
        trace_components(dec, "U")
    monkeypatch.setattr(ham.StretchPath, "cells", lambda path: cells(path, 0, 1)[:1])
    with pytest.raises(InconsistencyError):
        trace_components(dec, "U")


class CountedList(list):
    """A list that records every index read from it."""

    def __init__(self, items, reads):
        super().__init__(items)
        self.reads = reads

    def __getitem__(self, i):
        self.reads.append(i)
        return super().__getitem__(i)


def test_line_walk_follows_at_most_max_rows_cols_stretches(monkeypatch):
    # counted work: a walk reads up_at once per stretch it follows to a
    # wrap, and a returning walk wraps at most once per wrapping cell,
    # max(rows, cols); witnesses and tracing share the one stretch walk,
    # and a path holds those stretches and at most one closing piece
    reads, walks = [], []
    walk_tables, stretch_walk = ham._walk_tables, ham._stretch_walk

    def counted_tables(grid, up):
        ups, up_at, right_at = walk_tables(grid, up)
        return ups, CountedList(up_at, reads), right_at

    def counted_walk(grid, *tables):
        reads.clear()
        cells, firsts, shifts = stretch_walk(grid, *tables)
        walks.append((grid, len(reads), len(firsts)))
        return cells, firsts, shifts

    monkeypatch.setattr(ham, "_walk_tables", counted_tables)
    monkeypatch.setattr(ham, "_stretch_walk", counted_walk)
    for n, m in [(1, 5), (3, 7), (4, 5), (6, 10), (40, 41), (97, 30)]:
        assert hamiltonian_witness(n, m) is not None
        dec = decompose(GridParams(n, m))
        trace_components(dec, ("UR" * len(dec))[: len(dec)])
    assert len(walks) > 12
    for grid, stretches, recorded in walks:
        assert 0 < stretches == recorded - 1 <= max(grid.rows, grid.cols)


def test_line_walk_from_a_landing_that_does_not_return_raises_after_max_rows_cols_stretches():
    # on (1, 2), lines d = -1 .. 3 oriented U, U, U, U, R: from the landing
    # (1, 1) the walk goes up to (0, 1), wraps onto (1, 3), then (0, 3)
    # wraps right onto (1, 0), and (1, 0) -> (0, 0) -> (1, 2) -> (0, 2) ->
    # (1, 0) forever; the walk gives up after max(rows, cols) = 4 stretches
    grid, reads = GridParams(1, 2), []
    up = [True, True, True, True, False]
    assert per_cell_return(grid, up, (1, 1)) is None
    ups, up_at, right_at = ham._walk_tables(grid, np.array(up))
    with pytest.raises(InconsistencyError, match=r"from \(1, 1\) does not return in 8 steps"):
        ham._stretch_walk(grid, ups, CountedList(up_at, reads), right_at, 1, 1)
    assert len(reads) == max(grid.rows, grid.cols) == 4


def test_trace_components_builds_one_stretch_table(monkeypatch):
    calls = []
    walk_tables = ham._walk_tables
    monkeypatch.setattr(
        ham, "_walk_tables", lambda grid, up: calls.append(up.tolist()) or walk_tables(grid, up)
    )
    dec = decompose(GridParams(20, 30))
    omega = ("UR" * len(dec))[: len(dec)]
    assert len(trace_components(dec, omega)) > 1
    assert calls == [dec.line_ups(omega).tolist()]


def test_brute_matches_per_cell_sweep():
    for n in range(1, 9):
        for m in range(1, 9):
            if diag_count_tree(n, m) > ham.BRUTE_DIAGONAL_CAP:
                continue
            verdict, witness = is_hamiltonian_brute(n, m)
            ref = per_cell_sweep(n, m)
            assert verdict == (ref is not None), (n, m)
            if verdict:
                cells = as_cells(GridParams(n, m), witness.cycle)
                assert (witness.orientation, cells) == ref, (n, m)


@pytest.mark.parametrize("n,m,diagonals", [(42, 277, 1), (251, 17, 2), (9, 168, 3)])
def test_brute_matches_per_cell_sweep_at_workload_size(n, m, diagonals):
    # grids as large as the benchmark's brute grids, with one, two and three diagonals
    assert diag_count_tree(n, m) == diagonals
    verdict, witness = is_hamiltonian_brute(n, m)
    ref = per_cell_sweep(n, m)
    assert verdict == (ref is not None)
    if verdict:
        assert (witness.orientation, as_cells(GridParams(n, m), witness.cycle)) == ref


def test_brute_memory_stays_below_sixty_four_bytes_per_cell():
    # (42, 277) has one diagonal, so the sweep is all setup: about 0.6 B per
    # cell, since no table is per cell and neither constant string is walked
    # (41 B with per-cell successor tables, 90 when those were lists of
    # Python ints)
    n, m = 42, 277
    tracemalloc.start()
    try:
        assert is_hamiltonian_brute(n, m) == (False, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 4 * n * m


@pytest.mark.parametrize("n,m,diagonals", [(42, 277, 1), (251, 17, 2)])
def test_brute_memory_stays_below_a_bound_per_line(n, m, diagonals):
    # the sweep holds the run walk's line table, per-line flags, the
    # stretch walk's three tables and the stretches it records, which the
    # witness keeps: O(n + m), about 44 and 107 B per line here (0.6 and 3
    # B per cell; (400, 401), 641,600 cells, peaks at 88 B per line).
    # (42, 277) walks neither of its two strings, both constant, so it
    # holds the run walk alone (64 B per line when it walked them)
    assert diag_count_tree(n, m) == diagonals
    tracemalloc.start()
    try:
        is_hamiltonian_brute(n, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < {(42, 277): 57, (251, 17): 139}[n, m] * (2 * n + 2 * m - 1)


def per_cell_return(grid, up, start=(0, 0)):
    """Reference: cells on the walk from `start` by `surface.step` under per-line
    flags, or None when it has not returned after 4nm steps."""
    cell = start
    for length in range(1, grid.size + 1):
        cell = step(grid, cell, "U" if up[cell[1] - cell[0] + grid.rows - 1] else "R")
        if cell == start:
            return length
    return None


def test_constant_strings_cycle_through_one_side_of_the_grid():
    # the fact the brute's skip of the constant strings rests on, checked
    # by surface.step cell by cell: under all-U flags the walk from cell 0
    # only moves up and wraps m columns on, so it returns after 4n cells,
    # and under all-R it only moves right and wraps n rows on, 4m cells
    for n in range(1, 31):
        for m in range(1, 31):
            grid = GridParams(n, m)
            lines = grid.rows + grid.cols - 1
            assert per_cell_return(grid, [True] * lines) == 4 * n, (n, m)
            assert per_cell_return(grid, [False] * lines) == 4 * m, (n, m)


def stretch_count(grid, up, r=0, c=0):
    """Cells on the stretch walk from landing (r, c) under per-line flags."""
    return ham._stretch_walk(grid, *ham._walk_tables(grid, np.array(up, dtype=bool)), r, c)[0]


def test_stretch_walk_matches_surface_steps_on_every_line_flag_table():
    # flags need not be constant per diagonal here, so two cells can step
    # onto one and the walk from a landing may never return; the stretch
    # walk must then raise, and otherwise count the reference's cells
    for n, m in [(1, 1), (1, 2), (2, 1), (1, 3), (2, 3), (3, 2)]:
        grid = GridParams(n, m)
        landings = [(grid.rows - 1, c) for c in range(grid.cols)] + [(r, 0) for r in range(grid.rows - 1)]
        for up in product([True, False], repeat=grid.rows + grid.cols - 1):
            for r, c in landings:
                want = per_cell_return(grid, up, (r, c))
                if want is None:
                    with pytest.raises(InconsistencyError, match="does not return"):
                        stretch_count(grid, up, r, c)
                else:
                    assert stretch_count(grid, up, r, c) == want, (n, m, up, (r, c))


def test_stretch_walk_on_a_planted_flag_table_that_never_returns_raises():
    # on (1, 1), lines d = -1, 0, 1 oriented R, U, U: (0, 0) wraps up onto
    # (1, 1), then (1, 1) -> (0, 1) -> (1, 0) -> (1, 1) forever, since (1, 1)
    # is entered both from (0, 0) and from (1, 0); the walk gives up after
    # max(rows, cols) = 2 stretches
    grid, reads = GridParams(1, 1), []
    ups, up_at, right_at = ham._walk_tables(grid, np.array([False, True, True]))
    with pytest.raises(InconsistencyError, match="does not return in 4 steps"):
        ham._stretch_walk(grid, ups, CountedList(up_at, reads), right_at)
    assert len(reads) == 2


def test_stretch_walk_matches_surface_steps_on_every_diagonal_constant_string():
    # every orientation string of every grid up to 11 x 11 with at most 10
    # diagonals: 3,268 strings, the walk from (0, 0) returning each time
    strings = 0
    for n in range(1, 12):
        for m in range(1, 12):
            dec = decompose(GridParams(n, m))
            if len(dec) > 10:
                continue
            for omega in product("UR", repeat=len(dec)):
                up = dec.line_ups("".join(omega)).tolist()
                assert stretch_count(dec.grid, up) == per_cell_return(dec.grid, up), (n, m, omega)
                strings += 1
    assert strings == 3268


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 80), st.integers(1, 80), st.data())
def test_stretch_walk_matches_surface_steps_on_strings_of_larger_grids(n, m, data):
    dec = decompose(GridParams(n, m))
    omega = "".join(data.draw(st.lists(st.sampled_from("UR"), min_size=len(dec), max_size=len(dec))))
    up = dec.line_ups(omega).tolist()
    assert stretch_count(dec.grid, up) == per_cell_return(dec.grid, up)


@pytest.mark.parametrize("n,m,verdict", [(1000, 1001, True), (1, 5001, True), (2096, 2376, False)])
def test_brute_walks_at_most_max_rows_cols_stretches_per_string(n, m, verdict, monkeypatch):
    # counted work, not time: each stretch reads up_at once, and a string
    # costs at most one stretch per wrapping cell, max(rows, cols) <= rows +
    # cols - 1, whatever its cycle's length; (2096, 2376) has 8 diagonals,
    # 256 strings over 1.99e7 cells
    reads, walks = [], []
    walk_tables, stretch_walk = ham._walk_tables, ham._stretch_walk

    def counted_tables(grid, up):
        ups, up_at, right_at = walk_tables(grid, up)
        reads.clear()
        return ups, CountedList(up_at, reads), right_at

    def counted_walk(grid, *tables):
        try:
            return stretch_walk(grid, *tables)
        finally:
            walks.append(len(reads))

    monkeypatch.setattr(ham, "_walk_tables", counted_tables)
    monkeypatch.setattr(ham, "_stretch_walk", counted_walk)
    grid = GridParams(n, m)
    assert is_hamiltonian_brute(n, m)[0] is verdict
    assert len(walks) <= 2 ** diag_count_tree(n, m)
    assert 0 < max(walks) <= max(grid.rows, grid.cols)


@pytest.mark.parametrize("n,m,orientation", [(42, 277, None), (2096, 2376, None),
                                             (4, 1, "U"), (8, 1, "U"), (1, 4, "R"), (1, 8, "R")])
def test_brute_skips_the_constant_strings_each_side_above_one_rules_out(n, m, orientation, monkeypatch):
    # counted work: one _walk_tables per swept string, 2^d less all U when
    # m > 1 and all R when n > 1; a side-1 grid's witness is the constant
    # string its sweep keeps
    calls = []
    walk_tables = ham._walk_tables
    monkeypatch.setattr(ham, "_walk_tables", lambda grid, up: calls.append(1) or walk_tables(grid, up))
    verdict, witness = is_hamiltonian_brute(n, m)
    assert len(calls) == 2 ** diag_count_tree(n, m) - (m > 1) - (n > 1)
    assert (witness and witness.orientation) == orientation and verdict is (orientation is not None)


def test_brute_reads_no_induction_and_no_per_cell_table(monkeypatch):
    # the brute shares no successor code with validate_witness, which reads
    # the per-cell tables, so that check of a brute witness is independent
    calls = []

    def counted(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(name) or real(*args))

    for module, name in [(diagonals, "induction_groups"), (diagonals, "diagonal_ids"),
                         (ham, "diagonal_ids"), (ham, "up_indices"), (ham, "right_indices")]:
        counted(module, name)
    witnesses = [is_hamiltonian_brute(n, m)[1] for n, m in [(3, 3), (2, 3), (6, 10), (59, 25), (5, 19)]]
    assert calls == []
    validate_witness(GridParams(59, 25), witnesses[3])  # the counters see the validator's reads
    assert {"induction_groups", "diagonal_ids", "up_indices", "right_indices"} <= set(calls)


def test_witness_rejects_orientation_that_does_not_cover():
    # the single diagonal of (2, 3) oriented up splits into three cycles
    dec = decompose(GridParams(2, 3))
    with pytest.raises(InconsistencyError):
        ham._witness_from_omega(dec.grid, "U", dec.line_ups("U"))


def test_witness_past_the_cell_cap_is_a_stretch_path_whose_cells_are_refused():
    n, m = 100000, 100001
    witness = hamiltonian_witness(n, m)
    path = witness.path
    assert len(path.first) <= 2 * n + 2 * m
    assert int(path.length.sum()) == path.size == 4 * n * m > ham.CELL_CAP
    with pytest.raises(CapExceededError, match=f"has {4 * n * m} cells;"):
        witness.cycle
    with pytest.raises(CapExceededError, match="cells;"):
        path.batches()


def test_cycle_is_expanded_once_on_first_read(monkeypatch):
    witness = hamiltonian_witness(40, 41)
    expanded = []
    cells = ham.StretchPath.cells
    monkeypatch.setattr(ham.StretchPath, "cells", lambda path, *a: expanded.append(a) or cells(path, *a))
    assert witness.cycle is witness.cycle
    assert expanded == [()]


@pytest.mark.parametrize("n,m", [(3, 7), (1, 5), (6, 10), (40, 41), (1, 200), (97, 30)])
def test_batches_are_the_cycle_in_walk_order(n, m, monkeypatch):
    path = hamiltonian_witness(n, m).path
    for cells in (1, 7, ham.BATCH_CELLS):
        monkeypatch.setattr(ham, "BATCH_CELLS", cells)
        batches = list(path.batches())
        assert np.array_equal(np.concatenate(batches), hamiltonian_witness(n, m).cycle)
        assert all(len(batch) for batch in batches)


def test_witness_from_cells_has_no_path():
    witness = HamWitness("UR", [0, 1, 2])
    assert witness.path is None and witness.cycle == [0, 1, 2]
    with pytest.raises(ValueError, match="cycle or its stretch path"):
        HamWitness("UR")
    with pytest.raises(ValueError, match="no stretch path"):
        ham.validate_stretches(GridParams(1, 1), witness)


def test_large_witness_validates():
    witness = hamiltonian_witness(264, 322)
    assert len(witness.cycle) == 4 * 264 * 322
    validate_witness(GridParams(264, 322), witness)


def test_witness_memory_stays_below_forty_bytes_per_cell():
    # a cycle of flat indices takes 8 bytes per cell; the walk's numpy
    # temporaries bring the peak to about 24 (80 with per-cell tuples)
    n, m = 200, 199
    tracemalloc.start()
    try:
        witness = hamiltonian_witness(n, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 4 * n * m
    cycle = witness.cycle
    assert cycle.dtype == np.intp and cycle.shape == (4 * n * m,)
    assert not cycle.flags.writeable


@pytest.mark.parametrize("find,bound", [(hamiltonian_witness, 80), (lambda n, m: is_hamiltonian_brute(n, m)[1], 160)],
                         ids=["link", "brute"])
def test_witness_memory_stays_below_a_bound_per_line(find, bound):
    # a (1, m) grid has about 2 cells per line; about 56 and 122 B per line
    # here, the run walk's line table and, for the brute's "UR", the 15,003
    # stretches its walk records (95 and 161 when the walk kept a line list
    # per diagonal)
    m = 10001
    tracemalloc.start()
    try:
        witness = find(1, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert witness.path.size == 4 * m
    assert peak < bound * (2 * m + 1)


def test_library_keeps_no_per_input_state_between_calls():
    # nothing keyed on a call's input may outlive the call
    tracemalloc.start()
    try:
        for n in range(100, 164):
            hamiltonian_witness(n, n + 1)
        for n in range(1, 11):
            for m in range(1, 21):
                diag_count_naive(n, m)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert current < 64 * 1024


def test_hamiltonian_witness_is_exported():
    assert bitorus.hamiltonian_witness is hamiltonian_witness
    assert "hamiltonian_witness" in bitorus.__all__


def test_cycles_are_read_only_flat_indices():
    witnesses = [hamiltonian_witness(4, 6), is_hamiltonian_brute(3, 3)[1], square_construction(3)]
    cycles = [witness.cycle for witness in witnesses]
    cycles += trace_components(decompose(GridParams(2, 3)), "U")
    for cycle in cycles:
        assert cycle.dtype == np.intp and cycle.ndim == 1
        with pytest.raises(ValueError, match="read-only"):
            cycle[0] = 0


def test_witnesses_sweeps_and_tracing_expand_no_cells(monkeypatch):
    built = []

    def recording(grid):
        built.append(decompose(grid))
        return built[-1]

    monkeypatch.setattr(ham, "decompose", recording)
    grids = [(3, 3), (2, 4), (4, 6), (5, 7), (2, 7), (6, 6)]
    for n, m in grids:
        hamiltonian_witness(n, m)
        is_hamiltonian_brute(n, m)
        dec = ham.decompose(GridParams(n, m))  # recorded, so its diagonals are checked below
        trace_components(dec, "U" * len(dec))
    square_construction(6)
    n2_orientation(7)
    assert {dec.grid for dec in built} == {GridParams(n, m) for n, m in grids}
    for dec in built:
        assert holds_no_per_orbit_object(dec), dec.grid


# --- link tier -----------------------------------------------------------------

def test_fast_tier_matches_brute_small():
    assert run_check("tier-equivalence", 6).ok


def test_fast_examples():
    assert is_hamiltonian_fast(2, 4) == is_hamiltonian_brute(2, 4)[0]
    assert is_hamiltonian_fast(41, 56) is False
    assert all(is_hamiltonian_fast(n, n) for n in range(1, 13))


def trace_all_up(n, m):
    dec = decompose(GridParams(n, m))
    return trace_components(dec, "U" * len(dec))


@pytest.mark.parametrize(
    "route,args",
    [
        (trace_all_up, (2300, 2301)),
        (n2_orientation, (2_500_001,)),
    ],
)
def test_cell_expanding_routes_refuse_past_the_cap_up_front(route, args):
    # past 2e7 cells numpy would ask for GBs; refused before any line table
    # is built
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="cells;"):
            route(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


@pytest.mark.parametrize("n", [2300, 10_000])
def test_square_construction_past_the_cell_cap_is_a_stretch_path(n):
    # the square is checked stretch by stretch, so it answers past CELL_CAP
    # and holds O(n) numbers, about 320 and 360 B per line here; only its
    # cells are refused
    grid = GridParams(n, n)
    tracemalloc.start()
    try:
        witness = square_construction(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * (grid.rows + grid.cols - 1)
    assert witness.path.size == grid.size > ham.CELL_CAP
    assert "cycle" not in vars(witness)
    ham.validate_stretches(grid, witness)
    with pytest.raises(CapExceededError, match="cells;"):
        witness.cycle


def test_square_construction_memory_stays_below_a_bound_per_line():
    # the run walk's line table, the witness's walk tables and the
    # stretch check's lists: about 340 B per line at n = 4000 (320 at
    # n = 2300, 360 at n = 10,000; 480 when the walk kept a line list per
    # diagonal)
    n = 4000
    tracemalloc.start()
    try:
        square_construction(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 420 * (4 * n - 1)


def test_grouped_link_matches_expanded_orientation():
    for n, m in [(2, 4), (3, 6), (2, 2), (4, 6)]:
        dec = decompose(GridParams(n, m))
        groups = dec.profile_groups
        for counts in product(*(range(size + 1) for size, _ in groups)):
            omega = expand_grouped(dec, groups, counts)
            assert omega.count("U") == sum(counts)
            assert group_link(groups, counts) == orientation_link(dec, omega)


def test_link_tier_memory_does_not_grow_with_gcd():
    # g = 10**6: the candidates were materialised as one tuple per group, 40 MB
    tracemalloc.start()
    try:
        assert is_hamiltonian_fast(2 * 10**6, 3 * 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_first_knot_skips_no_knot_of_the_full_search():
    # the full lexicographic search, all-right and all-up candidates included
    for n in range(1, 41):
        for m in range(n, 41):
            groups = decompose(GridParams(n, m)).profile_groups
            full = product(*(range(size + 1) for size, _ in groups))
            want = next((c for c in full if loop_count(group_link(groups, c)) == 1), None)
            assert ham._first_knot(groups) == want, (n, m)


def test_swapping_parallel_diagonals_preserves_components():
    rng = random.Random(42)
    for n, m in [(2, 4), (2, 6), (3, 6), (6, 9), (4, 6), (3, 9)]:
        dec = decompose(GridParams(n, m))
        members = [
            [i for i, diag_prof in enumerate(dec.profiles) if diag_prof == prof]
            for _, prof in dec.profile_groups
        ]
        multi = [g for g in members if len(g) >= 2]
        if not multi:
            continue
        for _ in range(10):
            omega = [rng.choice("UR") for _ in range(len(dec))]
            base = len(trace_components(dec, "".join(omega)))
            group = rng.choice(multi)
            x, y = rng.sample(list(group), 2)
            omega[x], omega[y] = omega[y], omega[x]
            assert len(trace_components(dec, "".join(omega))) == base


def test_link_tier_witness_validates():
    for n, m in [(3, 3), (1, 3), (4, 6), (2, 8)]:
        witness = hamiltonian_witness(n, m)
        assert witness is not None
        validate_witness(GridParams(n, m), witness)
    assert hamiltonian_witness(2, 3) is None


# --- diagonal-constant covers ----------------------------------------------

def test_hamiltonian_edge_covers_are_diagonal_constant():
    """Raw per-cell direction search: single cycles force equal directions
    along each diagonal."""
    for n, m in [(1, 1), (1, 2), (1, 3), (2, 2), (1, 4)]:
        grid = GridParams(n, m)
        size = grid.size
        cells = list(grid_cells(grid))
        succ_u = {c: step(grid, c, "U") for c in cells}
        succ_r = {c: step(grid, c, "R") for c in cells}
        dec = decompose(GridParams(n, m))
        diag_of = {}
        for oid, lines in enumerate(orbit_lines(dec)):
            for cell in diagonal_cells(grid, lines):
                diag_of[cell] = oid
        for bits in range(1 << size):
            succ = {
                c: succ_r[c] if (bits >> i) & 1 else succ_u[c]
                for i, c in enumerate(cells)
            }
            if len(set(succ.values())) != size:
                continue
            cur = succ[cells[0]]
            length = 1
            while cur != cells[0]:
                cur = succ[cur]
                length += 1
            if length != size:
                continue
            directions = {}
            for i, c in enumerate(cells):
                directions.setdefault(diag_of[c], set()).add((bits >> i) & 1)
            assert all(len(v) == 1 for v in directions.values())


# --- square grids -------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_square_construction_produces_valid_cycles(n):
    assert CHECKS["square"].holds(n)


def test_square_walk_start_row_calibration():
    # square_construction starts at row n: that offset closes on the three
    # smallest squares, and the other plausible reading, row n - 1, does not.
    decs = {n: decompose(GridParams(n, n)) for n in (1, 2, 3)}
    assert all(ham._square_orientation(dec, n) is not None for n, dec in decs.items())
    assert any(ham._square_orientation(dec, n - 1) is None for n, dec in decs.items())


def test_square_construction_walks_the_diagonals_once(monkeypatch):
    # one decomposition serves the orientation, the witness and its validation
    calls, walk = [], diagonals.walk_diagonals

    def counted(grid):
        calls.append(grid)
        return walk(grid)

    monkeypatch.setattr(diagonals, "walk_diagonals", counted)
    for n in (1, 5, 40, 100):
        calls.clear()
        square_construction(n)
        assert len(calls) == 1


def test_square_witness_is_the_papers_walk():
    # n stretches of 4n cells from (n, 0), each turning up after its last cell
    for n in range(1, 13):
        grid = GridParams(n, n)
        cycle = square_construction(n).cycle
        assert cycle[0] == 0
        start = n * grid.cols
        walk, cell = [], (n, 0)
        for _ in range(n):
            walk += [right_power(grid, cell, j) for j in range(4 * n)]
            cell = step(grid, walk[-1], "U")
        assert cell == (n, 0)
        rotated = np.roll(cycle, -int(np.flatnonzero(cycle == start)[0]))
        assert rotated.tolist() == [r * grid.cols + c for r, c in walk]


def test_square_orientation_ups_only_the_last_diagonal():
    for n in range(1, 61):
        assert square_construction(n).orientation == "R" * (2 * n - 1) + "U"


def test_diagonal_constant_reads_orientations_and_rejects_mixed_tables():
    for n, m in [(3, 3), (4, 6), (2, 7)]:
        dec = decompose(GridParams(n, m))
        for omega in islice(product("UR", repeat=len(dec)), 16):
            up = dec.ups(omega)[diagonal_ids(dec)]
            assert ham._diagonal_constant(dec, up) == "".join(omega)
            for cell in (0, dec.grid.size // 2, dec.grid.size - 1):
                mixed = up.copy()
                mixed[cell] = not mixed[cell]
                assert ham._diagonal_constant(dec, mixed) is None


def test_square_construction_agrees_with_brute():
    for n in range(1, 5):
        assert is_hamiltonian_brute(n, n)[0]


# --- height-2 grids -------------------------------------------------------------

def test_n2_rules_produce_hamiltonian_witnesses():
    assert all(CHECKS["height-2"].holds(m) for m in (1, 2, 4, 6, 7, 8, 9, 14, 15, 16, 17))


def test_n2_stacked_layout_calibration(monkeypatch):
    # The direct stacked layout validates the residue rules on small widths;
    # the layout with the lower rows rotated by the half-height 2 does not.
    def rotated(rho, col, m):
        return (rho, col) if rho < 4 else ((rho - 2) % 4, col + m)

    for m in (2, 4, 6, 7, 8, 9):
        assert ham._n2_omega_for(m) is not None
    monkeypatch.setattr(ham, "_n2_stacked", rotated)
    for m in (2, 6, 7, 9):
        assert ham._n2_omega_for(m) is None


def test_n2_rejects_residues_three_and_five():
    for m in (3, 5, 11, 13):
        with pytest.raises(ValueError):
            n2_orientation(m)


def test_height_two_classification():
    assert run_check("height-2", 6).ok  # widths m <= 24


def test_segment_successor_examples():
    assert segment_successor(5, 0) == 9
    assert segment_successor(5, 6) == -2
    assert segment_successor(5, 9) == -3
    with pytest.raises(ValueError):
        segment_successor(5, 10)
    with pytest.raises(ValueError):
        segment_successor(5, -4)
    for m, d in [(4.0, 1), (4, 1.0), (True, 0)]:  # (4.0, 1) returned 1.0
        for successor in (segment_successor, segment_successor_from_grid):
            with pytest.raises(ValueError, match="must be an integer"):
                successor(m, d)


def test_segment_successor_matches_grid():
    assert run_check("segment-map", 8).ok  # widths 2 <= m <= 24


def test_segment_orbit_covers_everything_when_single_diagonal():
    assert all(diag_count_tree(2, m) == 1 for m in (3, 5, 11, 13))
    assert all(CHECKS["segment-map"].holds(m) for m in (3, 5, 11, 13))


# --- single-diagonal grids ---------------------------------------------------

def test_one_diagonal_checks_applicable():
    one_diagonal = CHECKS["one-diagonal"]
    assert (2, 3) in one_diagonal.cases(2) and (2, 5) in one_diagonal.cases(3)
    assert one_diagonal.holds(2, 3) and one_diagonal.holds(2, 5)
    assert not is_hamiltonian_fast(2, 3) and is_hamiltonian_fast(4, 6)


def test_one_diagonal_checks_not_applicable():
    assert diag_count_tree(3, 5) == 2
    assert (3, 5) not in CHECKS["one-diagonal"].cases(3)


# --- periodicity ---------------------------------------------------------------

def test_periodicity_examples():
    assert all(CHECKS["periodicity"].holds(n, m) for n, m in [(1, 2), (2, 3), (3, 5)])
    assert is_hamiltonian_fast(2, 3) is False and is_hamiltonian_fast(2, 27) is False
    assert is_hamiltonian_fast(3, 5) is True and is_hamiltonian_fast(3, 41) is True


def test_link_tier_on_large_grids():
    assert is_hamiltonian_fast(300, 701) is False
    assert is_hamiltonian_fast(1000, 1001) is True
    assert CHECKS["periodicity"].holds(300, 701)
    assert CHECKS["periodicity"].holds(1000, 1001)


@pytest.mark.parametrize(
    "build,args",
    # this raised KeyError
    [(n2_orientation, (10.5,))],
)
def test_height_two_and_periodicity_reject_non_integers(build, args):
    with pytest.raises(ValueError, match="must be (an integer|integers)"):
        build(*args)


def test_width_one_grids_break_periodicity():
    # size-1 grids are outside the paper's domain: (4, 1) is Hamiltonian, (4, 49) is not
    periodic = CHECKS["periodicity"].holds
    assert all(periodic(n, 1) for n in (1, 2, 3))
    assert not any(periodic(n, 1) for n in (4, 8, 12))


_large_side = st.one_of(st.integers(1, 10**4), st.integers(1, 10**12))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_large_side, _large_side)
def test_periodicity_at_scale(n, m):
    # the paper's theorem: adding 12n columns keeps the verdict, for m >= 2
    assume(m >= 2 and math.gcd(n, m) == 1)
    assert CHECKS["periodicity"].holds(n, m)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_large_side, _large_side, st.integers(1, 6))
def test_swapping_the_sides_keeps_the_verdict_at_scale(n, m, common):
    n, m = common * n, common * m  # keep pairs with gcd > 1
    assume(math.gcd(n, m) <= 12)  # at most (g + 1)(2g + 1) links per verdict
    assert is_hamiltonian_fast(n, m) == is_hamiltonian_fast(m, n)
    assert len(decompose(GridParams(n, m))) == len(decompose(GridParams(m, n)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_large_side, st.data())
def test_reflecting_the_width_keeps_the_verdict_at_scale(n, data):
    # an observed identity, not a theorem of the paper: m -> 12n - m keeps the
    # verdict and the diagonal count on every coprime pair tried
    m = data.draw(st.integers(2, 12 * n - 2))
    assume(math.gcd(n, m) == 1)
    assert is_hamiltonian_fast(n, m) == is_hamiltonian_fast(n, 12 * n - m)
    assert len(decompose(GridParams(n, m))) == len(decompose(GridParams(n, 12 * n - m)))


# --- ordinary torus -------------------------------------------------------------

def test_torus_formula_examples():
    assert ham_torus1(2, 2)
    assert ham_torus1(2, 4)
    assert ham_torus1(6, 4)
    assert not ham_torus1(2, 3)


def test_torus_formula_rejects_non_integer_sizes():
    for n, m in [(True, 2), (2, 2.0), (0, 2)]:
        with pytest.raises(ValueError):
            ham_torus1(n, m)


@pytest.mark.parametrize(
    "n,m,orientation,message",
    [
        # these returned 0, 0 and 1 cycles
        (-2, 4, "UU", "must be positive"),
        (0, 4, "UUUU", "must be positive"),
        (2, 4, "UX", "must be U or R"),
    ],
)
def test_torus_components_validate_sizes_and_orientation(n, m, orientation, message):
    with pytest.raises(ValueError, match=message):
        torus1_components(n, m, orientation)


def test_torus_components_answer_at_sizes_no_trace_reaches():
    # one pass over the g = 2 diagonals moves a cell by (-u, 2 - u): UR returns after lcm(n, m) passes
    n, m = 10**12, 10**12 + 6
    assert torus1_components(n, m, "UR") == 1
    assert torus1_components(n, m, "UU") == m
    assert torus1_components(n, m, "RR") == n


def test_torus_components_match_the_cell_trace():
    tori = 0
    for n in range(1, 13):
        for m in range(1, 13):
            for omega in product("UR", repeat=math.gcd(n, m)):
                omega = "".join(omega)
                assert torus1_components(n, m, omega) == torus1_trace(n, m, omega), (n, m, omega)
                tori += 1
    assert tori == 8826


def test_torus_components_refuse_past_the_cell_cap(monkeypatch):
    # the cell trace's cap
    monkeypatch.setattr(cell_reference, "TORUS_CELL_CAP", 12)
    assert torus1_trace(3, 4, "U") == 4  # 12 cells, at the cap
    with pytest.raises(CapExceededError, match="ham_torus1"):
        torus1_trace(3, 5, "X")  # 15 cells: refused before the orientation is read


def test_torus_components_hold_about_sixty_five_bytes_per_cell():
    # the cell trace's figure TORUS_CELL_CAP rests on: about 65 B per cell
    # here, so at the cap a call stays near the 460 MB that CELL_CAP gives
    # a witness's 23 B per cell, where CELL_CAP cells would take 1.3 GB
    n = m = 300
    tracemalloc.start()
    try:
        assert torus1_trace(n, m, "U" * n) == n
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 72 * n * m
    assert 72 * cell_reference.TORUS_CELL_CAP < 5 * 10**8


def test_torus_formula_against_trace():
    assert run_check("torus1", 59).ok  # the first-return law against the criterion, every u


# --- misc -----------------------------------------------------------------------

def test_orientation_k_integral_for_coprime_sizes():
    assert run_check("link-balance", 8).ok  # 0 <= k <= 4 on every orientation


@pytest.mark.parametrize("n,m,omega", [(2, 4, "UUURUU"), (2, 6, "UUUR"), (3, 6, "UUUUUUUUR")])
def test_orientation_k_refuses_sizes_that_are_not_coprime(n, m, omega):
    # these raised InconsistencyError, which is kept for routes that disagree
    with pytest.raises(ValueError, match="coprime"):
        orientation_k(decompose(GridParams(n, m)), omega)


def test_up_cell_count_sums_runs_without_expanding_cells():
    for n, m in coprime_pairs(8):
        dec = decompose(GridParams(n, m))
        counts = [up_cell_count(dec, "".join(omega))
                  for omega in product("UR", repeat=len(dec))]
        assert holds_no_per_orbit_object(dec)
        orbits = orbit_lines(dec)
        assert counts == [
            sum(len(diagonal_cells(dec.grid, lines)) for lines, ch in zip(orbits, omega) if ch == "U")
            for omega in product("UR", repeat=len(dec))
        ]


def test_up_cells_and_k_validate_the_orientation_string():
    dec = decompose(GridParams(3, 4))  # one diagonal
    for count in (up_cell_count, orientation_k):
        with pytest.raises(ValueError, match="length 6 != 1 diagonals"):
            count(dec, "UUUUUU")
        with pytest.raises(ValueError, match="must be U or R"):
            count(dec, "X")


def test_validate_witness_rejects_garbage():
    grid = GridParams(1, 1)
    with pytest.raises(InconsistencyError):
        validate_witness(grid, HamWitness("UR", [0, 1, 2]))


def test_validate_witness_refuses_cycles_that_are_not_integer_indices():
    grid = GridParams(1, 1)
    cells = [(0, 0), (0, 1), (1, 1), (1, 0)]  # the old (row, col) form
    for cycle in (cells, [0.0, 1.0, 3.0, 2.0], np.array([0.5, 1, 3, 2]), [True] * 4,
                  np.zeros((2, 2), dtype=np.intp), "0132", [0, 1, None, 2]):
        with pytest.raises(ValueError, match="not 1-D integer cell indices"):
            validate_witness(grid, HamWitness("U", cycle))


def test_validate_witness_rejects_broken_cycles():
    grid = GridParams(3, 3)
    witness = hamiltonian_witness(3, 3)
    cycle = witness.cycle
    validate_witness(grid, HamWitness(witness.orientation, cycle.tolist()))
    swapped = np.concatenate((cycle[:5], cycle[[6, 5]], cycle[7:]))
    with pytest.raises(InconsistencyError, match="breaks at"):
        validate_witness(grid, HamWitness(witness.orientation, swapped))
    flipped = "".join("R" if ch == "U" else "U" for ch in witness.orientation)
    with pytest.raises(InconsistencyError, match="breaks at"):
        validate_witness(grid, HamWitness(flipped, cycle))
    with pytest.raises(InconsistencyError, match="repeats"):
        validate_witness(grid, HamWitness(witness.orientation, np.append(cycle[:-1], cycle[0])))
    for outside in ([*cycle[:-1].tolist(), grid.size], [*cycle[:-1].tolist(), -1],
                    np.append(cycle[:-1].astype(np.uint64), np.uint64(2**63))):
        with pytest.raises(ValueError, match="outside"):
            validate_witness(grid, HamWitness(witness.orientation, outside))


def _verdicts(grid, witness):
    """Whether validate_stretches and validate_witness each accept a witness."""
    verdicts = []
    for validate in (ham.validate_stretches, validate_witness):
        try:
            validate(grid, witness)
        except InconsistencyError:
            verdicts.append(False)
        else:
            verdicts.append(True)
    return verdicts


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 60), st.integers(1, 60), st.integers(0, 2**32), st.booleans())
def test_stretch_validator_agrees_with_the_cell_validator(n, m, seed, knot):
    # a link-tier witness, or the walk from cell 0 of a random orientation,
    # which covers the grid only sometimes; half the time one diagonal of
    # the orientation is flipped under the walk's path
    grid = GridParams(n, m)
    dec = decompose(grid)
    rng = random.Random(seed)
    witness = hamiltonian_witness(n, m) if knot else None
    if witness is None:
        omega = "".join(rng.choice("UR") for _ in range(len(dec)))
        witness = HamWitness(omega, path=walk_path(grid, dec.line_ups(omega)))
    if rng.random() < 0.5:
        flip = rng.randrange(len(dec))
        omega = witness.orientation
        witness = HamWitness(omega[:flip] + "UR"[omega[flip] == "U"] + omega[flip + 1:], path=witness.path)
    stretches, cells = _verdicts(grid, witness)
    assert stretches == cells


def _planted(witness, keep=None, **fields):
    """The witness with its path's stretches cut to `keep` and fields replaced."""
    path = witness.path
    arrays = {name: getattr(path, name)[keep] if keep is not None else getattr(path, name)
              for name in ("first", "length", "shift")}
    return HamWitness(witness.orientation, path=ham.StretchPath(path.grid, path.ups, **(arrays | fields)))


def _rejected_by_both(grid, witness, match=None):
    with pytest.raises(InconsistencyError, match=match):
        ham.validate_stretches(grid, witness)
    with pytest.raises((InconsistencyError, ValueError)):  # ValueError: cells outside the grid
        validate_witness(grid, witness)


@pytest.mark.parametrize("n,m", [(3, 7), (6, 10), (4, 5), (40, 41)])
def test_stretch_validator_rejects_planted_faults(n, m):
    # a dropped stretch, a flipped diagonal and a shifted row; the other faults
    # each trip one check alone
    grid = GridParams(n, m)
    witness = hamiltonian_witness(n, m)
    ham.validate_stretches(grid, witness)
    path, count = witness.path, len(witness.path.first)
    i = count // 2
    kept = np.arange(count) != i
    _rejected_by_both(grid, _planted(witness, kept), "sum to")  # a dropped stretch
    for flip in range(len(witness.orientation)):  # a flipped diagonal
        omega = witness.orientation
        _rejected_by_both(grid, HamWitness(omega[:flip] + "UR"[omega[flip] == "U"] + omega[flip + 1:], path=path))
    order = np.arange(count)
    order[[i, i - 1]] = order[[i - 1, i]]
    _rejected_by_both(grid, _planted(witness, order), "steps to")  # two stretches swapped
    shifted = _planted(witness, shift=path.shift + (np.arange(count) == i))  # a shifted row
    _rejected_by_both(grid, shifted)
    # one stretch run past its wrap, the next starting a line later
    over = _planted(witness, first=path.first + (np.arange(count) == i),
                    length=path.length + (np.arange(count) == i - 1) - (np.arange(count) == i))
    _rejected_by_both(grid, over, "leaves the grid")
    ups = path.ups.copy()
    ups[path.first[i] + 1:] += 1  # up counts that misplace cells
    _rejected_by_both(grid, HamWitness(witness.orientation, path=ham.StretchPath(
        grid, ups, path.first, path.length, path.shift)), "up counts")


def test_stretch_validator_rejects_a_cycle_walked_twice():
    # all up on (2, 3) splits into three 8-cell cycles; the one through cell 0,
    # walked from a landing it wraps onto, three times over covers 24 cells
    grid = GridParams(2, 3)
    up = decompose(grid).line_ups("U")
    once = walk_path(grid, up)
    row = int(once.shift[1] - once.ups[once.first[1]])
    once = walk_path(grid, up, row, int(once.first[1]) - grid.rows + 1 + row)
    assert once.size * 3 == grid.size
    thrice = HamWitness("U", path=ham.StretchPath(grid, once.ups, *(np.tile(getattr(once, name), 3)
                                                                   for name in ("first", "length", "shift"))))
    _rejected_by_both(grid, thrice, "lands on a cell twice")


def test_stretch_validator_wants_every_stretch_but_the_last_to_end_at_a_wrap():
    # the same cells, one stretch split where it crosses the bottom row:
    # still a Hamiltonian cycle, but not a stretch path
    grid = GridParams(3, 7)
    witness = hamiltonian_witness(3, 7)
    path = witness.path
    ups = path.ups.tolist()
    for i, (x, length, shift) in enumerate(zip(path.first.tolist(), path.length.tolist(), path.shift.tolist())):
        inner = [y for y in range(x + 1, x + length) if shift - ups[y] == grid.rows - 1]
        if inner:
            break
    cut = inner[0] - x
    split = ham.StretchPath(grid, path.ups, np.insert(path.first, i + 1, x + cut),
                            np.insert(path.length, i + 1, length - cut), np.insert(path.shift, i + 1, shift))
    split.length[i] = cut
    split = HamWitness(witness.orientation, path=split)
    validate_witness(grid, split)
    with pytest.raises(InconsistencyError, match="without a wrap"):
        ham.validate_stretches(grid, split)


def test_stretch_validator_wants_the_first_stretch_to_start_on_a_landing():
    # the witness of (6, 10) closes at a wrap; started inside a stretch
    # instead, off the last row and the first column, it is the same cycle
    grid = GridParams(6, 10)
    witness = hamiltonian_witness(6, 10)
    path = witness.path
    ups = path.ups.tolist()
    stretches = list(zip(path.first.tolist(), path.length.tolist(), path.shift.tolist()))
    for j, (x, length, shift) in enumerate(stretches):
        inner = [y for y in range(x + 1, x + length)
                 if shift - ups[y] != grid.rows - 1 and y - grid.rows + 1 + shift - ups[y] != 0]
        if inner:
            break
    y = inner[0]
    rotated = [(y, x + length - y, shift), *stretches[j + 1:], *stretches[:j], (x, y - x, shift)]
    first, lengths, shifts = (np.array(column) for column in zip(*rotated))
    moved = HamWitness(witness.orientation, path=ham.StretchPath(grid, path.ups, first, lengths, shifts))
    validate_witness(grid, moved)
    with pytest.raises(InconsistencyError, match="not on a landing cell"):
        ham.validate_stretches(grid, moved)


def test_stretch_validator_wants_the_path_of_its_grid():
    # (3, 7) and (7, 3) both have 19 lines and 84 cells; the path of one
    # places its cells on the other's lines
    witness = hamiltonian_witness(3, 7)
    with pytest.raises(InconsistencyError, match="checked against"):
        ham.validate_stretches(GridParams(7, 3), witness)


def test_stretch_validator_checks_a_witness_past_the_cell_cap():
    n, m = 19999, 20000
    grid = GridParams(n, m)
    witness = hamiltonian_witness(n, m)
    ham.validate_stretches(grid, witness)
    shifted = _planted(witness, shift=witness.path.shift + (np.arange(len(witness.path.first)) == 7))
    with pytest.raises(InconsistencyError):
        ham.validate_stretches(grid, shifted)
    assert "cycle" not in vars(witness)


def test_diag_count_consistency_with_reports():
    # single-diagonal counts reported by the fast counter gate the reports
    for n, m in [(2, 3), (2, 5), (2, 11)]:
        assert diag_count_tree(n, m) == 1

import math
import random
from itertools import islice, product

import pytest

import bitorus.hamiltonicity as ham
from bitorus.counting import diag_count_tree
from bitorus.diagonals import decompose
from bitorus.errors import CapExceededError, InconsistencyError
from bitorus.hamiltonicity import (
    HamWitness,
    _dec,
    expand_grouped,
    grouped_link,
    ham_torus1,
    hamiltonian_witness,
    is_hamiltonian_brute,
    is_hamiltonian_fast,
    n2_orientation,
    one_diagonal_checks,
    orientation_k,
    periodicity_check,
    segment_successor,
    segment_successor_from_grid,
    square_construction,
    torus1_components,
    trace_components,
    up_cell_count,
    validate_witness,
)
from bitorus.links import loop_count, orientation_link
from bitorus.surface import GridParams, step


def coprime_pairs(limit):
    for n in range(1, limit + 1):
        for m in range(1, limit + 1):
            if math.gcd(n, m) == 1:
                yield n, m


# --- component tracing -------------------------------------------------------

def test_all_up_on_single_diagonal_grid():
    cycles = trace_components(GridParams(2, 3), "U")
    assert len(cycles) == 3
    assert sum(len(c) for c in cycles) == 24


def test_trace_rejects_wrong_length():
    with pytest.raises(ValueError):
        trace_components(GridParams(2, 3), "UR")


def test_component_count_equals_link_loops_small():
    for n, m in [(1, 3), (2, 3), (3, 5), (1, 2)]:
        dec = _dec(n, m)
        for omega in product("UR", repeat=len(dec.diagonals)):
            omega = "".join(omega)
            assert len(trace_components(dec.grid, omega)) == loop_count(
                orientation_link(dec, omega)
            )


# --- brute force tier ---------------------------------------------------------

def test_brute_examples():
    assert is_hamiltonian_brute(3, 3)[0] is True
    assert is_hamiltonian_brute(2, 3)[0] is False
    assert is_hamiltonian_brute(5, 19)[0] is False


def test_brute_witness_is_lexicographically_first():
    verdict, witness = is_hamiltonian_brute(1, 3)
    assert verdict and witness.orientation == "UR"
    validate_witness(GridParams(1, 3), witness)


def test_brute_cap(monkeypatch):
    monkeypatch.setattr(ham, "BRUTE_DIAGONAL_CAP", 3)
    with pytest.raises(CapExceededError):
        is_hamiltonian_brute(2, 2)


def per_cell_walk(grid, dec, omega):
    """Reference: the oriented walk from (0, 0), cell by cell from Diagonal.cells."""
    succ = {}
    for diag, ch in zip(dec.diagonals, omega):
        for cell in diag.cells:
            succ[cell] = step(grid, cell, ch)
    walk = [(0, 0)]
    while succ[walk[-1]] != (0, 0):
        walk.append(succ[walk[-1]])
    return walk


def per_cell_sweep(n, m):
    """Reference sweep: the first orientation string, U < R, whose per-cell
    walk covers the grid, with that walk; None when there is none."""
    grid = GridParams(n, m)
    dec = decompose(grid)
    for omega in product("UR", repeat=len(dec.diagonals)):
        walk = per_cell_walk(grid, dec, omega)
        if len(walk) == grid.size:
            return "".join(omega), walk
    return None


def test_line_walk_matches_per_cell_walk():
    # every orientation, Hamiltonian or not, up to 64 per grid
    for n in range(1, 10):
        for m in range(1, 10):
            grid = GridParams(n, m)
            dec = decompose(grid)
            for omega in islice(product("UR", repeat=len(dec.diagonals)), 64):
                flat = ham._walk_from_zero(dec, omega).tolist()
                assert [divmod(i, grid.cols) for i in flat] == per_cell_walk(grid, dec, omega)


def test_brute_matches_per_cell_sweep():
    for n in range(1, 9):
        for m in range(1, 9):
            if diag_count_tree(n, m) > ham.BRUTE_DIAGONAL_CAP:
                continue
            verdict, witness = is_hamiltonian_brute(n, m)
            ref = per_cell_sweep(n, m)
            assert verdict == (ref is not None), (n, m)
            if verdict:
                assert (witness.orientation, witness.cycle) == ref, (n, m)


def test_witness_rejects_orientation_that_does_not_cover():
    # the single diagonal of (2, 3) oriented up splits into three cycles
    with pytest.raises(InconsistencyError):
        ham._witness_from_omega(_dec(2, 3), "U")


def test_large_witness_validates():
    witness = hamiltonian_witness(264, 322)
    assert len(witness.cycle) == 4 * 264 * 322
    validate_witness(GridParams(264, 322), witness)


def test_witnesses_sweeps_and_tracing_expand_no_cells():
    _dec.cache_clear()
    grids = [(3, 3), (2, 4), (4, 6), (5, 7), (2, 7), (6, 6)]
    for n, m in grids:
        hamiltonian_witness(n, m)
        is_hamiltonian_brute(n, m)
        trace_components(GridParams(n, m), "U" * len(_dec(n, m).diagonals))
    square_construction(6)
    n2_orientation(7)
    for n, m in grids + [(2, 7)]:
        assert not any("cells" in vars(diag) for diag in _dec(n, m).diagonals), (n, m)


# --- link tier -----------------------------------------------------------------

def test_fast_tier_matches_brute_small():
    for n in range(1, 7):
        for m in range(n, 7):
            assert is_hamiltonian_brute(n, m)[0] == is_hamiltonian_fast(n, m)


def test_fast_examples():
    assert is_hamiltonian_fast(2, 4) == is_hamiltonian_brute(2, 4)[0]
    assert is_hamiltonian_fast(41, 56) is False
    assert all(is_hamiltonian_fast(n, n) for n in range(1, 13))


def test_grouped_link_matches_expanded_orientation():
    for n, m in [(2, 4), (3, 6), (2, 2), (4, 6)]:
        dec = _dec(n, m)
        ranges = [range(len(g) + 1) for g in dec.groups]
        for counts in product(*ranges):
            omega = expand_grouped(dec, counts)
            assert grouped_link(dec, counts) == orientation_link(dec, omega)


def test_swapping_parallel_diagonals_preserves_components():
    rng = random.Random(42)
    for n, m in [(2, 4), (2, 6), (3, 6), (6, 9), (4, 6), (3, 9)]:
        dec = _dec(n, m)
        multi = [g for g in dec.groups if len(g) >= 2]
        if not multi:
            continue
        for _ in range(10):
            omega = [rng.choice("UR") for _ in dec.diagonals]
            base = len(trace_components(dec.grid, "".join(omega)))
            group = rng.choice(multi)
            x, y = rng.sample(list(group), 2)
            omega[x], omega[y] = omega[y], omega[x]
            assert len(trace_components(dec.grid, "".join(omega))) == base


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
        cells = list(grid.cells())
        succ_u = {c: step(grid, c, "U") for c in cells}
        succ_r = {c: step(grid, c, "R") for c in cells}
        dec = _dec(n, m)
        diag_of = {}
        for diag in dec.diagonals:
            for cell in diag.cells:
                diag_of[cell] = diag.id
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
    witness = square_construction(n)
    assert len(witness.cycle) == 4 * n * n
    validate_witness(GridParams(n, n), witness)


def test_square_walk_start_row_calibration():
    # square_construction starts at row n: that offset closes on the three
    # smallest squares, and the other plausible reading, row n - 1, does not.
    assert all(ham._square_cycle(n, n) is not None for n in (1, 2, 3))
    assert any(ham._square_cycle(n, n - 1) is None for n in (1, 2, 3))


def test_diagonal_constant_reads_orientations_and_rejects_mixed_tables():
    for n, m in [(3, 3), (4, 6), (2, 7)]:
        dec = _dec(n, m)
        for omega in islice(product("UR", repeat=len(dec.diagonals)), 16):
            up = ham._cell_up(dec, omega)
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
    for m in (1, 2, 4, 6, 7, 8, 9, 14, 15, 16, 17):
        omega = n2_orientation(m)
        cycles = trace_components(GridParams(2, m), omega)
        assert len(cycles) == 1


def test_n2_stacked_layout_calibration():
    # The direct stacked layout validates the residue rules on small widths;
    # the layout with the lower rows rotated by the half-height 2 does not.
    def rotated(rho, col, m):
        return (rho, col) if rho < 4 else ((rho - 2) % 4, col + m)

    for m in (2, 4, 6, 7, 8, 9):
        assert ham._n2_omega_for(m, ham._n2_stacked) is not None
    for m in (2, 6, 7, 9):
        assert ham._n2_omega_for(m, rotated) is None


def test_n2_rejects_residues_three_and_five():
    for m in (3, 5, 11, 13):
        with pytest.raises(ValueError):
            n2_orientation(m)


def test_height_two_classification():
    for m in range(1, 25):
        expected = m % 8 not in (3, 5)
        assert is_hamiltonian_fast(2, m) == expected


def test_segment_successor_examples():
    assert segment_successor(5, 0) == 9
    assert segment_successor(5, 6) == -2
    assert segment_successor(5, 9) == -3
    with pytest.raises(ValueError):
        segment_successor(5, 10)
    with pytest.raises(ValueError):
        segment_successor(5, -4)


def test_segment_successor_matches_grid():
    for m in range(2, 25):
        for d in range(-3, 2 * m):
            assert segment_successor(m, d) == segment_successor_from_grid(m, d)


def test_segment_orbit_covers_everything_when_single_diagonal():
    for m in (3, 5, 11, 13):
        seen = {0}
        d = segment_successor(m, 0)
        while d != 0:
            seen.add(d)
            d = segment_successor(m, d)
        assert len(seen) == 2 * m + 3


# --- single-diagonal reports -------------------------------------------------

def test_one_diagonal_checks_applicable():
    report = one_diagonal_checks(2, 3)
    assert report.applicable
    assert report.base_not_hamiltonian
    assert report.doubled_hamiltonian
    assert report.doubled_link.as_tuple() == (3, 3, 2, 2)
    assert report.doubled_link_is_knot

    report = one_diagonal_checks(2, 5)
    assert report.doubled_link.as_tuple() == (5, 5, 2, 2)


def test_one_diagonal_checks_not_applicable():
    report = one_diagonal_checks(3, 5)
    assert not report.applicable
    assert report.base_not_hamiltonian is None


# --- periodicity ---------------------------------------------------------------

def test_periodicity_examples():
    assert periodicity_check(1, 2)
    assert periodicity_check(2, 3)
    assert periodicity_check(3, 5)
    assert is_hamiltonian_fast(2, 3) is False and is_hamiltonian_fast(2, 27) is False
    assert is_hamiltonian_fast(3, 5) is True and is_hamiltonian_fast(3, 41) is True


def test_link_tier_on_large_grids():
    assert is_hamiltonian_fast(300, 701) is False
    assert is_hamiltonian_fast(1000, 1001) is True
    assert periodicity_check(300, 701)
    assert periodicity_check(1000, 1001)


def test_periodicity_rejects_common_factor():
    with pytest.raises(ValueError):
        periodicity_check(2, 4)


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


def test_torus_formula_against_trace():
    # sizes >= 2: a length-1 cycle factor degenerates into self-loops
    for n in range(2, 9):
        for m in range(2, 9):
            g = math.gcd(n, m)
            traced = any(
                torus1_components(n, m, "".join(omega)) == 1
                for omega in product("UR", repeat=g)
            )
            assert traced == ham_torus1(n, m)


# --- misc -----------------------------------------------------------------------

def test_orientation_k_integral_for_coprime_sizes():
    for n, m in coprime_pairs(8):
        dec = _dec(n, m)
        for omega in product("UR", repeat=len(dec.diagonals)):
            assert 0 <= orientation_k(dec, "".join(omega)) <= 4


def test_up_cell_count_sums_runs_without_expanding_cells():
    for n, m in coprime_pairs(8):
        dec = decompose(GridParams(n, m))
        counts = [up_cell_count(dec, "".join(omega))
                  for omega in product("UR", repeat=len(dec.diagonals))]
        assert not any("cells" in vars(diag) for diag in dec.diagonals)
        assert counts == [
            sum(len(diag.cells) for diag, ch in zip(dec.diagonals, omega) if ch == "U")
            for omega in product("UR", repeat=len(dec.diagonals))
        ]


def test_validate_witness_rejects_garbage():
    grid = GridParams(1, 1)
    with pytest.raises(InconsistencyError):
        validate_witness(grid, HamWitness("UR", [(0, 0), (0, 1), (1, 0)]))


def test_diag_count_consistency_with_reports():
    # single-diagonal counts reported by the fast counter gate the reports
    for n, m in [(2, 3), (2, 5), (2, 11)]:
        assert diag_count_tree(n, m) == 1

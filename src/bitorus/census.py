"""Batch surveys over coprime grid sizes.

`diag_distribution` and `exceptional_pairs` enumerate the coprime
pairs n < m <= h top-down, as two ternary trees sharing the children
(2m - n, m), (2m + n, m) and (m + 2n, n): the even-odd pairs below
(2, 1) and the odd-odd pairs below (3, 1).  Each pair is visited once,
at O(1) cost: no gcd filter and no walk back to the root.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .counting import tree_map_table
from .errors import check_int
from .hamiltonicity import is_hamiltonian_fast


@dataclass(frozen=True)
class PairRecord:
    n: int
    m: int
    diag: int
    hamiltonian: bool
    method: str


@dataclass(frozen=True)
class DistributionReport:
    """Diagonal-count distribution over coprime pairs up to a horizon."""

    h: int
    pairs: int
    count1: int
    count2: int
    count3: int

    @property
    def p1(self) -> Fraction:
        return Fraction(self.count1, self.pairs)

    @property
    def p2(self) -> Fraction:
        return Fraction(self.count2, self.pairs)

    @property
    def p3(self) -> Fraction:
        return Fraction(self.count3, self.pairs)


def exceptional_pairs(max_m: int) -> list[PairRecord]:
    """Coprime pairs n < m <= max_m with several diagonals yet no cycle.

    Single-diagonal grids are never Hamiltonian, so these are the
    genuinely exceptional sizes.  The pairs come from top-down walks of
    the two coprime trees, each with its diagonal count: an even-odd
    pair's is the value of the map id the walk carries, and every
    odd-odd pair has 2.  Only the pairs with at least 2 diagonals get
    the link tier's `is_hamiltonian_fast`.  Sorted lexicographically.
    """
    max_m = check_int(max_m, 2, "max_m")
    table = tree_map_table()
    values = table.values
    found = [
        (n, m, values[f])
        for m, n, f in _tree_nodes((2, 1), max_m, table.children)
        if values[f] >= 2 and not is_hamiltonian_fast(n, m)
    ]
    found += [
        (n, m, 2)
        for m, n, _ in _tree_nodes((3, 1), max_m, ((0, 0, 0),))
        if not is_hamiltonian_fast(n, m)
    ]
    return [PairRecord(n, m, diag, False, "link") for n, m, diag in sorted(found)]


def _tree_nodes(
    root: tuple[int, int], h: int, children: tuple[tuple[int, int, int], ...]
) -> Iterator[tuple[int, int, int]]:
    """Each node (m, n, f) of the tree below `root` with m <= h.

    The walk of `_tree_visits`, yielding the nodes it counts there.  The
    census keeps its own copy of the walk: counting through this
    generator made the even-odd walk about 30% slower at h = 1000.
    """
    stack = [(*root, 0)] if root[0] <= h else []
    pop, push = stack.pop, stack.append
    while stack:
        m, n, f = pop()
        while True:
            yield m, n, f
            gamma, delta, lam = children[f]
            c = m + 2 * n
            if c <= h:
                push((c, n, lam))
            c = 2 * m - n
            if c > h:
                break
            if c + 2 * n <= h:
                push((c + 2 * n, m, delta))
            m, n, f = c, m, gamma


def _tree_visits(
    root: tuple[int, int], h: int, children: tuple[tuple[int, int, int], ...]
) -> list[int]:
    """Visits per map id over the tree below `root`, pruned at m > h.

    children[f] holds the map ids of the gamma-, delta- and lambda-child
    of a node with map id f; the root has id 0.  Each node pushes its
    lambda- and delta-child and moves on to its gamma-child, which is
    pruned whenever the delta-child is.  The stack is explicit because
    the tree is up to h/2 deep.
    """
    visits = [0] * len(children)
    stack = [(*root, 0)] if root[0] <= h else []
    pop, push = stack.pop, stack.append
    while stack:
        m, n, f = pop()
        while True:
            visits[f] += 1
            gamma, delta, lam = children[f]
            c = m + 2 * n
            if c <= h:
                push((c, n, lam))
            c = 2 * m - n
            if c > h:
                break
            if c + 2 * n <= h:
                push((c + 2 * n, m, delta))
            m, n, f = c, m, gamma
    return visits


def diag_distribution(h: int) -> DistributionReport:
    """Exact diagonal-count distribution over coprime pairs m > n, m <= h.

    One top-down walk of each tree visits every pair once, at O(1) cost
    per pair.  An even-odd node carries the automaton's state map of its
    tree string as an id into `tree_map_table`, so its child's map is one
    table lookup and its count one more; every odd-odd pair has 2
    diagonals, so that walk only counts nodes.
    """
    h = check_int(h, 2, "h")
    table = tree_map_table()
    tally = [0, 0, 0, 0]
    for value, visits in zip(table.values, _tree_visits((2, 1), h, table.children)):
        tally[value] += visits
    tally[2] += _tree_visits((3, 1), h, ((0, 0, 0),))[0]  # one map: every pair counts 2
    return DistributionReport(h, sum(tally), tally[1], tally[2], tally[3])

"""Batch surveys over coprime grid sizes.

`diag_distribution` and `exceptional_pairs` enumerate the coprime
pairs n < m <= h top-down with one walk, `_tree_walk`, over two ternary
trees sharing the children (2m - n, m), (2m + n, m) and (m + 2n, n):
the even-odd pairs below (2, 1) and the odd-odd pairs below (3, 1).
Each node carries a map id whose value is the pair's diagonal count;
the odd-odd tree has one map, valued 2.  Each pair is visited once, at
O(1) cost: no gcd filter and no walk back to the root.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .counting import tree_map_table
from .errors import check_int
from .hamiltonicity import is_hamiltonian_fast

Children = tuple[tuple[int, int, int], ...]


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
    genuinely exceptional sizes.  The tree walk yields only the pairs
    whose map id values at least 2 diagonals, and only those get the
    link tier's `is_hamiltonian_fast`.  Sorted lexicographically.
    """
    max_m = check_int(max_m, 2, "max_m")
    found = []
    for root, children, values in _trees():
        keep = [value >= 2 for value in values]
        found += [
            (n, m, values[f])
            for m, n, f in _tree_walk(root, max_m, children, [0] * len(values), keep)
            if not is_hamiltonian_fast(n, m)
        ]
    return [PairRecord(n, m, diag, False, "link") for n, m, diag in sorted(found)]


def diag_distribution(h: int) -> DistributionReport:
    """Exact diagonal-count distribution over coprime pairs m > n, m <= h.

    One top-down walk of each tree visits every pair once, at O(1) cost
    per pair, keeping no node: an even-odd node carries the automaton's
    state map of its tree string as an id into `tree_map_table`, so its
    child's map is one table lookup, and the tally adds each map's value
    once per visit.
    """
    h = check_int(h, 2, "h")
    tally = [0, 0, 0, 0]
    for root, children, values in _trees():
        visits = [0] * len(values)
        for _ in _tree_walk(root, h, children, visits, [False] * len(values)):
            pass
        for value, count in zip(values, visits):
            tally[value] += count
    return DistributionReport(h, sum(tally), tally[1], tally[2], tally[3])


def _trees() -> tuple[tuple[tuple[int, int], Children, tuple[int, ...]], ...]:
    """Both coprime trees as (root, children, values) of their map ids.

    The even-odd tree takes `tree_map_table`'s maps; every odd-odd pair
    has 2 diagonals, so that tree has one map.
    """
    table = tree_map_table()
    return ((2, 1), table.children, table.values), ((3, 1), ((0, 0, 0),), (2,))


def _tree_walk(
    root: tuple[int, int], h: int, children: Children, visits: list[int], keep: list[bool]
) -> Iterator[tuple[int, int, int]]:
    """Each node (m, n, f) of the tree below `root` with m <= h and keep[f].

    Every node with m <= h adds 1 to visits[f].  children[f] holds the
    map ids of the gamma-, delta- and lambda-child of a node with map
    id f; the root has id 0.  Each node pushes its lambda- and
    delta-child and moves on to its gamma-child, which is pruned
    whenever the delta-child is.  The stack is explicit because the
    tree is up to h/2 deep.
    """
    stack = [(*root, 0)] if root[0] <= h else []
    pop, push = stack.pop, stack.append
    while stack:
        m, n, f = pop()
        while True:
            visits[f] += 1
            if keep[f]:
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

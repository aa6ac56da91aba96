"""Batch surveys over coprime grid sizes.

`exceptional_pairs` and `diag_distribution` cover the coprime pairs
n < m <= h as `_FOREST`, two ternary trees sharing the children
(2m - n, m), (2m + n, m) and (m + 2n, n): the even-odd pairs below
(2, 1) and the odd-odd pairs below (3, 1).  Each even-odd node carries
its map id in `counting.TREE_MAPS`, the tree automaton whose ids
`diag_count_tree` steps; an id's value is the pair's diagonal count,
and the odd-odd tree has one more map, valued 2.  The table lists the
nodes of both trees with `_nodes`, a plain walk on Python ints; the
census walks only the even-odd tree, with the forest walk
`_forest_walk`, and counts the odd-odd tree, a third of the pairs, with
the totient recursion `_odd_odd_pairs` in O(h^(3/4)) steps.

The forest walk takes the tree a run at a time, in numpy, moving ids by
the same `run_powers` tables the single-pair count reads: from a
frontier node (m, n) it takes the whole gamma run (m + kd, n + kd),
d = m - n, the whole lambda run (m + 2kn, n) and the delta child
(2m + n, m).  A node's generation is the number of runs in its
address, so a horizon h takes O(log h) generations: 9, 10 and 11 at
h = 1000, 2000 and 4000, and at most log2(h) + 1 for every h <= 4000.
Run steps whose children all exceed h are leaves, counted by map id
from a prefix-count table over the powers of the run's child map; only
the others are built, a sixth of the pairs (50,715 of 304,191 at
h = 1000).  A step expands at most `_CHUNK` frontier nodes, last in
first out, so the frontier holds a few chunks per generation: memory
grows with the generations, not with the O(h^2) pairs (a tracemalloc
peak of 1.45 MB at h = 1000 and 1.94 MB at h = 4000).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .counting import TREE_MAPS, run_powers
from .errors import CapExceededError, check_int
from .hamiltonicity import is_hamiltonian_fast

_CHUNK = 4096  # frontier nodes expanded per step; bounds the walk's memory
_GAMMA, _LAMBDA, _BOTH = 1, 2, 3  # frontier flags: the runs a node starts


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
    genuinely exceptional sizes.  The plain walk `_nodes` lists every
    pair with its map id; only those whose id values at least 2
    diagonals get the link tier's `is_hamiltonian_fast`, in
    lexicographic order.
    """
    max_m = _check_horizon(max_m, "max_m", "the table's O(h^2) link-tier searches are capped at")
    values = _FOREST.values.tolist()
    rows = sorted((n, m, values[f]) for m, n, f in _nodes(max_m) if values[f] >= 2)
    return [PairRecord(n, m, diag, False, "link") for n, m, diag in rows if not is_hamiltonian_fast(n, m)]


def diag_distribution(h: int) -> DistributionReport:
    """Exact diagonal-count distribution over coprime pairs m > n, m <= h.

    The forest walk counts every even-odd pair's map id, building a
    sixth of all pairs and counting the rest run by run: an even-odd
    node's id names the automaton's state map of its tree string in
    `TREE_MAPS`, whose value is the pair's count.  O(log h) generations
    of numpy steps over at most `_CHUNK` nodes each.  The odd-odd pairs,
    all valued 2, are counted by the totient recursion of
    `_odd_odd_pairs`, without a walk.
    """
    h = _check_horizon(h, "h", "the census's forest walk, int64 up to 5 h, needs")
    visits, _ = _forest_walk(h)
    counts = (int(visits[_FOREST.values == value].sum()) for value in (1, 2, 3))
    return DistributionReport(h, int(visits.sum()), *counts)


def _check_horizon(h, what: str, cap: str) -> int:
    """h as an int; ValueError below 2, CapExceededError, led by `cap`, above 2**60."""
    h = check_int(h, 2, what)
    if h > 2**60:
        raise CapExceededError(f"{cap} h <= 2**60, got {h}")
    return h


@dataclass(frozen=True)
class _RunIds:
    """Map ids along a run of one child map phi, from its `run_powers` table.

    powers[j, f] is phi^j(f) for j < transient + period, where
    phi^(transient + period) = phi^transient; counts[j, f, g] counts
    the steps k < j with phi^k(f) = g.
    """

    powers: np.ndarray
    counts: np.ndarray
    transient: int
    period: int

    @classmethod
    def of(cls, phi: np.ndarray) -> _RunIds:
        transient, period, powers = run_powers(phi.tolist())
        powers = np.array(powers)
        steps = np.eye(len(phi), dtype=np.int64)[powers].cumsum(axis=0)
        counts = np.concatenate((np.zeros((1, len(phi), len(phi)), np.int64), steps))
        return cls(powers, counts, transient, period)

    def _phase(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(whole periods q, table row k - q period) of step k."""
        q = np.maximum((k - self.transient) // self.period, 0)
        return q, k - q * self.period

    def ids(self, f: np.ndarray, k: np.ndarray) -> np.ndarray:
        """phi^k(f)."""
        return self.powers[self._phase(k)[1], f]

    def visits(self, f: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Visits per id of the steps lo <= k < hi of the runs from f, summed."""
        rows, ids = self.counts.shape[:2]
        (q_hi, j_hi), (q_lo, j_lo) = self._phase(hi), self._phase(lo)
        at = np.bincount(j_hi * ids + f, minlength=rows * ids)
        at -= np.bincount(j_lo * ids + f, minlength=rows * ids)
        periods = np.zeros(ids, np.int64)
        np.add.at(periods, f, q_hi - q_lo)
        period = self.counts[self.transient + self.period] - self.counts[self.transient]
        return at @ self.counts.reshape(rows * ids, ids) + periods @ period


@dataclass(frozen=True)
class _Forest:
    """Both coprime trees, their nodes' map ids and the ids along their runs.

    roots holds the (m, n, f) columns of (2, 1) and (3, 1);
    children[f] the map ids of the gamma-, delta- and lambda-child of
    a node with map id f; values[f] the diagonal count of its pairs.
    """

    roots: np.ndarray
    children: np.ndarray
    values: np.ndarray
    gamma: _RunIds
    lam: _RunIds


def _forest() -> _Forest:
    """The even-odd tree on the map ids of `TREE_MAPS`, the odd-odd tree on one more.

    Every odd-odd pair has 2 diagonals, so the tree below (3, 1) has one
    map, the last id, which is its own child.
    """
    odd = len(TREE_MAPS.children)
    children = np.array((*TREE_MAPS.children, (odd, odd, odd)))
    forest = _Forest(
        np.array([[2, 3], [1, 1], [0, odd]]),
        children,
        np.array((*TREE_MAPS.values, 2)),
        _RunIds.of(children[:, 0]),
        _RunIds.of(children[:, 2]),
    )
    runs = (forest.gamma.powers, forest.gamma.counts, forest.lam.powers, forest.lam.counts)
    for array in (forest.roots, forest.children, forest.values, *runs):
        array.flags.writeable = False  # shared by every call
    return forest


_FOREST = _forest()


def _nodes(h: int) -> Iterator[tuple[int, int, int]]:
    """(m, n, map id) of every node of the forest up to h, depth first on Python ints."""
    children = _FOREST.children.tolist()
    stack = [tuple(root) for root in _FOREST.roots.T.tolist() if root[0] <= h]
    while stack:
        m, n, f = node = stack.pop()
        yield node
        gamma, delta, lam = children[f]
        if 2 * m - n <= h:  # the delta child's m, 2m + n, exceeds the gamma child's
            stack.append((2 * m - n, m, gamma))
            if 2 * m + n <= h:
                stack.append((2 * m + n, m, delta))
        if m + 2 * n <= h:
            stack.append((m + 2 * n, n, lam))


def _odd_odd_pairs(h: int) -> int:
    """Coprime pairs n < m <= h with n and m both odd, without walking them.

    Phi(x), the ordered coprime pairs of odd numbers up to x, counting
    (1, 1), splits the K^2 ordered odd pairs, K = (x + 1) // 2, by their
    gcd e, always odd: K^2 = sum of Phi(x // e) over odd e >= 1.  The
    recursion takes each block of e with one quotient x // e at once and
    memoises Phi on the O(sqrt h) distinct quotients, so it costs
    O(h^(3/4)) steps on Python ints.  The pairs n < m are (Phi(h) - 1) / 2.
    """
    memo = {}

    def phi(x: int) -> int:
        if x not in memo:
            total, e = ((x + 1) // 2) ** 2, 3
            while e <= x:
                q = x // e
                last = x // q  # the last e with quotient q
                total -= ((last - e) // 2 + 1) * phi(q)
                e = last + 1 + last % 2  # the next odd e
            memo[x] = total
        return memo[x]

    return (phi(h) - 1) // 2


def _forest_walk(h: int) -> tuple[np.ndarray, int]:
    """Visits per map id and generation count of the forest up to h.

    Only the even-odd tree below (2, 1) is walked: every odd-odd pair has
    the last map id, so that id's visits are `_odd_odd_pairs(h)`, and
    the generations are the even-odd tree's.

    The frontier holds columns (m, n, f, flags, generation): each node
    has its delta child, and starts the runs its flags name; a node
    reached by a gamma run starts no gamma run, one reached by a lambda
    run no lambda run.  Run steps whose children all exceed h are
    leaves, counted by `_RunIds.visits`.  A step expands at most
    `_CHUNK` nodes into at most `_CHUNK` built children, or one node
    into at most `2 _CHUNK + 1`: a run longer than `_CHUNK` is cut, and
    its last built step carries it on.  `generations` counts the
    expanded levels.
    """
    children, gamma, lam = _FOREST.children, _FOREST.gamma, _FOREST.lam
    visits = np.zeros(len(children), np.int64)
    stack = []
    generations = 0

    def built(nodes: np.ndarray) -> None:
        nonlocal visits
        visits += np.bincount(nodes[2], minlength=len(visits))
        stack.extend(nodes[:, i : i + _CHUNK] for i in range(0, nodes.shape[1], _CHUNK))

    visits[-1] = _odd_odd_pairs(h)
    built(np.vstack((_FOREST.roots[:, :1], [[_BOTH], [0]])))
    while stack:
        node = stack.pop()
        while stack and node.shape[1] + stack[-1].shape[1] <= _CHUNK:
            node = np.concatenate((node, stack.pop()), axis=1)
        m, n, _, flags, _ = node
        # per run, gamma then lambda: its steps to the horizon, and the steps
        # built, those with a child <= h (m + 2n after gamma, 2m - n after lambda)
        whole = np.stack((
            np.where(flags & _GAMMA, (h - m) // (m - n), 0),
            np.where(flags & _LAMBDA, (h - m) // (2 * n), 0),
        ))
        grown = np.stack(((h - m - 2 * n) // (3 * (m - n)), (h - 2 * m + n) // (4 * n)))
        grown = np.clip(grown, 0, whole)
        take = np.minimum(grown, _CHUNK)
        # delta children (2m + n, m) start both runs; theirs reach h iff 3m + 2n does
        reach, grow = 2 * m + n <= h, 3 * m + 2 * n <= h
        p = max(1, int(np.searchsorted(np.cumsum(take.sum(axis=0) + grow), _CHUNK, side="right")))
        if p < len(m):
            stack.append(node[:, p:])
            node, whole, grown, take, reach, grow = (
                a[..., :p] for a in (node, whole, grown, take, reach, grow)
            )
        m, n, f, _, gen = node
        generations = max(generations, int(gen.max()) + 1)
        new = []
        for r, (run, flag, step_m, step_n) in enumerate(
            ((gamma, _GAMMA, m - n, m - n), (lam, _LAMBDA, 2 * n, 0 * n))
        ):
            # a cut run counts no leaves here: its last built step carries it on
            leaves = np.where(take[r] < grown[r], whole[r], grown[r])
            visits += run.visits(f, leaves + 1, whole[r] + 1)
            new.append(_run_nodes(node, take[r], grown[r], step_m, step_n, run, flag))
        visits += np.bincount(children[f[reach & ~grow], 1], minlength=len(visits))
        delta = (2 * m + n, m, children[f, 1], np.full_like(m, _BOTH), gen + 1)
        new.append(np.stack(delta)[:, grow])
        built(np.concatenate(new, axis=1))
    return visits, generations


def _run_nodes(node, take, whole, step_m, step_n, run: _RunIds, flag: int) -> np.ndarray:
    """Steps k = 1..take[i] of the `flag` runs from node i, as frontier columns.

    Step k is (m + k step_m, n + k step_n) with map id run.ids(f, k),
    and starts the other run; where take < whole the run is cut, and
    its step k = take carries it on.
    """
    m, n, f, _, gen = node
    i = np.repeat(np.arange(len(take)), take)
    k = np.arange(len(i)) - np.repeat(np.cumsum(take) - take, take) + 1
    cut = (k == take[i]) & (take[i] < whole[i])
    return np.stack((
        m[i] + k * step_m[i],
        n[i] + k * step_n[i],
        run.ids(f[i], k),
        np.where(cut, _BOTH, _BOTH ^ flag),
        gen[i] + 1,
    ))

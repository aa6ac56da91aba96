"""Fast diagonal counting: crossing strings, pair reductions, tree walk.

Three independent accelerations of the orbit count, from O(n+m) down to
O(log n):

* Crossing strings.  On the n x m torus the diagonal crosses the bottom
  and right boundaries in a fixed pattern; reading each crossing as a
  permutation of the four quadrants of the folded 2n x 2m grid turns
  the diagonal count into a cycle count of a word over two 4-cycles.

* Pair reductions.  Ten rewriting rules shrink a coprime pair while
  preserving the diagonal count, terminating in one of six base pairs.

* Ternary tree.  Coprime pairs (m, n) with m > n and m + n odd form a
  ternary tree rooted at (2, 1); the path from a pair to the root,
  canonicalised by five rewriting rules, determines the count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

from .errors import InconsistencyError
from .surface import RIGHT, UP_INV, GridParams, check_sizes, step
from .diagonals import diag_count_naive

QuadPerm = tuple[int, int, int, int]

IDENTITY: QuadPerm = (0, 1, 2, 3)
_HALF_SWAP: QuadPerm = (1, 0, 3, 2)  # exchange left and right quadrant columns

GAMMA = "γ"
DELTA = "δ"
LAMBDA = "λ"
TREE_CHARS = GAMMA + DELTA + LAMBDA

CANONICAL_STRINGS = ("", GAMMA, GAMMA + GAMMA, LAMBDA)

#: Irreducible base pairs of the reduction system (n <= m).
TERMINAL_PAIRS = frozenset({(1, 1), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4)})


def compose(p: QuadPerm, q: QuadPerm) -> QuadPerm:
    """Permutation applying q first, then p."""
    return tuple(p[q[i]] for i in range(len(q)))


def perm_cycles(p) -> int:
    """Number of cycles, fixed points included."""
    seen = [False] * len(p)
    count = 0
    for start in range(len(p)):
        if seen[start]:
            continue
        count += 1
        i = start
        while not seen[i]:
            seen[i] = True
            i = p[i]
    return count


def _is_four_cycle(p: QuadPerm) -> bool:
    return len(p) == 4 and perm_cycles(p) == 1


def _uniform_image(grid: GridParams, cells, move: str) -> int:
    """Quadrant reached from a set of cells by one move; must be unique."""
    n, m = grid.n, grid.m
    targets = set()
    for cell in cells:
        row, col = step(grid, cell, move)
        targets.add((0 if row < n else 2) + (0 if col < m else 1))
    if len(targets) != 1:
        raise InconsistencyError(
            f"move {move} from one quadrant of grid ({n},{m}) reaches {targets}"
        )
    return targets.pop()


def derive_quad_perms(grid: GridParams | None = None) -> tuple[QuadPerm, QuadPerm]:
    """Quadrant permutations for a down-crossing and a right-crossing.

    Derived mechanically from the wrap rules rather than hard-coded, so
    they stay consistent with the surface module by construction.
    """
    if grid is None:
        grid = GridParams(2, 3)
    n, m = grid.n, grid.m
    if n < 2 or m < 2:
        raise ValueError("need n, m >= 2 to derive quadrant permutations")
    down = []
    right = []
    for qrow, qcol in ((0, 0), (0, m), (n, 0), (n, m)):
        bottom = [(qrow + n - 1, qcol + j) for j in range(m)]
        down.append(_uniform_image(grid, bottom, UP_INV))
        edge = [(qrow + i, qcol + m - 1) for i in range(n)]
        right.append(_uniform_image(grid, edge, RIGHT))
    d_perm = tuple(down)
    r_perm = tuple(right)
    if not (_is_four_cycle(d_perm) and _is_four_cycle(r_perm)):
        raise InconsistencyError(f"crossing permutations not 4-cycles: {d_perm}, {r_perm}")
    d4 = compose(d_perm, compose(d_perm, compose(d_perm, d_perm)))
    if d4 != IDENTITY:
        raise InconsistencyError("down-crossing permutation does not have order 4")
    if compose(_HALF_SWAP, compose(d_perm, _HALF_SWAP)) != d_perm:
        raise InconsistencyError("half swap does not commute with the down-crossing")
    r_inv = tuple(r_perm.index(i) for i in range(4))
    if compose(_HALF_SWAP, compose(r_perm, _HALF_SWAP)) != r_inv:
        raise InconsistencyError("half swap does not invert the right-crossing")
    return d_perm, r_perm


@cache
def _quad_perms() -> tuple[QuadPerm, QuadPerm]:
    return derive_quad_perms()


def _check_string_args(n: int, m: int) -> None:
    if n <= 1 or m <= 1:
        raise ValueError(f"crossing strings need n, m > 1, got ({n}, {m})")
    if math.gcd(n, m) != 1:
        raise ValueError(f"crossing strings need coprime sizes, got ({n}, {m})")


def string_intervals(n: int, m: int) -> str:
    """Crossing string read off the torus diagonal bottom-crossing first.

    Walking the multiples n, 2n, ..., mn, each step contributes the
    right-crossings accumulated since the previous multiple, then one
    down-crossing.
    """
    _check_string_args(n, m)
    parts = []
    for j in range(1, m + 1):
        i = (j * n) // m - ((j - 1) * n) // m
        parts.append("r" * i + "d")
    return "".join(parts)


def string_powers(n: int, m: int) -> str:
    """Conjugated crossing string built right-crossing last.

    Equals the bottom-first string conjugated by one down-crossing.
    """
    _check_string_args(n, m)
    k, p = divmod(m, n)
    parts = []
    for i in range(n):
        e = k + 1 if (-i * m) % n < p else k
        parts.append("d" * e + "r")
    return "".join(parts)


def string_cycles(word: str) -> int:
    """Cycle count of a crossing word, first crossing applied first."""
    d_perm, r_perm = _quad_perms()
    net = IDENTITY
    for ch in word:
        if ch == "d":
            net = compose(d_perm, net)
        elif ch == "r":
            net = compose(r_perm, net)
        else:
            raise ValueError(f"crossing characters must be d or r, got {ch!r}")
    return perm_cycles(net)


def diag_count_string(n: int, m: int) -> int:
    """Diagonal count via the crossing-string permutation."""
    n, m = check_sizes(n, m)
    g = math.gcd(n, m)
    a, b = n // g, m // g
    if a == 1 or b == 1:
        # The string construction excludes side-1 shapes; count directly.
        return g * diag_count_naive(a, b)
    return g * string_cycles(string_powers(a, b))


# ---------------------------------------------------------------------------
# Pair reductions


@dataclass(frozen=True)
class ReductionState:
    """A coprime pair with its double-remainder Euclidean data.

    m = q0*n + r0, n = q1*r0 + r1, r0 = q2*r1 + r2; the later quotients
    are None where the previous remainder vanished.
    """

    n: int
    m: int
    q0: int
    r0: int
    q1: int | None
    r1: int | None
    q2: int | None
    r2: int | None


def euclid_state(n: int, m: int) -> ReductionState:
    if not (1 <= n <= m):
        raise ValueError(f"need 1 <= n <= m, got ({n}, {m})")
    if math.gcd(n, m) != 1:
        raise ValueError(f"reductions need a coprime pair, got ({n}, {m})")
    q0, r0 = divmod(m, n)
    q1 = r1 = q2 = r2 = None
    if r0 > 0:
        q1, r1 = divmod(n, r0)
        if r1 > 0:
            q2, r2 = divmod(r0, r1)
    return ReductionState(n, m, q0, r0, q1, r1, q2, r2)


def _branch_rules(s: ReductionState) -> list[tuple[int, tuple[int, int]]]:
    """All reduction branches whose guard matches the state."""
    n, r0, q1, r1, q2, r2 = s.n, s.r0, s.q1, s.r1, s.q2, s.r2
    out = []
    if s.q0 >= 4:
        out.append((1, (n, (s.q0 - 4) * n + r0)))
    if s.q0 == 3:
        out.append((2, (n, n - r0)))
    if s.q0 == 2:
        out.append((3, (n, 2 * n - r0)))
    if s.q0 == 1 and q1 is not None:
        if q1 >= 4:
            out.append((4, ((q1 - 3) * r0 + r1, (q1 - 2) * r0 + r1)))
        if q1 == 3 and r1 > 0:
            out.append((5, (r1, r0 + r1)))
        if q1 == 2 and r1 > 0:
            out.append((6, (r1, r0 - r1)))
        if q1 == 1 and q2 is not None:
            if q2 % 2 == 0 and r1 > r2 > 0:
                out.append((7, (r1 + r2, r1 + 2 * r2)))
            if q2 % 2 == 0 and r1 > r2 == 0:
                out.append((8, (1, 1)))
            if q2 % 2 == 1 and r1 > r2 > 0:
                out.append((9, (r2, r1 + 2 * r2)))
            if q2 % 2 == 1 and r1 > r2 == 0:
                out.append((10, (2, 3)))
    return out


def reduce_pair(n: int, m: int) -> tuple[int, int] | None:
    """One reduction step, or None when the pair is a base pair.

    Exactly one branch must match any non-terminal pair; anything else
    is an internal inconsistency.  The emitted pair is returned raw and
    may need reordering by the caller.
    """
    if (n, m) in TERMINAL_PAIRS:
        return None
    matches = _branch_rules(euclid_state(n, m))
    if len(matches) != 1:
        raise InconsistencyError(
            f"pair ({n}, {m}) matched branches {[i for i, _ in matches]}, expected exactly one"
        )
    return matches[0][1]


def reduction_trace(n: int, m: int) -> list[tuple[int, int]]:
    """Pairs visited from (n, m) down to a base pair, reordered ascending."""
    n, m = check_sizes(n, m)
    g = math.gcd(n, m)
    a, b = sorted((n // g, m // g))
    trail = [(a, b)]
    for _ in range(10_000):
        nxt = reduce_pair(a, b)
        if nxt is None:
            return trail
        a, b = sorted(nxt)
        trail.append((a, b))
    raise InconsistencyError(f"reduction of ({n}, {m}) did not terminate")


def diag_count_reduction(n: int, m: int) -> int:
    """Diagonal count via the reduction system and cached base values."""
    base = reduction_trace(n, m)[-1]
    return math.gcd(n, m) * diag_count_naive(*base)


# ---------------------------------------------------------------------------
# Ternary tree of even-odd coprime pairs


def tree_children(m: int, n: int) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
    """The three tree children of (m, n)."""
    return (2 * m - n, m), (2 * m + n, m), (m + 2 * n, n)


def apply_tree_string(ts: str, pair: tuple[int, int] = (2, 1)) -> tuple[int, int]:
    """Evaluate a tree string, innermost (rightmost) character first."""
    m, n = pair
    for ch in reversed(ts):
        if ch == GAMMA:
            m, n = 2 * m - n, m
        elif ch == DELTA:
            m, n = 2 * m + n, m
        elif ch == LAMBDA:
            m, n = m + 2 * n, n
        else:
            raise ValueError(f"tree characters must be one of {TREE_CHARS}, got {ch!r}")
    return m, n


def _check_tree_pair(m: int, n: int) -> None:
    if not (m > n >= 1):
        raise ValueError(f"tree pairs need m > n >= 1, got ({m}, {n})")
    if math.gcd(m, n) != 1:
        raise ValueError(f"tree pairs must be coprime, got ({m}, {n})")
    if (m + n) % 2 == 0:
        raise ValueError(f"tree pairs need m + n odd, got ({m}, {n})")


def tree_string(m: int, n: int) -> str:
    """Address of an even-odd pair in the tree rooted at (2, 1).

    Characters are produced outermost first: the first character is the
    last map applied on the way from the root to (m, n).
    """
    _check_tree_pair(m, n)
    chars = []
    while (m, n) != (2, 1):
        if m < 2 * n:
            chars.append(GAMMA)
            m, n = n, 2 * n - m
        elif m < 3 * n:
            chars.append(DELTA)
            m, n = n, m - 2 * n
        else:
            chars.append(LAMBDA)
            m = m - 2 * n
    return "".join(chars)


def _reduce_leading(s: str) -> str:
    """Normal form of a tree string under the five head rewriting rules.

    Each rule rewrites the outermost maps and is valid for any inner
    value, so repeatedly rewriting the head of the string is sound:
    a leading delta acts like gamma; a leading lambda cancels with the
    next character; gamma-delta acts like lambda; gamma-lambda like
    gamma; and a leading gamma-gamma cancels with the next character.
    """
    while True:
        if s.startswith(DELTA):
            s = GAMMA + s[1:]
        elif s.startswith(LAMBDA) and len(s) >= 2:
            s = s[2:]
        elif s.startswith(GAMMA + DELTA):
            s = LAMBDA + s[2:]
        elif s.startswith(GAMMA + LAMBDA):
            s = GAMMA + s[2:]
        elif s.startswith(GAMMA + GAMMA) and len(s) >= 3:
            s = s[3:]
        else:
            return s


def _build_transitions() -> dict[tuple[str, str], str]:
    table = {}
    for state in CANONICAL_STRINGS:
        for ch in TREE_CHARS:
            nxt = _reduce_leading(state + ch)
            if nxt not in CANONICAL_STRINGS:
                raise InconsistencyError(
                    f"rewriting {state + ch!r} stalled at non-canonical {nxt!r}"
                )
            table[(state, ch)] = nxt
    return table


_TRANSITIONS = _build_transitions()


def canonicalize(ts: str) -> str:
    """Canonical form of a tree string: one of '', gamma, gamma^2, lambda.

    Folds the string outermost character first, keeping the canonical
    form of the processed prefix as the automaton state.
    """
    state = ""
    for ch in ts:
        if ch not in TREE_CHARS:
            raise ValueError(f"tree characters must be one of {TREE_CHARS}, got {ch!r}")
        state = _TRANSITIONS[(state, ch)]
    return state


@cache
def _canonical_values() -> dict[str, int]:
    """Diagonal count at each canonical pair, from the direct counter."""
    values = {}
    for state in CANONICAL_STRINGS:
        m, n = apply_tree_string(state)
        values[state] = diag_count_naive(n, m)
    return values


def diag_count_tree(n: int, m: int) -> int:
    """Diagonal count in O(log) time via the canonicalised tree address."""
    n, m = check_sizes(n, m)
    g = math.gcd(n, m)
    a, b = n // g, m // g
    if a % 2 == 1 and b % 2 == 1:
        return 2 * g
    big, small = (a, b) if a > b else (b, a)
    state = ""
    transitions = _TRANSITIONS
    while (big, small) != (2, 1):
        if big < 2 * small:
            big, small = small, 2 * small - big
            state = transitions[(state, GAMMA)]
        elif big < 3 * small:
            big, small = small, big - 2 * small
            state = transitions[(state, DELTA)]
        else:
            big -= 2 * small
            state = transitions[(state, LAMBDA)]
    return g * _canonical_values()[state]


# ---------------------------------------------------------------------------
# Interleaving identity for permutation products


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def floor_swap_identity_check(phi, pi, n: int, m: int) -> bool:
    """Check the two interleavings of phi and pi powers agree.

    Left side: for i = 1..m apply phi^(ceil(in/m) - ceil((i-1)n/m))
    then pi.  Right side: for j = 1..n apply phi then
    pi^(floor(jm/n) - floor((j-1)m/n)).  Factors act first to last.
    """
    if n < 1 or m < 1:
        raise ValueError(f"need positive n, m, got ({n}, {m})")
    size = len(phi)
    if len(pi) != size:
        raise ValueError("permutations must act on the same set")
    ident = tuple(range(size))
    lhs = ident
    for i in range(1, m + 1):
        e = _ceil_div(i * n, m) - _ceil_div((i - 1) * n, m)
        for _ in range(e):
            lhs = compose(phi, lhs)
        lhs = compose(pi, lhs)
    rhs = ident
    for j in range(1, n + 1):
        rhs = compose(phi, rhs)
        e = (j * m) // n - ((j - 1) * m) // n
        for _ in range(e):
            rhs = compose(pi, rhs)
    return lhs == rhs

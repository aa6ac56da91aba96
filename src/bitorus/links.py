"""Loop systems on the two-holed torus described by four crossing counts.

A link (a, b, c, d) records how many strands cross the boundary halves
A, B, C and D.  Its strands connect boundary points by an
order-preserving interval map; the number of loops is the number of
cycles of that map.  A link with a single loop is a knot.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Link:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if min(self.a, self.b, self.c, self.d) < 0:
            raise ValueError(f"link parameters must be nonnegative: {self}")

    @property
    def total(self) -> int:
        return self.a + self.b + self.c + self.d

    @property
    def t(self) -> int:
        """Reduction step size -a + b + 2c + 2d."""
        return -self.a + self.b + 2 * self.c + 2 * self.d

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


def link_permutation(link: Link) -> list[int]:
    """Successor map on the link's strand endpoints 0..total-1.

    The four index intervals map, in order and preserving order, onto
    [b+c+d, N), [c+d, b+c+d), [d, c+d) and [0, d).
    """
    a, b, c, d = link.as_tuple()
    total = link.total
    if total == 0:
        raise ValueError("empty link")
    perm = [0] * total
    for i in range(total):
        if i < a:
            perm[i] = i + b + c + d
        elif i < a + b:
            perm[i] = i - a + c + d
        elif i < a + b + c:
            perm[i] = i - (a + b) + d
        else:
            perm[i] = i - (a + b + c)
    return perm


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


def loop_count(link: Link) -> int:
    """Number of loops, by a single left-to-right cycle trace."""
    return perm_cycles(link_permutation(link))


def is_knot(link: Link) -> bool:
    return loop_count(link) == 1


def link_reduce(link: Link) -> Link:
    """Shrink a and b by t = -a+b+2c+2d; the loop count is preserved.

    Applicable only when a > t, b > t and t >= c + d.
    """
    t = link.t
    if not (link.a > t and link.b > t and t >= link.c + link.d):
        raise ValueError(f"reduction not applicable to {link.as_tuple()} (t={t})")
    return Link(link.a - t, link.b - t, link.c, link.d)


def orientation_link(dec, omega: str) -> Link:
    """Link induced by orienting each diagonal up (U) or right (R).

    a and b count up-oriented cells on the top boundary halves, c and d
    right-oriented cells on the right boundary halves.
    """
    if len(omega) != len(dec.diagonals):
        raise ValueError(
            f"orientation string length {len(omega)} != {len(dec.diagonals)} diagonals"
        )
    a = b = c = d = 0
    for diag, direction in zip(dec.diagonals, omega):
        p = diag.profile
        if direction == "U":
            a += p.cnt_a
            b += p.cnt_b
        elif direction == "R":
            c += p.cnt_c
            d += p.cnt_d
        else:
            raise ValueError(f"orientation characters must be U or R, got {direction!r}")
    return Link(a, b, c, d)

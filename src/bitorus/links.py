"""Loop systems on the two-holed torus described by four crossing counts.

A link, the `CheckedTuple` (a, b, c, d), records how many strands cross
the boundary halves A, B, C and D.  Its strands connect boundary points
by an order-preserving interval map; the number of loops is the number
of cycles of that map.  A link with a single loop is a knot.

That map is a discrete interval exchange: four intervals A B C D,
translated into the order D C B A.  `_rauzy` finds the cycles of any
such exchange by discrete Rauzy induction with Zorich's acceleration,
in a Euclid-like number of steps.  Its one unequal-length step serves
both winners: when the image's last interval is the longer, it steps
the inverse exchange, which has the same cycles.

`link_cycles` runs the same loop on a link, whose lengths were checked
when it was built and whose labels are always A B C D -> D C B A.  It
is behind both the loops and the diagonals: `loop_count` counts its
cycles in O(log(a + b + c + d)) arithmetic steps, and a grid's
diagonals are the loops of the link (m, m, n, n), so
`diagonals.induction_groups` reads them, with their boundary crossings
as weights, from the same exchange.
The permutation trace `perm_cycles(link_permutation(link))`,
O(a + b + c + d), stays as the reference it is checked against.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CheckedTuple, InconsistencyError


class Link(CheckedTuple, NamedTuple("Link", [("a", int), ("b", int), ("c", int), ("d", int)])):
    """Strands crossing A, B, C and D: a `CheckedTuple` of ints >= 0."""

    __slots__ = ()
    _label = "link parameter"

    @property
    def total(self) -> int:
        return sum(self)

    @property
    def t(self) -> int:
        """Reduction step size -a + b + 2c + 2d."""
        return -self.a + self.b + 2 * self.c + 2 * self.d


def link_permutation(link: Link) -> list[int]:
    """Successor map on the link's strand endpoints 0..total-1.

    The four index intervals map, in order and preserving order, onto
    [b+c+d, N), [c+d, b+c+d), [d, c+d) and [0, d).
    """
    a, b, c, d = link
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


def _rauzy(top, bot, lam, w) -> list[tuple[int, int]]:
    """Cycles of the interval exchange `top` -> `bot` as (multiplicity, weight) blocks.

    `top` and `bot` order the same labels of nonempty intervals; labels
    index the lengths `lam` and weights `w`, and a cycle's weight sums
    its points'.  Unchecked; consumes its four lists.  Discrete right
    Rauzy induction (Rauzy 1979): with a and b the last labels of `top`
    and `bot`, the first-return map to the domain without its last
    min(len a, len b) points is again an exchange.

    * a == b: the last len a points are fixed; emit them and drop a.
    * len a > len b: b's image moves to just after a's, len a -= len b,
      and b's weight absorbs a's.
    * len b > len a: the same step on the inverse exchange, `top` and
      `bot` swapped, which has the same cycles with the same weights.
    * equal lengths: a's domain is cut, b takes a's image place, and b's
      weight absorbs a's.

    Repeating the second case rotates the labels after a in `bot`, so q
    whole rotations are taken in one step (Zorich 1996), as long as len a
    stays positive.  Every step cuts the domain, which bounds the loop; a
    step that does not is an internal inconsistency.
    """
    blocks = []
    while top:
        a = top[-1]
        b = bot[-1]
        la = lam[a]
        lb = lam[b]
        if la != lb:  # a label has one length, so a != b
            if lb > la:  # the same step on the inverse exchange
                top, bot, a, b, la, lb = bot, top, b, a, lb, la
            i = bot.index(a) + 1
            tail = bot[i:]
            span = 0
            for x in tail:
                span += lam[x]
            if la > span:
                q = (la - 1) // span
                cut = q * span
                wa = q * w[a]
                if wa:
                    for x in tail:
                        w[x] += wa
            else:
                cut = lb
                bot.insert(i, bot.pop())
                w[b] += w[a]
            lam[a] = la - cut
        elif a == b:
            blocks.append((la, w[a]))
            top.pop()
            bot.pop()
            cut = la
        else:
            top.pop()
            bot.pop()
            bot[bot.index(a)] = b
            w[b] += w[a]
            cut = la
        if cut <= 0:
            raise InconsistencyError(f"Rauzy step did not shorten the exchange {top} -> {bot}")
    return blocks


def link_cycles(link: Link, weights) -> list[tuple[int, int]]:
    """The link's loops as (multiplicity, weight) blocks: the exchange A B C D -> D C B A.

    `weights` gives each of the four intervals' points a weight, in the
    order A, B, C, D; a loop's weight is the sum over its points.
    O(log(a + b + c + d)) induction steps.  A `Link` is checked when it
    is built, so this runs `_rauzy` on its nonempty intervals directly.
    """
    lam = list(link)
    # most links have no empty side, and the comprehension costs about one Rauzy step
    top = [0, 1, 2, 3] if all(lam) else [x for x in (0, 1, 2, 3) if lam[x]]
    return _rauzy(top, top[::-1], lam, list(weights))


def loop_count(link: Link) -> int:
    """Number of loops: the cycles of `link_cycles`.

    O(log(a + b + c + d)) induction steps; `perm_cycles` of the
    link's permutation is the reference.
    """
    loops = 0
    for count, _ in link_cycles(link, (0, 0, 0, 0)):
        loops += count
    if loops == 0:
        raise ValueError("empty link")
    return loops


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


def group_link(groups, up_counts) -> Link:
    """Link induced by orienting `up_counts[k]` members of group k up.

    `groups` lists (size, profile) per group.  Up-oriented diagonals
    cross the top halves A and B, right-oriented ones the right halves
    C and D.
    """
    a = b = c = d = 0
    for (size, prof), ups in zip(groups, up_counts):
        rights = size - ups
        a += ups * prof.cnt_a
        b += ups * prof.cnt_b
        c += rights * prof.cnt_c
        d += rights * prof.cnt_d
    return Link(a, b, c, d)


def orientation_link(dec, omega: str) -> Link:
    """Link induced by orienting each diagonal up (U) or right (R).

    a and b count up-oriented cells on the top boundary halves, c and d
    right-oriented cells on the right boundary halves.
    """
    return group_link([(1, prof) for prof in dec.profiles], dec.ups(omega).tolist())

"""Cylinder arcs of the Sturmian coding: the circle geometry of the cover and the witness.

The cut points -i*alpha (mod 1), 0 <= i <= n, split the circle into n + 1
cells, one per admissible length-n word.  An arc keeps only the integer tags
of its two cut points; the first landing of the cut points on an arc and
the recurrence bound of a word read the field's one floor.  The cover's
fibre certificates and the groupoid's witness import this module; `words`
never does, so the coding commands compile none of it.
"""

from __future__ import annotations

import math
from typing import Optional

from .quadratics import QuadraticIrrational, _floor, _Record
from .words import OrbitPoint, Word, _orbit_point, _zero_words


def check_word(mu: Word) -> Word:
    if not set(mu) <= {"0", "1"}:
        raise ValueError(f"word must be over alphabet 0/1: {mu!r}")
    return mu


class Arc(_Record):
    """The half-open arc [-lo_tag*alpha, -hi_tag*alpha) (mod 1) between two cut points.

    The arc runs counterclockwise from lo to hi and wraps through 0 when
    hi <= lo; equal tags denote the full circle.  Only the tags are stored;
    `words._interior_point` picks a point inside from them.
    """

    __slots__ = ("alpha", "lo_tag", "hi_tag")


def cylinder_arc(alpha: QuadraticIrrational, mu: Word) -> Optional[Arc]:
    """The set of circle points whose coding begins with mu; None if empty.

    The cut points -i*alpha, i <= n = |mu|, split the circle into n+1 cells,
    one per admissible length-n word, and the arc of mu is one cell
    [-lo*alpha, -hi*alpha).  The cell holds its start, so mu is the L coding
    of -lo*alpha, the window at n - lo of the L coding of 0 at indices
    -n..n-1; its points approach its end from the left, so mu is the R coding
    of -hi*alpha, the window at n - hi of the R coding.  Each word has n+1
    distinct windows, so each find is unique; n + 1 floors in all.
    """
    n = len(check_word(mu))
    w, v = _zero_words(alpha, n)
    lo = w.find(mu)
    return None if lo < 0 else Arc(alpha, n - lo, n - v.find(mu))


def _first_entry(p: OrbitPoint, q: OrbitPoint) -> int:
    """Least j >= 0 whose cut point -j*alpha (mod 1) lies on the arc from p to q.

    The arc runs counterclockwise; an L end stands just after its point and an
    R end just before it, so the R point 0 sits at 1 and a wrapping arc
    answers 0.  Euclid on (1, 1 - alpha): on a circle of length m the cut
    points are the multiples of a step s, reflected to m - s past m/2.  If
    none lands on the arc in the first lap, lap k does exactly when
    k*(-m mod s) lands on the arc mod s, the same question on a circle of
    length s; each level costs a few floors.
    """
    if p == q:
        raise ValueError("no cut point lies on this arc")
    alpha, n = p.alpha, p.c * q.c // math.gcd(p.c, q.c)

    # x + y*alpha, scaled by n, is the pair (x, y); an end adds its side, +1 for L
    def rem(x, y, side, m):  # the end on the circle of length m, with 0 at m on side -1
        f = _floor(alpha, x, y, *m)
        x, y = x - f * m[0], y - f * m[1]
        return (*m, side) if (x, y) == (0, 0) and side < 0 else (x, y, side)

    def first(m, s, lo, hi):
        if _floor(alpha, hi[0] - lo[0], hi[1] - lo[1]) < 0 or hi[:2] == lo[:2] and hi[2] < lo[2]:
            return 0
        if _floor(alpha, m[0] - 2 * s[0], m[1] - 2 * s[1]) < 0:
            flip = lambda e: (m[0] - e[0], m[1] - e[1], -e[2])
            s, lo, hi = flip((*s, 0))[:2], flip(hi), flip(lo)

        def past(x, y, side):  # the least j with j*s beyond the end
            return _floor(alpha, x, y, *s) + 1 if side > 0 else -_floor(alpha, -x, -y, *s)

        j = past(*lo)
        if j < past(*hi):
            return j
        lap = first(s, rem(-m[0], -m[1], 1, s)[:2], rem(*lo, s), rem(*hi, s))
        return past(lo[0] + lap * m[0], lo[1] + lap * m[1], lo[2])

    sides = {"L": 1, "R": -1}
    ends = (rem(pt.a * n // pt.c, pt.b * n // pt.c, sides[pt.variant], (n, 0)) for pt in (p, q))
    return first((n, 0), (n, -n), *ends)


def recurrence_bound(alpha: QuadraticIrrational, mu: Word) -> int:
    """Least window length whose every admissible word contains mu.

    That is |mu| - 1 plus the longest return time to the cylinder arc of mu,
    of length s.  By Slater's theorem the return times are j1, j2 and j1 + j2:
    j1 is the first step that moves a point forward by less than s, and j2
    the first that moves one back by less than s.  A Sturmian factor has just
    two return words (Vuillon), so on its arc the longest is max(j1, j2).
    """
    if not check_word(mu):
        return 0
    arc = cylinder_arc(alpha, mu)
    if arc is None:
        raise ValueError(f"word is not admissible: {mu!r}")
    lo, hi = arc.lo_tag, arc.hi_tag  # s = (lo - hi)*alpha (mod 1)
    # moving forward by less than s is landing on (1 - s, 1), back by less than s on (0, s)
    j1 = _first_entry(_orbit_point(alpha, hi - lo, "L"), _orbit_point(alpha, 0, "R"))
    j2 = _first_entry(_orbit_point(alpha, 0, "L"), _orbit_point(alpha, lo - hi, "R"))
    return len(mu) - 1 + max(j1, j2)

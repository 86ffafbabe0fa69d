"""Exact Sturmian coding of the circle rotation by an irrational alpha.

Points of the one-sided subshift are represented intensionally as a pair
(t, variant): the itinerary of the circle point t under rotation by alpha,
coded against the two-interval partition at 1-alpha.  Variant "L" uses the
left-closed intervals [0,1-a), [1-a,1); variant "R" the right-closed ones.
The two variants disagree exactly on the backward rotation orbit of 0,
which is where the subshift closure adds points.
"""

from __future__ import annotations

import math
from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, Literal, Optional, Union

from .quadratics import BudgetExceededError, QuadraticIrrational

CirclePoint = Union[Fraction, QuadraticIrrational]
Variant = Literal["L", "R"]
Word = str


def _mod1(t) -> CirclePoint:
    t = t - math.floor(t)
    return Fraction(t) if isinstance(t, int) else t


def check_word(mu: Word) -> Word:
    if not set(mu) <= {"0", "1"}:
        raise ValueError(f"word must be over alphabet 0/1: {mu!r}")
    return mu


def _validate_alpha(alpha: QuadraticIrrational):
    if not (alpha > 0 and alpha < 1):
        raise ValueError("the rotation parameter must lie in (0,1)")


@dataclass(frozen=True)
class OrbitPoint:
    """An element of the one-sided subshift: circle point plus coding variant."""

    alpha: QuadraticIrrational
    t: CirclePoint
    variant: Variant = "L"

    def __post_init__(self):
        _validate_alpha(self.alpha)
        t = self.t
        if isinstance(t, int):
            t = Fraction(t)
        if isinstance(t, QuadraticIrrational) and t.d != self.alpha.d:
            raise ValueError("circle point lies outside the parameter's field")
        if self.variant not in ("L", "R"):
            raise ValueError("variant must be 'L' or 'R'")
        object.__setattr__(self, "t", _mod1(t))

    def point_at(self, i: int) -> CirclePoint:
        return _mod1(self.t + self.alpha * i)

    def shift(self, k: int = 1) -> "OrbitPoint":
        return OrbitPoint(self.alpha, self.point_at(k), self.variant)

    def coords(self) -> tuple[Fraction, Fraction]:
        """(u, v) with t = u + v*alpha; both rational."""
        t = self.t
        if isinstance(t, Fraction):
            return t, Fraction(0)
        a = self.alpha
        v = Fraction(t.q * a.r, t.r * a.q)
        u = Fraction(t.p, t.r) - v * Fraction(a.p, a.r)
        return u, v

    def hits_coding_boundary(self) -> bool:
        """True iff the forward rotation orbit of t meets {0, 1-alpha}.

        Equivalent: t = -i*alpha (mod 1) for some i >= 0, so the L and R
        codings of this point differ.
        """
        u, v = self.coords()
        return u.denominator == 1 and v.denominator == 1 and v <= 0

    def denotes_same(self, other: "OrbitPoint") -> bool:
        """Whether the two codings are the same subshift element."""
        if self.alpha != other.alpha or self.t != other.t:
            return False
        return self.variant == other.variant or not self.hits_coding_boundary()

    def orbit_position(self) -> Optional[tuple[str, int]]:
        """Location of this point in the orbit of the branch point.

        Returns ("forward", j) when the point is sigma^j of the branch
        point, ("backward", m) when it is m shifts behind it (a point
        mu.omega with |mu| = m >= 1), and None off the orbit.
        """
        u, v = self.coords()
        if u.denominator != 1 or v.denominator != 1:
            return None
        if v >= 1:
            return "forward", int(v) - 1
        return "backward", 1 - int(v)


@dataclass(frozen=True)
class TwoSidedPoint:
    """A bi-infinite coding; same data as OrbitPoint, indices range over Z."""

    alpha: QuadraticIrrational
    t: CirclePoint
    variant: Variant = "L"

    def __post_init__(self):
        OrbitPoint(self.alpha, self.t, self.variant)  # validation
        t = Fraction(self.t) if isinstance(self.t, int) else self.t
        object.__setattr__(self, "t", _mod1(t))

    def shift(self, k: int = 1) -> "TwoSidedPoint":
        return TwoSidedPoint(self.alpha, _mod1(self.t + self.alpha * k), self.variant)

    def restrict(self) -> OrbitPoint:
        """The nonnegative-index part."""
        return OrbitPoint(self.alpha, self.t, self.variant)


def _letter(alpha: QuadraticIrrational, u: CirclePoint, variant: Variant) -> str:
    split = 1 - alpha
    if u == 0:
        return "0" if variant == "L" else "1"
    if u == split:
        return "1" if variant == "L" else "0"
    return "0" if u < split else "1"


def code_letter(x: Union[OrbitPoint, TwoSidedPoint], i: int) -> str:
    """Letter of the coding at index i (i >= 0 for one-sided points)."""
    if isinstance(x, OrbitPoint) and i < 0:
        raise ValueError("one-sided codings have nonnegative indices")
    return _letter(x.alpha, _mod1(x.t + x.alpha * i), x.variant)


def coding(x: OrbitPoint) -> Iterator[str]:
    """The letters of the coding of x, produced one at a time."""
    alpha = x.alpha
    u = x.t
    while True:
        yield _letter(alpha, u, x.variant)
        u = u + alpha
        if u >= 1:
            u = u - 1
            if isinstance(u, int):
                u = Fraction(u)


def code_word(x: OrbitPoint, n: int) -> Word:
    """First n letters of the coding of x."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    return "".join(islice(coding(x), n))


def two_sided_word(x: TwoSidedPoint, m: int, n: int) -> Word:
    """Letters of the bi-infinite coding at indices m..n-1."""
    if m > n:
        raise ValueError("need m <= n")
    start = OrbitPoint(x.alpha, _mod1(x.t + x.alpha * m), x.variant)
    return code_word(start, n - m)


# -- arcs and the cylinder structure ---------------------------------------


@dataclass(frozen=True)
class Arc:
    """Circular arc between two points of the backward rotation orbit of 0.

    Endpoints carry the integer tag i of their exact form -i*alpha (mod 1).
    The arc runs counterclockwise from lo to hi and wraps through 0 when
    hi <= lo; lo == hi denotes the full circle.
    """

    lo: CirclePoint
    hi: CirclePoint
    lo_tag: int
    hi_tag: int
    lo_closed: bool = True
    hi_closed: bool = False

    def is_full_circle(self) -> bool:
        return self.lo == self.hi

    def contains(self, t: CirclePoint) -> bool:
        if self.is_full_circle():
            return True
        above = t > self.lo or (self.lo_closed and t == self.lo)
        below = t < self.hi or (self.hi_closed and t == self.hi)
        if self.lo < self.hi:
            return above and below
        return above or below

    def span(self) -> CirclePoint:
        if self.is_full_circle():
            return Fraction(1)
        return _mod1(self.hi - self.lo)

    def interior_point_off_orbit(self, alpha: QuadraticIrrational) -> CirclePoint:
        """An interior point whose rotation orbit avoids the orbit of 0."""
        if self.is_full_circle():
            return Fraction(1, 2)
        lo_pt = OrbitPoint(alpha, self.lo)
        hi_pt = OrbitPoint(alpha, self.hi)
        du = hi_pt.coords()[0] - lo_pt.coords()[0]
        dv = hi_pt.coords()[1] - lo_pt.coords()[1]
        # endpoints have integer coordinates; a fractional mix of the
        # nonzero coordinate difference cannot land back on the orbit
        if dv != 0:
            s = Fraction(1, abs(dv.numerator) * 2 // dv.denominator + 1)
        else:
            s = Fraction(1, abs(du.numerator) * 2 // du.denominator + 1)
        t = _mod1(self.lo + self.span() * s)
        if OrbitPoint(alpha, t).orbit_position() is not None:
            raise RuntimeError("interior point landed on the orbit of 0; arithmetic bug")
        return t


def letter_arc(alpha: QuadraticIrrational, letter: str, j: int) -> Arc:
    """The circle points whose coding carries `letter` at index j."""
    if letter == "0":
        lo, hi = _mod1(alpha * (-j)), _mod1(alpha * (-j - 1))
        return Arc(lo, hi, j, j + 1)
    lo, hi = _mod1(alpha * (-j - 1)), _mod1(alpha * (-j))
    return Arc(lo, hi, j + 1, j)


def intersect_arcs(a: Arc, b: Arc) -> Optional[Arc]:
    """Intersection of two arcs when it is again a single arc.

    Cylinder arcs of a Sturmian coding always intersect in one arc; a
    two-piece intersection means the inputs were not cylinders and raises.
    """
    if a.is_full_circle():
        return b
    if b.is_full_circle():
        return a
    span_a = a.span()
    s2 = _mod1(b.lo - a.lo)
    e2 = s2 + b.span()
    pieces = []
    if s2 < span_a:
        end = min(e2, span_a)
        if s2 < end:
            pieces.append((s2, end, b.lo_tag, b.hi_tag if end == e2 else a.hi_tag))
    if e2 > 1:
        end = min(e2 - 1, span_a)
        if end > 0:
            pieces.append((Fraction(0), end, a.lo_tag, b.hi_tag if end == e2 - 1 else a.hi_tag))
    if not pieces:
        return None
    if len(pieces) > 1:
        raise RuntimeError("arc intersection is not a single arc")
    s, e, lo_tag, hi_tag = pieces[0]
    return Arc(_mod1(a.lo + s), _mod1(a.lo + e), lo_tag, hi_tag)


def word_arc(alpha: QuadraticIrrational, mu: Word) -> Optional[Arc]:
    """Exact cylinder arc of mu by incremental letter-arc intersection."""
    arc: Optional[Arc] = Arc(Fraction(0), Fraction(0), 0, 0)
    for j, letter in enumerate(mu):
        arc = intersect_arcs(arc, letter_arc(alpha, letter, j))
        if arc is None:
            return None
    return arc


def _cells(alpha: QuadraticIrrational, n: int) -> dict[Word, Arc]:
    """The n+1 cells cut out by the points -i*alpha (mod 1), 0 <= i <= n.

    Each cell is the cylinder arc of one length-n word, keyed by that word,
    in circular order from 0.  The cut points are kept sorted with their
    tags i; inserting each -i*alpha splits exactly one cell.  Letter 1 at
    index j is the arc [-(j+1)*alpha, -j*alpha), so the cells reading 1
    there are the run from the cell starting at tag j+1 up to the cell
    ending at tag j: every letter comes from the tags.
    """
    pts: list[CirclePoint] = [Fraction(0)]
    tags = [0]
    for i in range(1, n + 1):
        t = _mod1(alpha * (-i))
        at = bisect(pts, t)
        pts.insert(at, t)
        tags.insert(at, i)
    m = n + 1
    pos = {tag: p for p, tag in enumerate(tags)}
    letters = [["0"] * n for _ in range(m)]
    for j in range(n):
        p = pos[j + 1]
        while p != pos[j]:
            letters[p][j] = "1"
            p = (p + 1) % m
    return {
        "".join(w): Arc(pts[p], pts[(p + 1) % m], tags[p], tags[(p + 1) % m])
        for p, w in enumerate(letters)
    }


def cylinder_arc(alpha: QuadraticIrrational, mu: Word) -> Optional[Arc]:
    """The set of circle points whose coding begins with mu; None if empty."""
    _validate_alpha(alpha)
    return word_arc(alpha, check_word(mu))


def is_admissible(alpha: QuadraticIrrational, mu: Word) -> bool:
    return cylinder_arc(alpha, mu) is not None


def language(alpha: QuadraticIrrational, n: int) -> frozenset[Word]:
    """All admissible words of length n; always n+1 of them for n >= 1."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    _validate_alpha(alpha)
    words = frozenset(_cells(alpha, n))
    if len(words) != (n + 1 if n >= 1 else 1):
        raise RuntimeError("factor complexity violated; arithmetic bug")
    return words


def left_extensions(alpha: QuadraticIrrational, w: Word) -> frozenset[str]:
    """Letters a with a+w admissible; w itself must be admissible."""
    if not is_admissible(alpha, w):
        raise ValueError(f"word is not admissible: {w!r}")
    return frozenset(a for a in "01" if is_admissible(alpha, a + w))


def branch_point(alpha: QuadraticIrrational) -> OrbitPoint:
    """The unique point with two shift preimages; its circle point is alpha."""
    _validate_alpha(alpha)
    return OrbitPoint(alpha, alpha, "L")


def preimages(x: OrbitPoint) -> frozenset[OrbitPoint]:
    """All shift preimages of x; two exactly at the branch point."""
    back = _mod1(x.t - x.alpha)
    if x.t == x.alpha:
        return frozenset(
            {OrbitPoint(x.alpha, Fraction(0), "L"), OrbitPoint(x.alpha, Fraction(0), "R")}
        )
    return frozenset({OrbitPoint(x.alpha, back, x.variant)})


def past_set(x: OrbitPoint, l: int) -> frozenset[Word]:
    """Length-l words mu with mu+x admissible, walked back along preimages."""
    if l < 0:
        raise ValueError("past depth must be nonnegative")
    pts = {x}
    for _ in range(l):
        pts = {y for p in pts for y in preimages(p)}
    return frozenset(code_word(y, l) for y in pts)


def recurrence_bound(alpha: QuadraticIrrational, mu: Word, max_window: int = 2048) -> int:
    """Least window length whose every admissible word contains mu."""
    check_word(mu)
    if not mu:
        return 0
    if not is_admissible(alpha, mu):
        raise ValueError(f"word is not admissible: {mu!r}")
    for m in range(len(mu), max_window + 1):
        if all(mu in w for w in language(alpha, m)):
            return m
    raise BudgetExceededError(f"no recurrence bound within window {max_window}")

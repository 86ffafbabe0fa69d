"""Exact Sturmian coding of the circle rotation by an irrational alpha.

Points of the one-sided subshift are represented intensionally as a pair
(t, variant): the itinerary of the circle point t under rotation by alpha,
coded against the two-interval partition at 1-alpha.  The point t is kept
as integers (a, b, c) with t = (a + b*alpha)/c, so shifting adds to b and
every letter is one integer floor.  Variant "L" uses the left-closed
intervals [0,1-a), [1-a,1); variant "R" the right-closed ones.
The two variants disagree exactly on the backward rotation orbit of 0,
which is where the subshift closure adds points; off it a point is stored
as "L", so each subshift element has one record and records compare by ==.
"""

from __future__ import annotations

import math
import sys
from itertools import islice
from typing import TYPE_CHECKING, Iterator, Literal, Optional, Union

from .quadratics import QuadraticIrrational, _build, _floor, _Record, _store, check_unit_interval

if TYPE_CHECKING:
    from fractions import Fraction

    CirclePoint = Union[Fraction, QuadraticIrrational]

Variant = Literal["L", "R"]
Word = str


class OrbitPoint(_Record):
    """An element of the one-sided subshift: a circle point in [0, 1) with its coding variant.

    The point is (a + b*alpha)/c, and the triple is canonical: c > 0,
    gcd(a, b, c) = 1 and 0 <= a + b*alpha < c.  The variant is kept only on
    the coding boundary (`hits_coding_boundary`), where the two codings
    differ, and is "L" elsewhere, so equal elements have equal fields.  The
    constructor reads the circle point t as the field reads an operand
    (`QuadraticIrrational._operand`): an int, a Fraction or a
    QuadraticIrrational of alpha's field.
    """

    __slots__ = ("alpha", "a", "b", "c", "variant")

    def __init__(self, alpha: QuadraticIrrational, t: CirclePoint, variant: Variant = "L"):
        check_unit_interval(alpha)
        if variant not in ("L", "R"):
            raise ValueError("variant must be 'L' or 'R'")
        o = alpha._operand(t)
        if o is None:
            raise TypeError(f"circle point must be exact, not {type(t).__name__}")
        p, q, r = o
        # (p + q*sqrt(d))/r = (p*Q - q*P + q*R*alpha)/(r*Q) for alpha = (P + Q*sqrt(d))/R
        self._set((alpha, p * alpha.q - q * alpha.p, q * alpha.r, r * alpha.q, variant))

    def _set(self, values: tuple[QuadraticIrrational, int, int, int, Variant]) -> None:
        """Store (a + b*alpha)/c mod 1, c != 0, as "L" off the coding boundary; alpha and variant are trusted."""
        alpha, a, b, c, variant = values
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(a, b, c)
        a, b, c = a // g, b // g, c // g
        _store(self, "alpha", alpha)
        _store(self, "a", a - _floor(alpha, a, b, c) * c)
        _store(self, "b", b)
        _store(self, "c", c)
        _store(self, "variant", variant if self.hits_coding_boundary() else "L")

    @property
    def t(self) -> CirclePoint:
        """The circle point as a field element, built on demand; a Fraction when rational."""
        al = self.alpha
        return _build(self.a * al.r + self.b * al.p, self.b * al.q, al.d, self.c * al.r)

    def shift(self, k: int = 1):
        return self._at((self.alpha, self.a, self.b + k * self.c, self.c, self.variant))

    def hits_coding_boundary(self) -> bool:
        """True iff the forward rotation orbit of t meets {0, 1-alpha}.

        Equivalent: t = -i*alpha (mod 1) for some i >= 0, so the L and R
        codings of this point differ.
        """
        return self.c == 1 and self.b <= 0

    def orbit_position(self) -> Optional[tuple[str, int]]:
        """Location of this point in the orbit of the branch point.

        Returns ("forward", j) when the point is sigma^j of the branch
        point, ("backward", m) when it is m shifts behind it (a point
        mu.omega with |mu| = m >= 1), and None off the orbit.
        """
        if self.c != 1:
            return None
        if self.b >= 1:
            return "forward", self.b - 1
        return "backward", 1 - self.b


def _orbit_point(alpha: QuadraticIrrational, b: int, variant: Variant) -> OrbitPoint:
    """The point b*alpha (mod 1), sigma^(b-1)(omega) for b >= 1 and else 1 - b shifts
    behind omega: the inverse of `OrbitPoint.orbit_position`.  alpha and variant are trusted."""
    return OrbitPoint._at((alpha, 0, b, 1, variant))


def _interior_point(alpha: QuadraticIrrational, lo_tag: int, hi_tag: int) -> OrbitPoint:
    """An interior point of the arc from -lo_tag*alpha to -hi_tag*alpha (mod 1), off the orbit of 0.

    It is lo plus the fraction 1/m of the arc, m = 2*|lo_tag - hi_tag| + 1, and
    1/2 on the full circle (equal tags): the ends differ by (lo_tag - hi_tag)*alpha
    mod 1, so its alpha-coordinate is not an integer and its rotation orbit
    cannot land back on the orbit of 0.
    """
    if lo_tag == hi_tag:
        return OrbitPoint._at((alpha, 1, 0, 2, "L"))
    lo, hi = _orbit_point(alpha, -lo_tag, "L"), _orbit_point(alpha, -hi_tag, "L")
    # the arc wraps through 0 when hi < lo: one floor of their difference
    m, wrap = 2 * abs(lo_tag - hi_tag) + 1, int(_floor(alpha, hi.a - lo.a, hi.b - lo.b) < 0)
    x = OrbitPoint._at((alpha, (m - 1) * lo.a + hi.a + wrap, (m - 1) * lo.b + hi.b, m, "L"))
    if x.orbit_position() is not None:
        raise RuntimeError("interior point landed on the orbit of 0; arithmetic bug")
    return x


def _letters(alpha: QuadraticIrrational, variant: Variant, a: int, k: int, c: int) -> Iterator[str]:
    """Letters of the points (a + k*alpha)/c, (a + (k+c)*alpha)/c, ...

    Letter i is F(y_i + alpha) - F(y_i) for the i-th point y_i, with F = floor
    for variant L (the lower mechanical word) and F = ceil for variant R (the
    upper one); consecutive letters share a floor, so each costs one.
    """
    s = 1 if variant == "L" else -1  # ceil(y) = -floor(-y)
    edge = s * _floor(alpha, s * a, s * k, c)
    while True:
        k += c
        nxt = s * _floor(alpha, s * a, s * k, c)
        yield "1" if nxt > edge else "0"
        edge = nxt


def code_word(x: OrbitPoint, n: int) -> Word:
    """First n letters of the coding of x."""
    return _word(_letters(x.alpha, x.variant, x.a, x.b, x.c), n)


def _word(letters: Iterator[str], n: int) -> Word:
    if n < 0:
        raise ValueError("length must be nonnegative")
    if n > sys.maxsize // 2:  # the codings of 0 double their coded half; a str holds sys.maxsize
        raise ValueError(f"a coded word has at most {sys.maxsize // 2} letters, not {n}")
    return "".join(islice(letters, n))


def _zero_words(alpha: QuadraticIrrational, n: int) -> tuple[Word, Word]:
    """The L and R codings of 0 at indices -n..n-1, letter i at index n + i; n + 1 floors.

    Only c, letters 1..n of the L coding (the branch point's own coding), is
    coded: off the orbit of 0 lower and upper letters agree, so letter -1-i is
    letter i for i >= 1, and letters -1, 0 read 10 in L and 01 in R (Lothaire, ch. 2).
    """
    check_unit_interval(alpha)
    c = _word(_letters(alpha, "L", 0, 1, 1), n)
    m = c[::-1]
    return (m + "10" + c)[1:-1], (m + "01" + c)[1:-1]


def language(alpha: QuadraticIrrational, n: int) -> frozenset[Word]:
    """All admissible words of length n; always n+1 of them for n >= 1.

    The points -i*alpha (mod 1), 0 <= i <= n, cut the circle into n+1 cells,
    each the cylinder arc of one length-n word.  A cell holds its start point,
    so its word is that point's L coding: the n+1 words are the length-n
    windows of the L coding of 0 at indices -n..n-1, n+1 floors in all.
    """
    w = _zero_words(alpha, n)[0]
    words = frozenset(w[i : i + n] for i in range(n + 1))
    if len(words) != (n + 1 if n >= 1 else 1):
        raise RuntimeError("factor complexity violated; arithmetic bug")
    return words


def branch_point(alpha: QuadraticIrrational) -> OrbitPoint:
    """The unique point with two shift preimages; its circle point is alpha."""
    check_unit_interval(alpha)
    return _orbit_point(alpha, 1, "L")


def preimages(x: OrbitPoint) -> frozenset[OrbitPoint]:
    """All shift preimages of x; two exactly at the branch point."""
    if x.orbit_position() == ("forward", 0):
        return frozenset(_orbit_point(x.alpha, 0, v) for v in "LR")
    return frozenset({x.shift(-1)})


def past_set(x: OrbitPoint, l: int) -> frozenset[Word]:
    """Length-l words mu with mu+x admissible: letters -l..-1 of x's coding.

    Walking back from x meets the branch point, whose preimages are the two
    codings of 0, exactly when x = b*alpha = sigma^(b-1)(omega) with b <= l;
    then the pasts are letters b-l..b-1 of both codings of 0, else x's own.
    """
    if l < 0:
        raise ValueError("past depth must be nonnegative")
    if x.c == 1 and 1 <= x.b <= l:
        return frozenset(w[x.b : x.b + l] for w in _zero_words(x.alpha, l))
    return frozenset({_word(_letters(x.alpha, x.variant, x.a, x.b - l * x.c, x.c), l)})

"""Continued fractions, the GL(2,Z) action and the conjugacy and flow-equivalence deciders.

Both invariants reduce to exact arithmetic on the parameters: two-sided
conjugacy (equivalently orbit equivalence, and isomorphism of the unital
ordered groups Z + alpha*Z) holds iff alpha = beta or alpha = 1 - beta,
and flow equivalence (equivalently Morita equivalence of the associated
algebras, and plain ordered-group isomorphism) holds iff the parameters
have tail-equivalent continued fractions (Serret).  Only the second needs
continued fractions and GL(2,Z), so they live here, and the subshift, its
cover and the groupoid load the field alone.  The period walks, the
squarefree split and the Moebius image come from `quadratics`: they take
square roots or build field values, which only the field does.
"""

from __future__ import annotations

import math
import re

from .quadratics import (
    QuadraticIrrational, RationalValueError, _floor, _image, _minimal_period, _period, _Record, _reduced,
    _squarefree_split, check_unit_interval,
)


# -- continued fractions ---------------------------------------------------


class ContinuedFraction(_Record):
    """Eventually periodic continued fraction [a0; a1, ..., (b1, ..., bk)].

    Canonical form: the period has minimal length and the preperiod is as
    short as possible, which determines the presentation uniquely.
    """

    __slots__ = ("preperiod", "period")

    def __init__(self, preperiod, period):
        pre = tuple(preperiod)
        per = tuple(period)
        if not per:
            raise ValueError("period must be nonempty")
        if min(per) < 1 or min(pre[1:], default=1) < 1:
            raise ValueError("partial quotients after the first must be >= 1")
        per = _minimal_period(per)
        while pre and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = per[-1:] + per[:-1]
        self._fill((pre, per))

    def __str__(self):
        per = "(" + ",".join(map(str, self.period)) + ")"
        if not self.preperiod:
            return f"cf:[{per}]"
        rest = ",".join(list(map(str, self.preperiod[1:])) + [per])
        return f"cf:[{self.preperiod[0]};{rest}]"


def cf_expand(x: QuadraticIrrational) -> ContinuedFraction:
    """Continued fraction of x: the preperiod of `_reduced`, then the period of `_period`.

    The result is canonical as built, so the trusted `_at` skips the
    constructor's normalisation: the preperiod ends at the first reduced
    state (by Galois a complete quotient is purely periodic exactly when it
    is reduced), and the period ends where the cycle of states (P, Q), each
    fixing its complete quotient, closes, or at the second axis of a
    symmetric cycle, half a period away; so it is minimal.
    """
    D, pre, P, Q = _reduced(x)
    return ContinuedFraction._at((tuple(pre), tuple(_period(D, P, Q)[0])))


_BLOCK = 32
_MISSES = 4


def _matrix(digits: tuple[int, ...]) -> tuple[int, int, int, int]:
    """(a, b, c, e) with [digits..., y] = (a*y + b)/(c*y + e).

    Each block of _BLOCK digits folds in small ints, a row at a time, before
    one product with the large running matrix: exact by associativity.
    """
    a, b, c, e = 1, 0, 0, 1
    for i in range(0, len(digits), _BLOCK):
        block, f, g, h, k = digits[i:i + _BLOCK], 1, 0, 0, 1
        for digit in block:
            f, g = f * digit + g, f
        for digit in block:
            h, k = h * digit + k, h
        a, b, c, e = a * f + b * h, a * g + b * k, c * f + e * h, c * g + e * k
    return a, b, c, e


def _palindrome(w: tuple[int, ...]) -> tuple[int, int, int, int]:
    """`_matrix(w)` for a palindrome w = u + (x,) + reversed(u) or u + reversed(u), from u alone.

    Every digit's matrix (x, 1; 1, 0) is symmetric, so M(reversed u) = M(u)^T.
    """
    n = len(w) // 2
    a, b, c, e = _matrix(w[:n])
    f, g, h, k = (a, b, c, e) if len(w) == 2 * n else (a * w[n] + b, a, c * w[n] + e, c)  # M(u x)
    return f * a + g * b, f * c + g * e, h * a + k * b, h * c + k * e  # M(u x) M(u)^T


def _fold(w: tuple[int, ...]) -> tuple[int, int, int, int]:
    """`_matrix(w)`, from half the digits of a long w that is two palindromes w[:j] + w[j:].

    Those are the periods of symmetric cycles (`_period`), and w is one exactly
    when reversed(w) == w[j:] + w[:j].  Only w of at least 4*_BLOCK digits
    looks for j, at the places where the largest digit v of the first block
    stands in reversed(w), as every split puts one there, each tried on its
    first _BLOCK // 2 digits, read cyclically, before the whole comparison.
    The search stops after _MISSES failed whole comparisons, and w then folds
    whole, as it does when no split is found: exact either way.  A period is
    primitive, so its rotations are distinct and it has at most one split,
    and the long periods measured fail no whole comparison before it; but a
    repetitive period such as 1^k with a few 2s matches the head at nearly
    every place and, unbounded, would pay an O(k) comparison at each.
    """
    k, n = len(w), _BLOCK // 2
    if k >= 4 * _BLOCK:
        back, v, i, misses = w[::-1], max(w[:_BLOCK]), -1, 0
        head, p, ring = back[:n], w.index(v), w + w[:n]
        while misses < _MISSES:
            try:
                i = back.index(v, i + 1)
            except ValueError:
                break
            j = (p - i) % k
            if head == ring[j : j + n]:
                if back[: k - j] == w[j:] and back[k - j :] == w[:j]:
                    (a, b, c, e), (f, g, h, m) = _palindrome(w[:j]), _palindrome(w[j:])
                    return a * f + b * h, a * g + b * m, c * f + e * h, c * g + e * m
                misses += 1
    return _matrix(w)


def cf_value(cf: ContinuedFraction) -> QuadraticIrrational:
    """Fold a continued fraction back into its exact value.

    The period folds in blocks (`_fold`, from half its digits when it is long
    and two palindromes) into (a, b; c, e): the tail y = (a*y + b)/(c*y + e)
    is a root of c*y^2 + (e - a)*y - b over its content, whose discriminant is
    small however long the period is; its squarefree part is the one radicand
    factored here.  The preperiod folds into one matrix (A, B; C, E) by
    `_matrix`, and x = (A*y + B)/(C*y + E) is rationalised once.
    """
    a, b, c, e = _fold(cf.period)
    g = math.gcd(a - e, b, c)
    u, b, c = (a - e) // g, b // g, c // g
    s, f = _squarefree_split(u * u + 4 * b * c)
    if f == 1:
        raise RationalValueError("period does not define an irrational")
    return _image(*_matrix(cf.preperiod), u, s, f, 2 * c)  # y = (u + s*sqrt(f))/(2c)


# -- the GL(2,Z) action ----------------------------------------------------


class Moebius(_Record):
    """Integer linear fractional transformation with determinant +-1."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if a * d - c * b not in (1, -1):
            raise ValueError("determinant must be +1 or -1")
        self._fill((a, b, c, d))

    def __matmul__(self, other: "Moebius") -> "Moebius":
        return Moebius(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __call__(self, x: QuadraticIrrational) -> QuadraticIrrational:
        return _image(self.a, self.b, self.c, self.d, x.p, x.q, x.d, x.r)


# -- literals --------------------------------------------------------------

# compiled by the first parse_cf, through re's own bounded cache
_CF_RE = r"^cf:\[(?:(-?\d+)(?:;((?:-?\d+,)*))?)?\((\d+(?:,\d+)*)\)\]$"


def parse_cf(text: str) -> ContinuedFraction:
    m = re.match(_CF_RE, text.strip())
    if not m:
        raise ValueError(f"malformed continued fraction literal: {text!r}")
    head, mid, per = m.groups()
    pre: list[int] = []
    if head is not None:
        pre.append(int(head))
        if mid:
            pre.extend(int(t) for t in mid.rstrip(",").split(","))
    return ContinuedFraction(tuple(pre), tuple(int(t) for t in per.split(",")))


# -- the deciders ----------------------------------------------------------


def conjugate(alpha: QuadraticIrrational, beta: QuadraticIrrational) -> bool:
    """Two-sided conjugacy of the subshifts: alpha = beta or alpha = 1 - beta.

    Also decides one-sided conjugacy, orbit equivalence, unital ordered-group
    isomorphism of Z + alpha*Z, and star-isomorphism of the associated
    algebras; all of these coincide for this family.
    """
    check_unit_interval(alpha)
    check_unit_interval(beta)
    D, P, Q = alpha._key(alpha)  # 1 - alpha = (P - Q + sqrt(D))/(-Q) has the key (D, P - Q, -Q)
    return beta._key(beta) in ((D, P, Q), (D, P - Q, -Q))


def flow_equivalent(alpha: QuadraticIrrational, beta: QuadraticIrrational) -> bool:
    """Flow equivalence of the suspensions: equivalence of the irrationals.

    Decided via tail equivalence of the continued fractions (Serret); also
    decides Morita equivalence of the associated algebras and ordered-group
    isomorphism of Z + alpha*Z without the unit.  Equivalent irrationals
    share the discriminant D of `quadratics._reduced`, and then their tails
    agree exactly when beta's first reduced state (P, Q) lies on alpha's
    cycle.  `quadratics._period` decides that from at most half of a
    symmetric cycle, where the reverse of a walked state is on it too; only
    its flag is read here.
    """
    D, _, P, Q = _reduced(alpha)
    E, _, P2, Q2 = _reduced(beta)
    return D == E and _period(D, P, Q, (P2, Q2))[1]


class OrderedGroupDescriptor(_Record):
    """Z + alpha*Z as an ordered subgroup of the reals with order unit 1.

    Elements are pairs (n, m) standing for n + m*alpha; positivity is
    decided exactly.
    """

    __slots__ = ("alpha",)
    unit = (1, 0)

    def value_positive(self, n: int, m: int) -> bool:
        if m == 0:
            return n > 0
        return _floor(self.alpha, n, m) >= 0  # n + m*alpha is irrational, never 0

    def compare(self, a: tuple[int, int], b: tuple[int, int]) -> int:
        if a == b:
            return 0
        return 1 if self.value_positive(a[0] - b[0], a[1] - b[1]) else -1


class InvariantReport(_Record):
    __slots__ = ("alpha", "beta", "conjugate", "flow_equivalent")
    k0_description = "Z+alphaZ"
    k1_description = "0"

    def to_dict(self) -> dict:
        return {
            "conjugate": self.conjugate,
            "flow_equivalent": self.flow_equivalent,
            "k0": self.k0_description,
            "k1": self.k1_description,
        }


def compare_parameters(alpha: QuadraticIrrational, beta: QuadraticIrrational) -> InvariantReport:
    c = conjugate(alpha, beta)
    f = flow_equivalent(alpha, beta)
    if c and not f:
        raise RuntimeError("conjugate parameters must be flow equivalent; decider bug")
    return InvariantReport(alpha, beta, c, f)

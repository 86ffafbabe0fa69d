"""Exact arithmetic in a real quadratic field, where the rotation number alpha and the circle points live.

Values of the form (p + q*sqrt(d))/r with integer p, q, r and d a positive
nonsquare compare by one value key, the state of their primitive minimal
polynomial, so no radicand is factored to decide equality.  Orders, signs and
letters read the field's one floor.  The walks of the integer state (P, Q) of
the complete quotients stay here, since their floors are floors of field
values; the continued fractions that read them, and the GL(2,Z) action, live
with the deciders in `invariants`.  All arithmetic is integer arithmetic;
there is no floating point anywhere in this module.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from operator import attrgetter
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:
    from fractions import Fraction


class RationalValueError(ValueError):
    """Raised when a requested quadratic irrational is actually rational."""


class BudgetExceededError(RuntimeError):
    """An iteration budget ran out before the computation stabilised."""


def _squarefree_split(d: int) -> tuple[int, int]:
    """Return (s, f) with d = s*s*f and f squarefree, for d >= 1.

    Trial division stops once p**3 exceeds the unfactored cofactor m.  Every
    prime factor of m is then at least p > m**(1/3), so m has at most two
    prime factors: it is a square or squarefree.  Cost O(d**(1/3)).
    """
    s, f = 1, 1
    n = d
    p = 2
    while p * p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                f *= p
        p += 1 if p == 2 else 2
    root = math.isqrt(n)
    if root * root == n:
        return s * root, f
    return s, f * n


def _surd_floor(P: int, s: int, Q: int) -> int:
    """floor((P + sqrt(D))/Q) for a nonsquare D with s = isqrt(D).

    Exact: sqrt(D) lies strictly between s and s + 1.
    """
    return (P + s) // Q if Q > 0 else (P + s + 1) // Q


def _floor(alpha: "QuadraticIrrational", a: int, k: int, c: int = 1, e: int = 0) -> int:
    """floor((a + k*alpha)/(c + e*alpha)) for integers with c + e*alpha != 0, by one isqrt.

    The value is (a*r + k*p + k*q*sqrt(d))/(c*r) for alpha = (p + q*sqrt(d))/r
    and e = 0; a divisor with e != 0 is first cleared by its conjugate.  This
    is the field's one floor: orders, signs and letters all read it.
    """
    if k == 0 and e == 0:
        return a // c
    num, coef, den = a * alpha.r + k * alpha.p, k * alpha.q, c * alpha.r
    if e:
        den, f = den + e * alpha.p, e * alpha.q
        num, coef, den = num * den - coef * f * alpha.d, coef * den - num * f, den * den - f * f * alpha.d
        if coef == 0:
            return num // den
    if coef < 0:
        num, coef, den = -num, -coef, -den
    return _surd_floor(num, math.isqrt(coef * coef * alpha.d), den)


_store = object.__setattr__  # sets a field past the refusing __setattr__ of a record


class _Record:
    """An immutable value whose fields are its __slots__.

    Equality and hash read one key, all fields unless the class sets `_key`,
    and records of different classes are never equal.  A subclass with empty
    __slots__ keeps its base's fields.  The positional constructor stores the
    fields; a class whose fields must be validated gives its own `__init__`,
    which checks them and then calls `_fill`.  A copy or an unpickled record
    gets its fields back unchecked.  The trusted constructor `_at` takes the
    fields as one tuple; it stores them through `_set`, which a class with a
    normal form overrides to put them in it.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        if cls.__slots__:
            cls._fields = cls.__slots__
            if "_key" not in cls.__dict__:
                cls._key = attrgetter(*cls._fields)

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} values, not {len(values)}")
        self._fill(values)

    @classmethod
    def _at(cls, values: tuple):
        """The record of the fields `values`, stored by `_set` and not checked."""
        x = object.__new__(cls)
        x._set(values)
        return x

    def _fill(self, values) -> None:
        for name, value in zip(self._fields, values):
            _store(self, name, value)

    __setstate__ = _set = _fill

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return object.__new__, (type(self),), tuple(getattr(self, name) for name in self._fields)


@functools.total_ordering
class QuadraticIrrational(_Record):
    """(p + q*sqrt(d))/r with r > 0, gcd(p, q, r) = 1, q != 0 and d a positive nonsquare.

    The radicand is kept as given, so one value has many field tuples; two
    instances are equal exactly when their values are, by `_key`.
    """

    __slots__ = ("p", "q", "d", "r")

    def __init__(self, p: int, q: int, d: int, r: int):
        if r == 0:
            raise ZeroDivisionError("zero denominator")
        if d <= 0:
            raise ValueError("radicand must be positive")
        if q == 0 or math.isqrt(d) ** 2 == d:
            raise RationalValueError("rational value, not a quadratic irrational")
        self._set((p, q, d, r))

    @staticmethod
    def _key(x: "QuadraticIrrational") -> tuple[int, int, int]:
        """(D, P, Q) with x = (P + sqrt(D))/Q, one per value, from one gcd and no factoring.

        x = (p + q*sqrt(d))/r is a root of (r^2 X^2 - 2pr X + p^2 - q^2 d)/g for
        g = gcd(r^2, 2pr, p^2 - q^2 d), its primitive minimal polynomial, unique up to
        sign, whose discriminant D = 4 r^2 q^2 d / g^2 every GL(2,Z) image of x shares.
        So x = (P + sqrt(D))/Q for P = 2pr/g and Q = 2r^2/g, both negated when q < 0.
        """
        p, q, d, r = x.p, x.q, x.d, x.r
        g = math.gcd(r * r, 2 * p * r, p * p - q * q * d) * (1 if q > 0 else -1)  # the sign of P and Q
        return 4 * r * r * q * q * d // (g * g), 2 * p * r // g, 2 * r * r // g

    def _set(self, values: tuple[int, int, int, int]) -> None:
        """Store (p + q*sqrt(d))/r for q != 0 and r != 0; d is trusted to be a positive nonsquare."""
        p, q, d, r = values
        if r < 0:
            p, q, r = -p, -q, -r
        g = math.gcd(p, q, r)
        _store(self, "p", p // g)
        _store(self, "q", q // g)
        _store(self, "d", d)
        _store(self, "r", r // g)

    # -- arithmetic --------------------------------------------------------

    def _operand(self, other) -> Optional[tuple[int, int, int]]:
        """other as (p, q, r), the value (p + q*sqrt(d))/r over self's radicand d.

        A value (p + q*sqrt(d2))/r is in the field exactly when d*d2 = s*s, as
        (p*d + q*s*sqrt(d))/(r*d).  None for a type outside int, Fraction and QuadraticIrrational.
        """
        if isinstance(other, int):
            return other.numerator, 0, 1
        if isinstance(other, QuadraticIrrational):
            d, d2 = self.d, other.d
            if d2 == d:
                return other.p, other.q, other.r
            s = math.isqrt(d * d2)
            if s * s != d * d2:
                raise ValueError("values live in different quadratic fields")
            return other.p * d, other.q * s, other.r * d
        fractions = sys.modules.get("fractions")  # a Fraction exists only once it is loaded
        if fractions is not None and isinstance(other, fractions.Fraction):
            return other.numerator, 0, other.denominator
        return None

    def _sum(self, p: int, q: int, r: int) -> Union[Fraction, "QuadraticIrrational"]:
        return _build(self.p * r + p * self.r, self.q * r + q * self.r, self.d, self.r * r)

    def _product(self, p: int, q: int, r: int) -> Union[Fraction, "QuadraticIrrational"]:
        return _build(self.p * p + self.q * q * self.d, self.p * q + self.q * p, self.d, self.r * r)

    def __add__(self, other):
        o = self._operand(other)
        return NotImplemented if o is None else self._sum(*o)

    __radd__ = __add__

    def __neg__(self):
        return self._at((-self.p, -self.q, self.d, self.r))

    def __sub__(self, other):
        o = self._operand(other)
        return NotImplemented if o is None else self._sum(-o[0], -o[1], o[2])

    def __rsub__(self, other):
        o = self._operand(other)
        return NotImplemented if o is None else (-self)._sum(*o)

    def __mul__(self, other):
        o = self._operand(other)
        return NotImplemented if o is None else self._product(*o)

    __rmul__ = __mul__

    def inverse(self) -> "QuadraticIrrational":
        norm = self.p * self.p - self.q * self.q * self.d
        return self._at((self.r * self.p, -self.r * self.q, self.d, norm))

    def __truediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        p, q, r = o
        if p == q == 0:
            raise ZeroDivisionError("division by zero")
        return self._product(r * p, -r * q, p * p - q * q * self.d)  # times 1/other

    def __rtruediv__(self, other):
        o = self._operand(other)
        return NotImplemented if o is None else self.inverse()._product(*o)

    # -- ordering ----------------------------------------------------------

    def __lt__(self, other):
        o = self._operand(other)
        return NotImplemented if o is None else math.floor(self._sum(-o[0], -o[1], o[2])) < 0

    def __floor__(self) -> int:
        return _floor(self, 0, 1)

    def __str__(self):
        return f"({self.p}{self.q:+d}*sqrt({self.d}))/{self.r}"


_fraction = None  # fractions.Fraction, imported by the first rational value


def _build(p: int, q: int, d: int, r: int) -> Union[Fraction, QuadraticIrrational]:
    """(p + q*sqrt(d))/r for a nonsquare d, a Fraction when q = 0."""
    global _fraction
    if q == 0:
        if _fraction is None:
            from fractions import Fraction as _fraction
        return _fraction(p, r)
    return QuadraticIrrational._at((p, q, d, r))


def _image(A: int, B: int, C: int, E: int, u: int, v: int, f: int, w: int) -> QuadraticIrrational:
    """(A*y + B)/(C*y + E) for y = (u + v*sqrt(f))/w, AE != BC, rationalised at once."""
    n0, n1, m0, m1 = A * u + B * w, A * v, C * u + E * w, C * v
    return QuadraticIrrational._at((n0 * m0 - n1 * m1 * f, n1 * m0 - n0 * m1, f, m0 * m0 - m1 * m1 * f))


def check_unit_interval(x: QuadraticIrrational) -> QuadraticIrrational:
    """x itself when 0 < x < 1; exact as floor(x) == 0, since x is irrational."""
    if math.floor(x) != 0:
        raise ValueError("parameter must lie in (0,1)")
    return x


# -- the period of a continued fraction ------------------------------------


def _minimal_period(period: tuple[int, ...]) -> tuple[int, ...]:
    """The shortest k-prefix whose repeats make up the period; k divides n."""
    n = len(period)
    small = [k for k in range(1, math.isqrt(n) + 1) if n % k == 0]
    divisors = small + [n // k for k in reversed(small)]  # ascending, ends at n
    return next(period[:k] for k in divisors if period == period[:k] * (n // k))


def _reduced(x: QuadraticIrrational) -> tuple[int, list[int], int, int]:
    """(D, digits, P, Q): x's preperiod digits and first reduced state.

    The walk starts at x = (P + sqrt(D))/Q, its key (`QuadraticIrrational._key`),
    with Q dividing D - P*P; the recurrence P <- a*Q - P, Q <- (D - P*P)/Q keeps
    that so, and for this D the state (P, Q) fixes the complete quotient.  By
    Galois' theorem a complete quotient is purely periodic exactly when it is
    reduced: 0 < P <= s and s - P < Q <= s + P for s = isqrt(D).  Lagrange's
    theorem says one comes.
    """
    D, P, Q = x._key(x)
    s = math.isqrt(D)
    digits: list[int] = []
    while not (0 < P <= s and s - P < Q <= s + P):
        a = _surd_floor(P, s, Q)
        digits.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
    return D, digits, P, Q


def _period(D: int, P: int, Q: int, stop: tuple[int, int] = (0, 1)) -> tuple[Optional[list[int]], bool]:
    """(the period's digits from the reduced state (P, Q), False), or (None, True) once it meets `stop`.

    By Galois the reverse (P_i, Q_{i-1}) of the state (P_i, Q_i) walks the
    cycle backwards.  So a cycle that meets an axis state, where
    Q_i == Q_{i-1} or P_{i+1} == P_i, is its own mirror image, with a second
    axis half a period away.  The walk goes forward until the cycle closes
    or it meets an axis; then it walks from the start's reverse, backwards
    along the cycle, to the other axis.  A symmetric period of k digits costs
    about k/2 floors and is two palindromes: each walked half and its mirror,
    sliced from the axis back.  Every walked state is checked against `stop`;
    one walked backwards is a reverse, so it counts as stop or as stop's
    reverse, and a forward state equal to stop's reverse counts once an axis
    shows the cycle symmetric.  `invariants.cf_expand` reads the digits, as
    (0, 1) is no reduced state; `invariants.flow_equivalent` reads the flag.
    """
    s, (P1, Q1), halves = math.isqrt(D), stop, []
    Q2, R = (D - P1 * P1) // Q1, (D - P * P) // Q  # (P1, Q2) reverses stop, (P, R) the start
    if P == P1 and Q == Q1:
        return None, True
    mirrored = P == P1 and Q == Q2  # stop's reverse is on the cycle: stop is, if the cycle is symmetric
    for P, Q, Qp in ((P, Q, R), (P, R, 0)):  # forward from the start, axis or not, then back from its reverse
        P0, Q0, Pp, digits = P, Q, 0, []
        while P != Pp and Q != Qp:  # an axis ends the walk
            a = (P + s) // Q  # Q > 0 on reduced states
            digits.append(a)
            Pp, Qp, P = P, Q, a * Q - P
            Q = (D - P * P) // Q
            if P == P1 and (Q == Q1 or Q == Q2):
                if Q == Q1 or halves:  # a state walked back is the reverse of one on the cycle
                    return None, True
                mirrored = True
            if P == P0 and Q == Q0 and P != Pp:  # closed, at no axis unless the period is one digit
                if halves:
                    raise RuntimeError("the backward walk closed without meeting an axis")
                return digits, False
        if mirrored:
            return None, True
        halves.append(digits + digits[-1 - (P == Pp) :: -1])  # its centre digit once if P == Pp
    return halves[0] + halves[1], False


# -- parse / print ---------------------------------------------------------

_QUAD_RE = re.compile(r"^quad:(-?\d+),(-?\d+),(\d+),(-?\d+)$")


def format_quad(x: QuadraticIrrational) -> str:
    return f"quad:{x.p},{x.q},{x.d},{x.r}"


def parse_quad(text: str) -> QuadraticIrrational:
    m = _QUAD_RE.match(text.strip())
    if not m:
        raise ValueError(f"malformed quadratic literal: {text!r}")
    p, q, d, r = map(int, m.groups())
    return QuadraticIrrational(p, q, d, r)

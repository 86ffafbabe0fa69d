"""Answer checks that share no code with the package under test.

Numbers of the field Q(sqrt d) are kept as pairs of fractions, floors are
taken with one integer square root, and codings are the lower/upper
mechanical words of Lothaire (Algebraic Combinatorics on Words, ch. 2):
the left-closed coding of t is floor(t+(i+1)a) - floor(t+ia), the
right-closed one the same with ceil.  Each check returns None when the
answer is right and a one-line reason when it is wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def squarefree_part(n: int) -> tuple[int, int]:
    """(s, f) with n = s*s*f and f squarefree, by trial division."""
    s, f, p = 1, 1, 2
    while p * p <= n:
        while n % (p * p) == 0:
            n //= p * p
            s *= p
        if n % p == 0:
            n //= p
            f *= p
        p += 1
    return s, f * n


@dataclass(frozen=True)
class Quad:
    """x + y*sqrt(d) with rational x, y and squarefree d > 1."""

    x: Fraction
    y: Fraction
    d: int

    def __add__(self, o):
        if isinstance(o, Quad):
            return Quad(self.x + o.x, self.y + o.y, self.d)
        return Quad(self.x + o, self.y, self.d)

    def __neg__(self):
        return Quad(-self.x, -self.y, self.d)

    def __sub__(self, o):
        return self + (-o)

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, o):
        if isinstance(o, Quad):
            return Quad(self.x * o.x + self.y * o.y * self.d, self.x * o.y + self.y * o.x, self.d)
        return Quad(self.x * o, self.y * o, self.d)

    def inverse(self) -> "Quad":
        norm = self.x * self.x - self.y * self.y * self.d
        return Quad(self.x / norm, -self.y / norm, self.d)

    def floor(self) -> int:
        # (X + Y*sqrt d)/Z with Z > 0: sqrt d is irrational, so the floor of
        # Y*sqrt d is exact and (X + floor(Y*sqrt d)) // Z is the answer
        den = math.lcm(self.x.denominator, self.y.denominator)
        big_x, big_y = int(self.x * den), int(self.y * den)
        if big_y == 0:
            return big_x // den
        root = math.isqrt(big_y * big_y * self.d)
        return (big_x + (root if big_y > 0 else -root - 1)) // den

    def frac(self) -> "Quad":
        return self - self.floor()

    def pqdr(self) -> tuple[int, int, int, int]:
        """The canonical (p, q, d, r): r > 0 and gcd(p, q, r) = 1."""
        r = math.lcm(self.x.denominator, self.y.denominator)
        p, q = int(self.x * r), int(self.y * r)
        g = math.gcd(math.gcd(p, q), r)
        return p // g, q // g, self.d, r // g


def order(a: tuple[int, int], b: tuple[int, int], alpha: Quad) -> int:
    """Sign of (a0 + a1*alpha) - (b0 + b1*alpha); alpha is irrational."""
    n, m = a[0] - b[0], a[1] - b[1]
    if m == 0:
        return (n > 0) - (n < 0)
    return 1 if (alpha * m + n).floor() >= 0 else -1


def canonical_cf(pre: tuple[int, ...], per: tuple[int, ...]) -> tuple[tuple, tuple]:
    """Minimal period and shortest preperiod of an eventually periodic expansion."""
    for k in range(1, len(per) + 1):
        if len(per) % k == 0 and per == per[:k] * (len(per) // k):
            per = per[:k]
            break
    while pre and pre[-1] == per[-1]:
        pre, per = pre[:-1], per[-1:] + per[:-1]
    return pre, per


def cf_literal(pre: tuple[int, ...], per: tuple[int, ...]) -> str:
    body = "(" + ",".join(map(str, per)) + ")"
    if not pre:
        return f"cf:[{body}]"
    return f"cf:[{pre[0]};" + ",".join([*map(str, pre[1:]), body]) + "]"


def cf_quad(pre: tuple[int, ...], per: tuple[int, ...]) -> Quad:
    """Value of [pre; (per)]: the periodic tail solves c y^2 + (e-a) y - b = 0."""
    a, b, c, e = 1, 0, 0, 1
    for digit in per:
        a, b, c, e = a * digit + b, a, c * digit + e, c
    s, f = squarefree_part((a - e) ** 2 + 4 * b * c)
    y = Quad(Fraction(a - e, 2 * c), Fraction(s, 2 * c), f)
    for digit in reversed(pre):
        y = y.inverse() + digit
    return y


# -- codings ------------------------------------------------------------------


def _floor(alpha: Quad, u: Fraction, v: Fraction) -> int:
    """floor(u + v*alpha)."""
    return (alpha * v + u).floor()


def letters(alpha: Quad, u: Fraction, v: Fraction, variant: str, start: int, stop: int) -> str:
    """Coding of the circle point t = u + v*alpha at indices start..stop-1."""
    fl = [_floor(alpha, u, v + i) for i in range(start, stop + 1)]
    if variant == "R":
        # ceil(s) = floor(s) + 1 unless s is an integer: u integer and v+i = 0
        exact = {i for i in range(start, stop + 1) if u.denominator == 1 and v + i == 0}
        fl = [f + (i not in exact) for i, f in zip(range(start, stop + 1), fl)]
    return "".join(str(fl[j + 1] - fl[j]) for j in range(stop - start))


def characteristic(alpha: Quad, n: int) -> str:
    """First n letters of the branch point's coding (t = alpha)."""
    return letters(alpha, Fraction(0), Fraction(1), "L", 0, n)


def factors(alpha: Quad, n: int) -> frozenset[str]:
    """The n+1 factors of length n, read off a long enough characteristic prefix."""
    m = 8 * (n + 2)
    while True:
        w = characteristic(alpha, m)
        found = {w[i : i + n] for i in range(m - n + 1)}
        if len(found) == n + 1:
            return frozenset(found)
        m *= 2


def past_words(alpha: Quad, u: Fraction, v: Fraction, variant: str, k: int, l: int) -> frozenset[str]:
    """Past set of depth l of the k-th shift of the point (t, variant).

    Walking back from index k splits into both codings at the index s with
    t + s*alpha = alpha (mod 1); the chains then differ only at s-1, s-2.
    """
    split = u.denominator == 1 and v.denominator == 1 and k - l < 1 - v <= k
    variants = ("L", "R") if split else (variant,)
    return frozenset(letters(alpha, u, v, var, k - l, k) for var in variants)


# -- checks ---------------------------------------------------------------------


def check_fibre(kind: str, count: int, resolved: bool) -> str | None:
    expected = {"omega": 3, "fwd": 3, "back": 2, "rational": 1, "quadratic": 1}[kind]
    if count != expected:
        return f"fibre over a {kind} point has {count} elements, expected {expected}"
    if not resolved:
        return f"fibre over a {kind} point is unresolved"
    return None


def check_language(alpha: Quad, n: int, words, longer) -> str | None:
    """|L(n)| = n+1, L(n) is the factor set, and the one left-special factor is
    the characteristic prefix (both 0w and 1w in the next language, longer)."""
    words = frozenset(words)
    if len(words) != n + 1:
        return f"language({n}) has {len(words)} words"
    if words != factors(alpha, n):
        return f"language({n}) differs from the factor set"
    special = [w for w in words if "0" + w in longer and "1" + w in longer]
    if special != [characteristic(alpha, n)]:
        return f"left-special factors of length {n}: {sorted(special)}"
    return None


def check_thread(alpha: Quad, u: Fraction, v: Fraction, variant: str, thread) -> str | None:
    prefix = letters(alpha, u, v, variant, 0, thread.K)
    for (k, l), c in thread.levels():
        if c.prefix != prefix[:k]:
            return f"thread prefix at {(k, l)} is {c.prefix!r}"
        if c.past != past_words(alpha, u, v, variant, k, l):
            return f"thread past at {(k, l)} is {sorted(c.past)}"
    return None


def check_quotient(alpha: Quad, k: int, l: int, classes, lower_classes, images) -> str | None:
    if {c.prefix for c in classes} != factors(alpha, k):
        return f"quotient prefixes at {(k, l)} are not the length-{k} factors"
    if not all(c.past <= factors(alpha, l) for c in classes):
        return f"quotient at {(k, l)} has an inadmissible past word"
    if set(images) != set(lower_classes):
        return "connecting map is not onto the lower quotient"
    return None


def check_witness(passed: bool, degenerate: int, window: int) -> str | None:
    if not passed:
        return f"two-set witness fails at window {window}"
    if degenerate <= window // 2:
        return f"one-set chain {degenerate} is not longer than window/2 = {window // 2}"
    return None


def check_decider(want_conj: bool, want_flow: bool, conj: bool, flow: bool) -> str | None:
    if (conj, flow) != (want_conj, want_flow):
        return f"decider says conj={conj} flow={flow}, construction gives {want_conj}/{want_flow}"
    return None

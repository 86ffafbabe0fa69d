"""Every small quadratic parameter, checked exhaustively: a verdict that no seed moves.

The scope is fixed in advance: every alpha = (P + sqrt(D))/Q in (0, 1) with D <= 50
nonsquare, 1 <= Q <= 30 and Q | D - P^2, deduplicated by value, 904 parameters.
Off-by-one errors live in small cases, and every small case is here (the
small-scope hypothesis: Jackson, *Software Abstractions*).  A failure lists
the parameters it holds for.
"""

import math
from fractions import Fraction

from sturmian.cover import fibre_report
from sturmian.quadratics import QuadraticIrrational, format_quad
from sturmian.words import OrbitPoint, branch_point, language


def _scope() -> list[QuadraticIrrational]:
    found = set()
    for d in range(2, 51):
        s = math.isqrt(d)
        if s * s == d:
            continue
        for q in range(1, 31):
            # 0 < (p + sqrt(d))/q < 1 exactly when -s <= p <= q - s - 1
            found.update(
                QuadraticIrrational(p, 1, d, q) for p in range(-s, q - s) if (d - p * p) % q == 0
            )
    return sorted(found, key=QuadraticIrrational._key)


SCOPE = _scope()


def test_scope_size():
    assert len(SCOPE) == 904
    assert all(0 < alpha < 1 for alpha in SCOPE)


def test_language_has_n_plus_1_words_and_one_left_special():
    bad = []
    for alpha in SCOPE:
        words = [language(alpha, n) for n in range(14)]
        for n in range(13):
            special = sum("0" + w in words[n + 1] and "1" + w in words[n + 1] for w in words[n])
            if (len(words[n]), special) != (n + 1, 1):
                bad.append((format_quad(alpha), n, len(words[n]), special))
    assert not bad, bad[:10]


def test_fibre_counts():
    # 3 over the branch point, 2 over back:2:L, 1 off the orbit of 0, each resolved at (3, 8)
    bad = []
    for alpha in SCOPE:
        points = [(branch_point(alpha), 3), (OrbitPoint(alpha, -alpha, "L"), 2), (OrbitPoint(alpha, Fraction(1, 2)), 1)]
        for x, count in points:
            rep = fibre_report(alpha, x, 3, 8)
            if (rep.count, rep.expected, rep.resolved) != (count, count, True):
                bad.append((format_quad(alpha), x, rep.count, rep.expected))
    assert not bad, bad[:10]

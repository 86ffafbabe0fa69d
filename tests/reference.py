"""Earlier enumeration paths of the package, kept as test oracles.

`words._cells` and `cover._classes` replaced three enumerations of the same
object; the tests compare the exact routines against them:

- the partition table, which sorts the cut points -i*alpha and codes the
  midpoint of every cell;
- the quotient built from representatives of that partition plus the
  branch orbit, cross-checked by seeded random samples;
- the fibre candidates built by left extension of the prefix.
"""

import random
from fractions import Fraction

from sturmian.cover import IndexPair, eq_class
from sturmian.words import (
    Arc,
    OrbitPoint,
    _mod1,
    branch_point,
    code_word,
    is_admissible,
    past_set,
)


def midpoint(arc):
    if arc.is_full_circle():
        return _mod1(arc.lo + Fraction(1, 2))
    return _mod1(arc.lo + arc.span() * Fraction(1, 2))


def partition_by_rotates(alpha, tags):
    """Half-open arcs cut by the points -i*alpha (mod 1) for i in tags."""
    pts = {}
    for i in tags:
        pts[_mod1(alpha * (-i)) if i else Fraction(0)] = i
    order = sorted(pts)
    arcs = []
    for j, lo in enumerate(order):
        hi = order[(j + 1) % len(order)]
        arcs.append(Arc(lo, hi, pts[lo], pts[hi]))
    return arcs


def partition_table(alpha, n):
    """The length-n cylinder arcs, keyed by the coding of their midpoints."""
    table = {}
    for arc in partition_by_rotates(alpha, range(n + 1)):
        w = code_word(OrbitPoint(alpha, midpoint(arc)), n)
        if w in table:
            raise AssertionError("partition arcs must code distinct words")
        table[w] = arc
    return table


def sampled_quotient(alpha, idx):
    """Classes of partition and branch-orbit representatives at idx.

    Raises when one of 32 seeded random points has a class outside them.
    """
    k, l = idx = IndexPair(*idx)
    reps = []
    for arc in partition_by_rotates(alpha, range(k + l + 1)):
        reps.append(OrbitPoint(alpha, midpoint(arc), "L"))
        reps.append(OrbitPoint(alpha, arc.lo, "L"))
        reps.append(OrbitPoint(alpha, arc.lo, "R"))
    # interior points of the partition cutting the past window [k-l, k)
    for arc in partition_by_rotates(alpha, range(k - l, k + 1)):
        reps.append(OrbitPoint(alpha, arc.interior_point_off_orbit(alpha), "L"))
    om = branch_point(alpha)
    reps += [om.shift(j) for j in range(k + l + 1)]
    classes = {eq_class(alpha, x, idx) for x in reps}
    rng = random.Random(974831)
    for _ in range(32):
        t = Fraction(rng.randint(1, 10**12 - 1), 10**12)
        if eq_class(alpha, OrbitPoint(alpha, t, "L"), idx) not in classes:
            raise AssertionError(f"sampled point escapes enumeration at {idx}")
    return classes


def chain_candidates(alpha, prefix, n):
    """Classes at (n, 2n) with the given prefix, each mapped to its
    branch-orbit point, or to None for a singleton past."""
    singles = {prefix}
    for _ in range(n):
        singles = {a + w for w in singles for a in "01" if is_admissible(alpha, a + w)}
    out = {(prefix, frozenset({w})): None for w in singles}
    om = branch_point(alpha)
    window = code_word(om, 2 * n)
    for j in range(n):
        if window[j : j + n] == prefix:
            y = om.shift(j)
            out[(prefix, past_set(y.shift(n), 2 * n))] = y
    for m in range(1, n + 1):
        for var in ("L", "R"):
            y = OrbitPoint(alpha, alpha * (1 - m), var)
            if code_word(y, n) == prefix:
                out[(prefix, past_set(y.shift(n), 2 * n))] = y
    return out

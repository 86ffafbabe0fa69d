"""Earlier paths of the package, kept as test oracles.

The package now stores circle points as integer triples (a + b*alpha)/c
and arcs as the integer tags i of their end points -i*alpha (mod 1), and
codes, orders, intersects and picks interior points with integer floors
(`quadratics._floor`, the field's one floor, which `words` imports); the
tests compare it against the object arithmetic it replaced, and against
three enumerations of the same object:

- circle points as field elements: shifts by adding k*alpha mod 1, orbit
  positions read off the rational coordinates, and shift preimages;
- coding by adding alpha to a circle point and comparing with 1 - alpha,
  and past sets by walking back along shift preimages;
- arcs with field-element end points (`FieldArc`): membership, span,
  letter arcs, cylinder arcs by intersecting them, the interior point off
  the orbit of 0 and the property-star witness built from it; and the
  cells by inserting each cut point -i*alpha into a sorted list by
  bisection;
- the partition table, which sorts the cut points -i*alpha and codes the
  midpoint of every cell;
- thread identity as the whole family over the truncated grid, every level
  coded from the thread's point and chain;
- the quotient built from representatives of that partition plus the
  branch orbit, cross-checked by seeded random samples, and built from
  the language plus one class per coded branch-orbit point;
- the fibre candidates built by left extension of the prefix, and their
  death depths found by reading the base point's letters one at a time
  and intersecting field arcs;
- first entries of the cut points -j*alpha into an arc by scanning j, and
  recurrence bounds by scanning window lengths over the whole language;
- disjointness of the witness words' shift cylinders by comparing every
  shift of one word with every shift of the other, a pair at one length by
  comparing every word with every word, and the witness search rescanning
  the language for every suffix, one length after another;
- the witness window scan testing every start position of every shift and
  taking the longest chain over a dict;
- continued fractions by iterating complete quotients as field elements
  until one repeats, and the period of a reduced state (P, Q) walked
  forward only, over every reduced state of its discriminant;
- the minimal period of a continued fraction by trying every length, and
  tail equivalence of two continued fractions by finding one period among
  the rotations of the other, written as digit strings.
"""

import math
import random
from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count, islice

from sturmian.arcs import cylinder_arc
from sturmian.cover import EqClass, IndexPair, eq_class
from sturmian.groupoid import WitnessCheck
from sturmian.invariants import ContinuedFraction
from sturmian.words import OrbitPoint, _letters, branch_point, language


# -- circle points as field elements ----------------------------------------------


def _mod1(t):
    t = t - math.floor(t)
    return Fraction(t) if isinstance(t, int) else t


def coords(alpha, t):
    """(u, v) with t = u + v*alpha; both rational."""
    if isinstance(t, Fraction):
        return t, Fraction(0)
    v = Fraction(t.q * alpha.r, t.r * alpha.q)
    return Fraction(t.p, t.r) - v * Fraction(alpha.p, alpha.r), v


def shift(x, k):
    """The circle point of the k-th shift of x."""
    return _mod1(x.t + x.alpha * k)


def hits_coding_boundary(alpha, t):
    u, v = coords(alpha, t)
    return u.denominator == 1 and v.denominator == 1 and v <= 0


def orbit_position(alpha, t):
    u, v = coords(alpha, t)
    if u.denominator != 1 or v.denominator != 1:
        return None
    if v >= 1:
        return "forward", int(v) - 1
    return "backward", 1 - int(v)


def denotes_same(alpha, t, variant, other_alpha, other_t, other_variant):
    if alpha != other_alpha or t != other_t:
        return False
    return variant == other_variant or not hits_coding_boundary(alpha, t)


def preimages(alpha, t, variant):
    """(t, variant) of every shift preimage of the point."""
    if t == alpha:
        return {(Fraction(0), "L"), (Fraction(0), "R")}
    return {(_mod1(t - alpha), variant)}


# -- coding by object arithmetic -----------------------------------------------


def letter(alpha, u, variant):
    split = 1 - alpha
    if u == 0:
        return "0" if variant == "L" else "1"
    if u == split:
        return "1" if variant == "L" else "0"
    return "0" if u < split else "1"


def coding(x):
    alpha = x.alpha
    u = x.t
    while True:
        yield letter(alpha, u, x.variant)
        u = u + alpha
        if u >= 1:
            u = u - 1
            if isinstance(u, int):
                u = Fraction(u)


def code_word(x, n):
    return "".join(islice(coding(x), n))


def code_letter(x, i):
    return letter(x.alpha, shift(x, i), x.variant)


def past_set(x, l):
    """Walk back along shift preimages, then code every point reached."""
    pts = {(x.t, x.variant)}
    for _ in range(l):
        pts = {y for t, v in pts for y in preimages(x.alpha, t, v)}
    return frozenset(code_word(OrbitPoint(x.alpha, t, v), l) for t, v in pts)


# -- arcs with object endpoints ------------------------------------------------


@dataclass(frozen=True)
class FieldArc:
    """The half-open arc [lo, hi) between cut points, its endpoints as field elements.

    lo_tag and hi_tag are the integers i with endpoint -i*alpha (mod 1); the
    arc wraps through 0 when hi <= lo, and lo == hi is the full circle.
    """

    lo: object
    hi: object
    lo_tag: int
    hi_tag: int

    def is_full_circle(self):
        return self.lo == self.hi

    def contains(self, t):
        if self.is_full_circle():
            return True
        if self.lo < self.hi:
            return self.lo <= t < self.hi
        return t >= self.lo or t < self.hi

    def span(self):
        if self.is_full_circle():
            return Fraction(1)
        return _mod1(self.hi - self.lo)


def ends(arc):
    """(lo, hi, lo_tag, hi_tag) of a field arc, or of a package arc, its ends built from its tags."""
    if not isinstance(arc, FieldArc):
        arc = field_arc(arc)
    return arc.lo, arc.hi, arc.lo_tag, arc.hi_tag


@lru_cache(maxsize=4096)
def tag_arc(alpha, lo_tag, hi_tag):
    """The field arc between the cut points of two tags."""
    return FieldArc(_mod1(alpha * -lo_tag), _mod1(alpha * -hi_tag), lo_tag, hi_tag)


def field_arc(arc):
    """The field arc of a package arc, which keeps only its parameter and tags."""
    return tag_arc(arc.alpha, arc.lo_tag, arc.hi_tag)


def letter_arc(alpha, letter, j):
    if letter == "0":
        return tag_arc(alpha, j, j + 1)
    return tag_arc(alpha, j + 1, j)


def intersect_arcs(a, b):
    if a.is_full_circle():
        return b
    if b.is_full_circle():
        return a
    span_a = a.span()
    s2 = _mod1(b.lo - a.lo)
    e2 = s2 + b.span()
    pieces = []  # each starts at b.lo or a.lo and ends at b.hi or a.hi
    if s2 < span_a:
        end = min(e2, span_a)
        if s2 < end:
            pieces.append((b.lo, b.lo_tag, b if end == e2 else a))
    if e2 > 1:
        end = min(e2 - 1, span_a)
        if end > 0:
            pieces.append((a.lo, a.lo_tag, b if end == e2 - 1 else a))
    if not pieces:
        return None
    if len(pieces) > 1:
        raise RuntimeError("arc intersection is not a single arc")
    lo, lo_tag, last = pieces[0]
    return FieldArc(lo, last.hi, lo_tag, last.hi_tag)


def interior_point_off_orbit(arc):
    """lo plus the fraction 1/(2*|lo_tag - hi_tag| + 1) of the arc; 1/2 on the full circle."""
    if arc.is_full_circle():
        return Fraction(1, 2)
    return _mod1(arc.lo + arc.span() * Fraction(1, 2 * abs(arc.lo_tag - arc.hi_tag) + 1))


def property_star_witness(alpha, mu):
    """The point len(mu) shifts past the interior point of mu's field arc."""
    t = interior_point_off_orbit(word_arc(alpha, mu))
    return OrbitPoint(alpha, t, "L").shift(len(mu))


def word_arc(alpha, mu):
    arc = FieldArc(Fraction(0), Fraction(0), 0, 0)
    for j, letter in enumerate(mu):
        arc = intersect_arcs(arc, letter_arc(alpha, letter, j))
        if arc is None:
            return None
    return arc


def cells(alpha, n):
    """Length-n cylinder arcs in circular order, cut points inserted by bisection."""
    pts = [Fraction(0)]
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
        "".join(w): FieldArc(pts[p], pts[(p + 1) % m], tags[p], tags[(p + 1) % m])
        for p, w in enumerate(letters)
    }


# -- enumerations ---------------------------------------------------------------


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
        arcs.append(FieldArc(lo, hi, pts[lo], pts[hi]))
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


def thread_family(x, K, L, chain=None):
    """The family over the grid k <= K, l <= L of the section through x, or of the
    fibre element along the chain with letter `chain` at the point 0 behind x ('0'
    on side L, '1' on side R), coded from the point and chain alone.

    The section's class at (k, l) is x's prefix and the past of its k-th shift,
    a chain's the singleton of the l letters of x.t + (k - l)*alpha on the
    chain's side; both are the length-l suffixes of the pasts coded at (k, L).
    """
    prefix, levels = code_word(x, K), []
    for k in range(K + 1):
        if chain is None:
            pasts = past_set(x.shift(k), L)
        else:
            pasts = {code_word(OrbitPoint(x.alpha, shift(x, k - L), "LR"[chain == "1"]), L)}
        for l in range(k, L + 1):
            idx = IndexPair(k, l)
            levels.append((idx, EqClass(idx, prefix[:k], frozenset(w[L - l :] for w in pasts))))
    return K, L, tuple(levels)


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
        reps.append(OrbitPoint(alpha, interior_point_off_orbit(arc), "L"))
    om = branch_point(alpha)
    reps += [om.shift(j) for j in range(k + l + 1)]
    classes = {eq_class(alpha, x, idx) for x in reps}
    rng = random.Random(974831)
    for _ in range(32):
        t = Fraction(rng.randint(1, 10**12 - 1), 10**12)
        if eq_class(alpha, OrbitPoint(alpha, t, "L"), idx) not in classes:
            raise AssertionError(f"sampled point escapes enumeration at {idx}")
    return classes


def classes(alpha, k, l):
    """Every class at (k, l): one per admissible past word, plus the class of
    every point whose k-th shift is sigma^j(omega), j < l, coded one by one.

    That point is sigma^(j-k)(omega) when j >= k, else either coding of the
    point (1-k+j)*alpha; those classes carry it as their representative.
    """
    idx = IndexPair(k, l)
    out = {EqClass(idx, w[l - k :], frozenset({w})) for w in language(alpha, l)}
    om = branch_point(alpha)
    for j in range(l):
        if j >= k:
            reps = [om.shift(j - k)]
        else:
            reps = [OrbitPoint._at((alpha, 0, 1 - k + j, 1, v)) for v in "LR"]
        out.update(eq_class(alpha, x, idx) for x in reps)
    return out


def chain_candidates(alpha, prefix, n):
    """Classes at (n, 2n) with the given prefix, each mapped to its
    branch-orbit point, or to None for a singleton past."""
    singles = {prefix}
    for _ in range(n):
        singles = {a + w for w in singles for a in "01" if cylinder_arc(alpha, a + w) is not None}
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


def death_depths_by_walk(alpha, x, n0, candidates, max_depth):
    """The number of x's letters read when each candidate dies, one letter at a time.

    A singleton past {w} dies at the letter x[i] (i >= n0) whose letter arc at
    index n0 + i empties the arc of w glued to x[n0:i]; a candidate with a
    branch-orbit point dies at the first letter where that point's coding
    parts from x's.  Candidates alive after max_depth letters are left out.
    """
    arcs, codings, depths = {}, {}, {}
    for data, y in candidates.items():
        if y is None:
            (w,) = data[1]
            arcs[data] = word_arc(alpha, w)
        else:
            codings[data] = _letters(y.alpha, y.variant, y.a, y.b, y.c)
    for i, letter in enumerate(islice(_letters(x.alpha, x.variant, x.a, x.b, x.c), max_depth)):
        for data, other in list(codings.items()):
            if next(other) != letter:
                del codings[data]
                depths[data] = i + 1
        if i >= n0:
            for data, arc in list(arcs.items()):
                arcs[data] = intersect_arcs(arc, letter_arc(alpha, letter, n0 + i))
                if arcs[data] is None:
                    del arcs[data]
                    depths[data] = i + 1
        if not (arcs or codings):
            break
    return depths


# -- first entries and recurrence by scanning -----------------------------------------


def first_entry_by_scan(p, q, limit):
    """The least j < limit whose cut point -j*alpha (mod 1) lies on the arc from p to q.

    An L end stands just after its circle point and an R end just before it,
    with the R point 0 at 1; None when no j below the limit lands.
    """

    def end(pt):
        side = 1 if pt.variant == "L" else -1
        return (Fraction(1) if pt.t == 0 and side < 0 else pt.t), side

    lo, hi = end(p), end(q)
    for j in range(limit):
        cut = (_mod1(p.alpha * -j), 0)
        if (lo < cut < hi) if lo < hi else (cut > lo or cut < hi):
            return j
    return None


def recurrence_bound(alpha, mu, max_window=2048):
    """The least window length m whose every admissible word contains mu, by trying each m."""
    for m in range(len(mu), max_window + 1):
        if all(mu in w for w in language(alpha, m)):
            return m
    raise AssertionError(f"no recurrence bound within window {max_window}")


# -- the witness words ------------------------------------------------------------


def shifts(word, lbar):
    return [word[j:] for j in range(lbar)]


@lru_cache(maxsize=64)
def _shift_pairs(lbar):
    """Every (j, i) with j, i < lbar, those with the shortest shifts first: a pair of
    words whose cylinders meet shows it there, so the sweep over lengths stays quick."""
    return sorted(((j, i) for j in range(lbar) for i in range(lbar)), key=max, reverse=True)


def shift_cylinders_disjoint(mu, nu, lbar):
    """No shift mu[j:] is a prefix of a shift nu[i:], or the other way, for j, i < lbar."""
    return not any(
        mu[j:].startswith(nu[i:]) or nu[i:].startswith(mu[j:]) for j, i in _shift_pairs(lbar)
    )


def has_pair(alpha, lbar, m):
    """Some two words of length m have distinct suffixes of m - lbar letters and disjoint
    shift cylinders, by comparing every word with every word."""
    words = language(alpha, m)
    return any(
        mu[lbar:] != nu[lbar:] and shift_cylinders_disjoint(mu, nu, lbar) for mu in words for nu in words
    )


def witness_words(alpha, lbar):
    """dad_witness's first pair (mu, nu) at the least length m >= 2*lbar that has one, by
    scanning the language for each suffix of m - lbar letters."""
    for m in count(2 * lbar):
        suffixes = sorted(language(alpha, m - lbar))
        words = sorted(language(alpha, m))
        ending = {s: [w for w in words if w.endswith(s)] for s in suffixes}
        for i, s1 in enumerate(suffixes):
            for s2 in suffixes[i + 1 :]:
                for mu in ending[s1]:
                    for nu in ending[s2]:
                        if shift_cylinders_disjoint(mu, nu, lbar):
                            return mu, nu


# -- the witness window scan ------------------------------------------------------


def u_positions(w, word, limit):
    mu_shifts = shifts(w.mu, w.lbar)
    return {s for s in range(limit + 1) if any(word.startswith(shift, s) for shift in mu_shifts)}


def longest_chain(allowed, jumps):
    best = {}
    for s in sorted(allowed, reverse=True):
        best[s] = max((1 + best[s + f] for f in jumps if s + f in best), default=0)
    return max(best.values(), default=0)


def longest_spanned_chain(allowed, jumps, span):
    """The longest chain of flagged positions that ends at most span past its start:
    longest_chain inside each stretch s..s + span, since such a chain lies in the
    stretch of its start and a chain inside a stretch spans at most span."""
    flagged = {s for s, ok in enumerate(allowed) if ok}
    return max(
        (longest_chain({p for p in flagged if s <= p <= s + span}, jumps) for s in range(len(allowed))),
        default=0,
    )


def check_witness(alpha, w, window):
    """The window scan with the position set and chain dict above."""
    limit = window - len(w.mu)
    jumps = [v for v in w.cocycle_values if v >= 1]
    covered = True
    max_first = max_v = max_u = 0
    for word in language(alpha, window):
        upos = u_positions(w, word, limit)
        first = min(upos, default=limit + 1)
        covered = covered and first <= w.beta_mu
        max_first = max(max_first, first)
        max_v = max(max_v, longest_chain(set(range(limit + 1)) - upos, jumps))
        max_u = max(max_u, longest_chain(upos, jumps))
    return WitnessCheck(w, window, covered, max_first, max_v, max_u, w.lbar * max(max_v, max_u))


# -- continued fractions ----------------------------------------------------------


def field_floor(y):
    """floor(y) from an isqrt estimate corrected by exact comparisons."""
    q2d = y.q * y.q * y.d
    fs = math.isqrt(q2d) if y.q > 0 else -math.isqrt(q2d) - 1
    n = (y.p + fs) // y.r
    while y > n + 1:
        n += 1
    while y < n:
        n -= 1
    return n


def cf_expand(x, max_steps=5000):
    """Continued fraction by iterating complete quotients as field elements."""
    digits = []
    seen = {}
    y = x
    for step in range(max_steps):
        if y in seen:
            f = seen[y]
            return ContinuedFraction(tuple(digits[:f]), tuple(digits[f:]))
        seen[y] = step
        a = field_floor(y)
        digits.append(a)
        y = (y - a).inverse()
    raise AssertionError(f"no period within {max_steps} steps")


def minimal_period(period):
    """The shortest prefix whose repeats make up the period, trying every length."""
    n = len(period)
    for p in range(1, n + 1):
        if n % p == 0 and period == period[:p] * (n // p):
            return period[:p]
    return period


def _delimited(digits):
    return "," + ",".join(map(str, digits)) + ","


def cf_tail_equivalent(a, b):
    """True iff the two digit streams agree from some point on.

    For canonical (minimal-period) inputs this holds exactly when the
    periods are rotations of one another, that is when b's period occurs
    in a's period written twice.
    """
    return len(a.period) == len(b.period) and _delimited(b.period) in _delimited(a.period * 2)


def reduced_states(D):
    """Every reduced state (P, Q) of discriminant D: (P + sqrt D)/Q > 1 with conjugate in (-1, 0)."""
    s = math.isqrt(D)
    return [(P, Q) for P in range(1, s + 1) for Q in range(s - P + 1, s + P + 1) if (D - P * P) % Q == 0]


def period_walk(D, P, Q):
    """The digits and states of the cycle through the reduced state (P, Q), walked forward only."""
    s, start, digits, states = math.isqrt(D), (P, Q), [], []
    while not states or (P, Q) != start:
        states.append((P, Q))
        a = (P + s) // Q
        digits.append(a)
        P, Q = a * Q - P, (D - (a * Q - P) ** 2) // Q
    return digits, states

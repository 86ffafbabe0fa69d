"""Finite quotients of a Sturmian subshift by prefix/past equivalence.

A point x is equivalent to x' at level (k,l) when they share their length-k
prefix and the length-l past of their k-th shift.  The quotients form a
projective system under the partial order (k1,l1) <= (k2,l2) iff k1 <= k2
and l1-k1 <= l2-k2; threads are compatible families of classes across a
truncated index grid and approximate elements of the projective limit.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterator, NamedTuple

from .arcs import _first_entry, cylinder_arc
from .quadratics import QuadraticIrrational, _Record, _store
from .words import OrbitPoint, Word, _interior_point, _orbit_point, _zero_words, past_set


class IndexPair(NamedTuple):
    k: int
    l: int


def _check_index(idx) -> IndexPair:
    idx = IndexPair(*idx)
    if idx.k < 0 or idx.k > idx.l:
        raise ValueError(f"index pair must satisfy 0 <= k <= l: {idx}")
    return idx


def index_leq(a, b) -> bool:
    """The projective-system order: k1 <= k2 and l1-k1 <= l2-k2."""
    a, b = _check_index(a), _check_index(b)
    return a.k <= b.k and a.l - a.k <= b.l - b.k


class EqClass(_Record):
    """A prefix/past equivalence class, optionally with one witnessing point."""

    __slots__ = ("index", "prefix", "past", "representative")
    _key = attrgetter("index", "prefix", "past")  # the representative is not compared

    def __init__(self, index: IndexPair, prefix: Word, past: frozenset[Word], representative=None):
        if len(prefix) != index.k:
            raise ValueError("prefix length must equal k")
        if not past or len(past) > 2:
            raise ValueError("past sets have one or two elements")
        if any(len(w) != index.l for w in past):
            raise ValueError("past words must have length l")
        _store(self, "index", index)
        _store(self, "prefix", prefix)
        _store(self, "past", past)
        _store(self, "representative", representative)


def _check_point(alpha: QuadraticIrrational, x: OrbitPoint) -> None:
    if x.alpha != alpha:
        raise ValueError("point belongs to a different parameter")


def _on_side(past: frozenset[Word], at: int, letter: str) -> Word:
    """A past set's one word, or of two pasts the one with `letter` at `at`, where both
    hold letter 0 of the codings of 0: '0' on side L, '1' on side R (Lothaire, ch. 2)."""
    return next(w for w in past if len(past) == 1 or w[at] == letter)


def eq_class(alpha: QuadraticIrrational, x: OrbitPoint, idx) -> EqClass:
    """x's class at (k, l); its prefix ends the past word on x's side, and two pasts are
    letters b-l..b-1 of the codings of 0, x.shift(k) = b*alpha, so letter 0 is at l - b."""
    _check_point(alpha, x)
    k, l = idx = _check_index(idx)
    past = past_set(x.shift(k), l)
    return EqClass(idx, _on_side(past, l - k - x.b, "01"[x.variant == "R"])[l - k :], past, x)


class FiniteQuotient(_Record):
    __slots__ = ("alpha", "index", "classes")  # QuadraticIrrational, IndexPair, frozenset[EqClass]

    def __len__(self):
        return len(self.classes)


def _classes(alpha: QuadraticIrrational, k: int, w: Word, v: Word, prefix: Word = "") -> Iterator[EqClass]:
    """Each class at level (k, l) whose prefix begins with `prefix`, once, from the codings of 0.

    w is the L coding of 0 at indices -l..l-1, l = len(w) // 2, and v the R
    coding; they differ only at -1 and 0.  The k-th shift of x has one length-l
    past unless it is sigma^j(omega), the point (1+j)*alpha, with j < l.  A
    unique past is one admissible length-l word, a window of w, whose last k
    letters are then the prefix; every such word occurs.  The other classes
    belong to the points x = (1+j-k)*alpha: their pasts are the windows of w
    and v ending at index j, and x's prefix is w's window of k letters ending
    there, or v's for x's R coding, another point when j < k.  Those classes
    carry x as their representative; the singleton classes carry none.
    Each window is tested against `prefix` before its class is built; classes come one at a time.
    """
    l = len(w) // 2  # letter i at w[l + i]
    idx = IndexPair(k, l)
    for i in range(l + 1):
        if w.startswith(prefix, i + l - k):
            yield EqClass(idx, w[i + l - k : i + l], frozenset({w[i : i + l]}))
    for j in range(l):
        e = l + 1 + j  # the windows end at index j, just before w[e]
        for word, variant in ((w, "L"), (v, "R"))[: 1 + (j < k)]:
            if word.startswith(prefix, e - k):
                past = frozenset({w[e - l : e], v[e - l : e]})
                yield EqClass(idx, word[e - k : e], past, _orbit_point(alpha, 1 + j - k, variant))


def quotient(alpha: QuadraticIrrational, idx) -> FiniteQuotient:
    """All equivalence classes at idx, by exact enumeration."""
    idx = _check_index(idx)
    return FiniteQuotient(alpha, idx, frozenset(_classes(alpha, idx.k, *_zero_words(alpha, idx.l))))


def q_map(c: EqClass, idx1) -> EqClass:
    """Connecting surjection (k2,l2) -> (k1,l1), computed on the class data.

    Past words cover positions [k2-l2, k2) and the prefix covers [0, k2).
    The lower past is the slice over [k1-l1, k1) of the past words that
    agree with the prefix on [k1, k2): exactly the preimage chains that
    pass through the k1-th shift (chains split only at the branch point,
    into distinct letters).
    """
    idx1 = _check_index(idx1)
    if not index_leq(idx1, c.index):
        raise ValueError(f"{idx1} is not below {c.index} in the projective order")
    (k1, l1), (k2, l2) = idx1, c.index
    end = k1 - k2 + l2
    past = frozenset(w[end - l1 : end] for w in c.past if w[end:] == c.prefix[k1:])
    return EqClass(idx1, c.prefix[:k1], past)


def shift_map(c: EqClass) -> EqClass:
    """Image of a class under the induced shift: (k,l) -> (k-1,l)."""
    k, l = c.index
    if k < 1:
        raise ValueError("shift map needs k >= 1")
    return EqClass(IndexPair(k - 1, l), c.prefix[1:], c.past)


# -- threads ----------------------------------------------------------------


class Thread(_Record):
    """A compatible family of classes over the truncated grid k<=K, l<=L.

    The family is stored as its base and one class `grid` at (K, K + L), the
    projection of the class `top` it is built from, which is not kept.  Each
    level (k, l) lies below (K, K + L) and the connecting maps compose, so it
    is projected from `grid`.  Threads are compared on their parameter and
    `grid`, whose index carries K and L.  Equal classes give equal families,
    and for the classes the cover builds the converse holds: a two-word past
    is a pair of windows of the L and R codings of 0, which differ only at
    letters -1 and 0 (Lothaire, ch. 2).  Two hand-built tops that no point has
    may share a family and still differ.
    """

    __slots__ = ("base", "K", "L", "grid")
    _key = attrgetter("base.alpha", "grid")

    def __init__(self, base: OrbitPoint, K: int, L: int, top: EqClass):
        if not 0 <= K <= L:
            raise ValueError("need 0 <= K <= L")
        grid = q_map(top, IndexPair(K, K + L))  # raises for a top below (K, K + L)
        q_map(grid, IndexPair(0, L))  # and for one with no past word ending in its prefix
        self._fill((base, K, L, grid))

    def class_at(self, k: int, l: int) -> EqClass:
        if not (0 <= k <= min(self.K, l) and l <= self.L):
            raise KeyError(f"level {(k, l)} lies outside the truncation")
        return q_map(self.grid, IndexPair(k, l))

    def levels(self) -> Iterator[tuple[IndexPair, EqClass]]:
        for k in range(self.K + 1):
            for l in range(k, self.L + 1):
                yield IndexPair(k, l), self.class_at(k, l)

    def table(self) -> list[str]:
        """The thread's rows of a level -> (prefix, past) table."""
        rows = []
        for (k, l), c in self.levels():
            past = ",".join(w or "-" for w in sorted(c.past))
            rows.append(f"({k},{l}): prefix={c.prefix or '-'} past={{{past}}}")
        return rows


def _chains(x: OrbitPoint) -> str:
    """The letters at the point 0 behind x of the chains that carry a fibre element over x
    besides the section: both over sigma^j(omega), its own side's over a backward point."""
    pos = x.orbit_position()
    return "" if pos is None else "01" if pos[0] == "forward" else "01"[x.variant == "R"]


def _tops(alpha: QuadraticIrrational, x: OrbitPoint, L: int, chains: str = "") -> list[EqClass]:
    """The top of the section iota(x) at truncation L, then of the thread along each chain
    in `chains` (`_chains`): x's class at the chain level (n, 2n), n = max(L, 1), and the
    singleton of that class's past on each chain's side.  Both pasts end with x's prefix,
    save over a backward point, whose one chain is its own.
    """
    n = max(L, 1)
    top = eq_class(alpha, x, (n, 2 * n))
    return [top] + [EqClass(top.index, top.prefix, frozenset({_on_side(top.past, n - x.b, c)})) for c in chains]


def thread_of(alpha: QuadraticIrrational, x: OrbitPoint, K: int, L: int) -> Thread:
    """The canonical thread through x (the section of the factor map)."""
    return Thread(x, K, L, _tops(alpha, x, L)[0])


def shift_thread(th: Thread) -> Thread:
    """Image of a thread under the induced shift; truncation drops to K-1, below
    the image of `grid` at (K - 1, K + L)."""
    if th.K < 1:
        raise ValueError("shift needs K >= 1")
    return Thread(th.base.shift(), th.K - 1, th.L, shift_map(th.grid))


def property_star_witness(alpha: QuadraticIrrational, mu: Word) -> OrbitPoint:
    """A point whose length-|mu| past is exactly {mu}, off the branch orbit."""
    arc = cylinder_arc(alpha, mu)
    if arc is None:
        raise ValueError(f"word is not admissible: {mu!r}")
    return _interior_point(alpha, arc.lo_tag, arc.hi_tag).shift(len(mu))


def construct_fibre_element(
    alpha: QuadraticIrrational, x: OrbitPoint, past_letter: str, K: int, L: int
) -> Thread:
    """The non-section fibre element over a branch-orbit point x.

    past_letter is the letter at the point 0 behind x: '0' selects the
    backward chain on side L, '1' the chain on side R.  The chain must be
    one of x's fibre chains: either side over a forward-orbit point, the
    point's own side over a backward-orbit point.
    """
    if past_letter not in ("0", "1"):
        raise ValueError("past letter must be '0' or '1'")
    _check_point(alpha, x)
    chains = _chains(x)
    if not chains:
        raise ValueError("the point is not in the orbit of the branch point")
    if past_letter not in chains:
        raise ValueError(f"the past letter of this backward point is forced to {chains!r}")
    return Thread(x, K, L, _tops(alpha, x, L, past_letter)[1])


def _death_depths(x: OrbitPoint, n0: int, classes, w: Word, v: Word) -> dict[EqClass, int]:
    """For each class at (n0, 2n0), the length of the shortest prefix of x it cannot carry.

    The cells of x's prefixes are cut by the points -j*alpha (mod 1); a class
    dies once cut points have landed on both arcs between x and its
    representative, or B = arc(u) + n0*alpha if it has none and past {u + prefix}.
    """
    alpha, depths = x.alpha, {}
    for c in classes:
        start = end = c.representative
        if start is None:  # w[n0:3n0] and v[n0:3n0] are the codings of 0 that cylinder_arc reads
            u = min(c.past)[:n0]  # one window in each: B runs from v's, side R, to w's, side L
            start, end = (_orbit_point(alpha, z.find(u, n0, 3 * n0) - n0, s) for z, s in ((v, "R"), (w, "L")))
        depths[c] = max(_first_entry(start, x), _first_entry(x, end))
    return depths


def fibre(alpha: QuadraticIrrational, x: OrbitPoint, K: int, L: int) -> set[Thread]:
    """All threads over x at truncation (K, L), built from the section's past and
    certified against every candidate.

    Every compatible family over the truncated grid is the projection of a
    single class at the chain level (n0, 2n0) of `_tops`, and the families
    extending to arbitrarily deep levels are exactly the fibre of the
    projective limit.  The candidates are the classes at (n0, 2n0) with x's
    prefix, found in the two codings of 0 at 2n0 (`_classes`); the tops of x's
    threads are among them, and each other class is certified dead, off the same
    pair, at a first landing of the cut points: a singleton-past class survives
    exactly while its past window glued to x's prefix stays admissible, and a
    two-past class belongs to one concrete branch-orbit point and survives
    only while that point's coding agrees with x.  Every depth is finite.
    """
    tops = _tops(alpha, x, L, _chains(x))
    threads = {Thread(x, K, L, top) for top in tops}
    n0 = tops[0].index.k
    w, v = _zero_words(alpha, 2 * n0)
    candidates = set(_classes(alpha, n0, w, v, tops[0].prefix))
    if not candidates.issuperset(tops):
        raise RuntimeError("constructed elements missing from candidates; enumeration bug")
    if any(depth <= n0 for depth in _death_depths(x, n0, candidates.difference(tops), w, v).values()):
        raise RuntimeError("a candidate died inside the chain level; arithmetic bug")
    return threads


def expected_fibre_size(x: OrbitPoint) -> int:
    """Fibre cardinality dictated by the cover theorem: 3 / 2 / 1."""
    return 1 + len(_chains(x))


class FibreReport(_Record):
    """Fibre search outcome; resolved when the truncation separates the fibre."""

    __slots__ = ("point", "K", "L", "threads", "expected", "min_K", "min_L")

    @property
    def count(self) -> int:
        return len(self.threads)

    @property
    def resolved(self) -> bool:
        return self.count == self.expected


def fibre_report(alpha: QuadraticIrrational, x: OrbitPoint, K: int, L: int) -> FibreReport:
    """The fibre over x and the least truncation (min_K, min_L) that resolves it: for
    x = b*alpha (mod 1) the chains split from the section at a level (k, L), k <= K,
    where the section's past has two words, 1 <= b + k <= L."""
    side, n = x.orbit_position() or ("off", -1)
    # (0, j + 1) for sigma^j(omega), (m, m) m shifts behind it, (0, 0) off the orbit
    min_K, min_L = (n, n) if side == "backward" else (0, n + 1)
    threads = fibre(alpha, x, K, L)
    return FibreReport(x, K, L, frozenset(threads), expected_fibre_size(x), min_K, min_L)


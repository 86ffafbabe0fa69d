"""Finite quotients of a Sturmian subshift by prefix/past equivalence.

A point x is equivalent to x' at level (k,l) when they share their length-k
prefix and the length-l past of their k-th shift.  The quotients form a
projective system under the partial order (k1,l1) <= (k2,l2) iff k1 <= k2
and l1-k1 <= l2-k2; threads are compatible families of classes across a
truncated index grid and approximate elements of the projective limit.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterator, NamedTuple, Optional

from .arcs import _first_entry, cylinder_arc
from .quadratics import QuadraticIrrational, _Record, _store
from .words import OrbitPoint, Word, _interior_point, _orbit_point, _zero_words, code_word, past_set


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


def eq_class(alpha: QuadraticIrrational, x: OrbitPoint, idx) -> EqClass:
    _check_point(alpha, x)
    idx = _check_index(idx)
    past = past_set(x.shift(idx.k), idx.l)  # first, so a level past the length bound codes nothing
    return EqClass(idx, code_word(x, idx.k), past, x)


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

    The family is stored as one class `top` whose index dominates the grid,
    and the `row` of its projections at (k, L), k <= K, built once with the
    thread.  Every level (k, l) lies below (k, L) and the connecting maps
    compose, so each level is projected from the row, and threads, immutable
    records, are compared on their parameter, K, L and the row.  Tops that
    differ only beyond the truncation therefore give equal threads, and of
    the base point, the subshift element the thread sits over, only its
    parameter enters equality.
    """

    __slots__ = ("base", "K", "L", "top", "row")
    _key = attrgetter("base.alpha", "K", "L", "row")

    def __init__(self, base: OrbitPoint, K: int, L: int, top: EqClass):
        if not 0 <= K <= L:
            raise ValueError("need 0 <= K <= L")
        k, l = top.index
        if k < K or l - k < L:
            raise ValueError(f"class at {top.index} does not dominate the grid K={K}, L={L}")
        self._fill((base, K, L, top, tuple(q_map(top, IndexPair(k, L)) for k in range(K + 1))))

    def class_at(self, k: int, l: int) -> EqClass:
        if not (0 <= k <= min(self.K, l) and l <= self.L):
            raise KeyError(f"level {(k, l)} lies outside the truncation")
        return q_map(self.row[k], IndexPair(k, l))

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


def _chains(x: OrbitPoint) -> list[Optional[str]]:
    """The backward chains that carry a fibre element over x.

    None is the section iota(x).  A forward-orbit point sigma^j(omega) has
    two more elements, one per coding side of the branch point behind it;
    a backward-orbit point mu.omega has one more, its own chain.
    """
    pos = x.orbit_position()
    if pos is None:
        return [None]
    return [None, "L", "R"] if pos[0] == "forward" else [None, x.variant]


def _thread(alpha: QuadraticIrrational, x: OrbitPoint, K: int, L: int, chain: Optional[str]) -> Thread:
    """The thread over x along one of its chains (`_chains`): None is iota(x).

    Its top is a class at the chain level (n, 2n), n = max(L, 1): x's own
    class for the section, and otherwise one coded window, letters -n..n-1
    of x on the chain's side, whose last n letters are x's prefix: the two
    sides agree from index 1 on, and a backward point's only chain is its own.
    """
    n = max(L, 1)
    if chain is None:
        return Thread(x, K, L, eq_class(alpha, x, (n, 2 * n)))
    _check_point(alpha, x)  # chains exist only on the orbit of 0, where x is x.b*alpha
    past = code_word(_orbit_point(alpha, x.b - n, chain), 2 * n)
    return Thread(x, K, L, EqClass(IndexPair(n, 2 * n), past[n:], frozenset({past})))


def thread_of(alpha: QuadraticIrrational, x: OrbitPoint, K: int, L: int) -> Thread:
    """The canonical thread through x (the section of the factor map)."""
    return _thread(alpha, x, K, L, None)


def shift_thread(th: Thread) -> Thread:
    """Image of a thread under the induced shift; truncation drops to K-1."""
    if th.K < 1:
        raise ValueError("shift needs K >= 1")
    return Thread(th.base.shift(), th.K - 1, th.L, shift_map(th.top))


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
    if chains == [None]:
        raise ValueError("the point is not in the orbit of the branch point")
    chain_variant = "L" if past_letter == "0" else "R"
    if chain_variant not in chains:
        forced = "0" if x.variant == "L" else "1"
        raise ValueError(f"the past letter of this backward point is forced to {forced!r}")
    return _thread(alpha, x, K, L, chain_variant)


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
    """All threads over x at truncation (K, L), by exhaustive chain search.

    Every compatible family over the truncated grid is the projection of a
    single class at the chain level (n0, 2n0) of `_thread`, and the families
    extending to arbitrarily deep levels are exactly the fibre of the
    projective limit.  The candidates are the classes at (n0, 2n0) with x's
    prefix, found in the two codings of 0 at 2n0 (`_classes`); the tops of x's
    threads are among them, and each other class is certified dead, off the same
    pair, at a first landing of the cut points: a singleton-past class survives
    exactly while its past window glued to x's prefix stays admissible, and a
    two-past class belongs to one concrete branch-orbit point and survives
    only while that point's coding agrees with x.  Every depth is finite.
    """
    threads = [_thread(alpha, x, K, L, v) for v in _chains(x)]
    tops = {th.top for th in threads}
    n0 = threads[0].top.index.k
    w, v = _zero_words(alpha, 2 * n0)
    candidates = set(_classes(alpha, n0, w, v, threads[0].top.prefix))
    if not tops <= candidates:
        raise RuntimeError("constructed elements missing from candidates; enumeration bug")
    if any(depth <= n0 for depth in _death_depths(x, n0, candidates - tops, w, v).values()):
        raise RuntimeError("a candidate died inside the chain level; arithmetic bug")
    return set(threads)


def expected_fibre_size(x: OrbitPoint) -> int:
    """Fibre cardinality dictated by the cover theorem: 3 / 2 / 1."""
    return len(_chains(x))


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


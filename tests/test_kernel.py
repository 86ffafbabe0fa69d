"""The integer mechanical-word kernel against the object arithmetic it replaced.

`tests/reference.py` keeps the object path: circle points as field elements,
coding by adding alpha and comparing with 1 - alpha, pasts by walking back
along preimages, arcs with object endpoints and cells inserted by bisection.
The kernel must agree with it point for point, letter for letter, past for
past and arc for arc, and must build a bounded number of field elements
however long the word; arcs and the cover build none at all, and the
language and cylinder arcs a bounded number of floors per letter.  Language,
arcs and special factors are also checked over random continued-fraction
parameters.  First entries of the cut points into an arc must agree with a
scan over j, and floors of a ratio of two lattice elements with the field
arithmetic.
"""

import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sturmian.arcs import _first_entry, cylinder_arc
from sturmian.cover import (
    construct_fibre_element,
    eq_class,
    fibre,
    property_star_witness,
    quotient,
    thread_of,
)
from sturmian.groupoid import check_witness, dad_witness
from sturmian.invariants import ContinuedFraction, cf_value
from sturmian.quadratics import QuadraticIrrational
from sturmian.words import (
    OrbitPoint,
    _floor,
    _interior_point,
    branch_point,
    code_word,
    language,
    past_set,
    preimages,
)
from sturmian import cover, words

import reference
from costs import FLOORED, tried_lengths

# five parameters in four quadratic fields
ALPHAS = [
    QuadraticIrrational(3, -1, 5, 2),  # [0; 2, (1)]
    QuadraticIrrational(-1, 1, 5, 2),  # [0; (1)]
    QuadraticIrrational(-1, 1, 2, 1),  # [0; (2)]
    QuadraticIrrational(-1, 1, 13, 6),  # [0; 2, (3)]
    QuadraticIrrational(-1, 1, 3, 1),  # [0; (1, 2)]
]

fractions = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


@st.composite
def points(draw):
    """A point of one of four kinds with either coding variant."""
    alpha = draw(st.sampled_from(ALPHAS))
    kind = draw(st.sampled_from(["rational", "quadratic", "backward", "forward"]))
    if kind == "rational":
        t = draw(fractions)
    elif kind == "quadratic":
        t = draw(fractions) + alpha * draw(fractions.filter(lambda v: v != 0))
    elif kind == "backward":  # -m*alpha: the two codings differ
        t = alpha * -draw(st.integers(0, 300))
    else:  # sigma^j(omega)
        t = alpha * draw(st.integers(1, 300))
    return OrbitPoint(alpha, t, draw(st.sampled_from("LR")))


@settings(max_examples=150, deadline=None)
@given(x=points(), k=st.integers(-300, 300), other=points())
# (1 + alpha)/2 shares b = 1 with the branch point but has one preimage
@example(x=OrbitPoint(ALPHAS[0], (1 + ALPHAS[0]) / 2), k=0, other=branch_point(ALPHAS[0]))
def test_point_arithmetic(x, k, other):
    y = x.shift(k)
    t = reference.shift(x, k)
    assert y.t == t and type(y.t) is type(t)
    # equal exactly when (t, variant) are equal, built from the triple or from t
    flip = "R" if x.variant == "L" else "L"
    pts = [y, OrbitPoint(x.alpha, t, x.variant), OrbitPoint(x.alpha, t, flip), x.shift(k + 1), other]
    for p in pts:
        for q in pts:
            assert (p == q) == ((p.alpha, p.t, p.variant) == (q.alpha, q.t, q.variant))
            if p == q:
                assert hash(p) == hash(q)
    assert y.orbit_position() == reference.orbit_position(y.alpha, t)
    assert y.hits_coding_boundary() == reference.hits_coding_boundary(y.alpha, t)
    assert {(p.t, p.variant) for p in preimages(y)} == reference.preimages(y.alpha, t, y.variant)
    for w in pts:
        assert (y == w) == reference.denotes_same(y.alpha, t, y.variant, w.alpha, w.t, w.variant)


@settings(max_examples=150, deadline=None)
@given(x=points(), n=st.integers(0, 60))
def test_one_record_per_element(x, n):
    # the two codings of a point differ only on the coding boundary, and only
    # there do its two sides make two records; each record codes as its side asks
    t = x.t
    left, right = OrbitPoint(x.alpha, t, "L"), OrbitPoint(x.alpha, t, "R")
    for y in (left, right):
        asked = SimpleNamespace(alpha=x.alpha, t=t, variant="L" if y is left else "R")
        assert code_word(y, n) == reference.code_word(asked, n)
    if reference.hits_coding_boundary(x.alpha, t):
        assert left != right and (left.variant, right.variant) == ("L", "R")
    else:
        assert left == right and hash(left) == hash(right) and right.variant == "L"


@settings(max_examples=150, deadline=None)
@given(x=points(), n=st.integers(0, 300))
def test_code_word(x, n):
    assert code_word(x, n) == reference.code_word(x, n)


@settings(max_examples=150, deadline=None)
@given(x=points(), i=st.integers(0, 300))
def test_code_letter(x, i):
    assert code_word(x, i + 1)[-1] == reference.code_letter(x, i)


def _at_slice_edges(test):
    """Examples b*alpha at the edges of the two-past slice w[b : b + l] of the codings of 0.

    b = 1 is omega; at b = l the window starts at index 0, where only letter 0
    differs; at b = l + 1 the point has one past again.  Either side, two parameters.
    """
    for alpha in (ALPHAS[0], ALPHAS[3]):
        for b, l in ((1, 60), (12, 12), (13, 12), (1, 1)):
            for v in "LR":
                test = example(x=OrbitPoint(alpha, alpha * b, v), l=l)(test)
    return test


@_at_slice_edges
@settings(max_examples=100, deadline=None)
@given(x=points(), l=st.integers(0, 60))
def test_past_set(x, l):
    assert past_set(x, l) == reference.past_set(x, l)


@settings(max_examples=60, deadline=None)
@given(x=points(), n=st.integers(0, 120), flip=st.integers(0, 119))
def test_word_arc(x, n, flip):
    # the coding of x is admissible; flipping one letter often is not
    w = code_word(x, n)
    words = [w]
    if flip < n:
        words.append(w[:flip] + "10"[int(w[flip])] + w[flip + 1 :])
    for mu in words:
        arc, ref = cylinder_arc(x.alpha, mu), reference.word_arc(x.alpha, mu)
        assert (arc is None) == (ref is None)
        if arc is not None:
            assert reference.ends(arc) == reference.ends(ref)


@settings(max_examples=60, deadline=None)
@given(x=points(), n=st.integers(0, 120))
def test_property_star_witness(x, n):
    mu = code_word(x, n)
    assert property_star_witness(x.alpha, mu) == reference.property_star_witness(x.alpha, mu)


tags = st.integers(-60, 60)


@settings(max_examples=200, deadline=None)
@given(alpha=st.sampled_from(ALPHAS), lo=tags, hi=tags)
def test_arc_matches_field_arc(alpha, lo, hi):
    # negative tags too: reference.sampled_quotient cuts the past window [k - l, k)
    ref = reference.tag_arc(alpha, lo, hi)
    assert _interior_point(alpha, lo, hi).t == reference.interior_point_off_orbit(ref)


@settings(max_examples=40, deadline=None)
@given(alpha=st.sampled_from(ALPHAS), n=st.integers(0, 60))
def test_cells(alpha, n):
    ref = reference.cells(alpha, n)
    assert language(alpha, n) == set(ref)
    for w, arc in ref.items():
        assert reference.ends(cylinder_arc(alpha, w)) == reference.ends(arc)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_every_short_word(alpha):
    # every binary word of length <= 9, admissible or not
    for n in range(10):
        for letters in itertools.product("01", repeat=n):
            w = "".join(letters)
            arc, ref = cylinder_arc(alpha, w), reference.word_arc(alpha, w)
            assert (arc is None) == (ref is None)
            if arc is not None:
                assert reference.ends(arc) == reference.ends(ref)


digits = st.one_of(st.integers(1, 5), st.integers(1, 10**6))


@st.composite
def cf_digits(draw, period_digits=digits):
    """(pre, period) of cf:[0; a1, .., (b1, .., bm)]: at most three preperiod digits, 1 <= m <= 4."""
    pre = (0, *draw(st.lists(digits, max_size=2)))
    return pre, tuple(draw(st.lists(period_digits, min_size=1, max_size=4)))


def unfactored_value(pre, period):
    """The value of cf:[pre; (period)], built without factoring.

    `cf_value` trial-divides the tail's discriminant, too slow to draw with.
    The period's matrix (a, b; c, e) fixes the tail, y = (a*y + b)/(c*y + e),
    so y = (u + sqrt(u^2 + 4bc))/(2c) for u = a - e over that unreduced
    radicand, which the field accepts and compares by key; the preperiod then
    applies with the field's public arithmetic.
    """
    a, b, c, e = 1, 0, 0, 1
    for digit in period:
        a, b, c, e = a * digit + b, a, c * digit + e, c
    x = QuadraticIrrational(a - e, 1, (a - e) ** 2 + 4 * b * c, 2 * c)
    for digit in reversed(pre):
        x = 1 / x + digit
    return x


def cf_parameters(period_digits=digits):
    return cf_digits(period_digits).map(lambda cf: unfactored_value(*cf))


@settings(max_examples=100, deadline=None)
@given(cf=cf_digits(st.integers(1, 10)))
def test_unfactored_value_is_cf_value(cf):
    assert unfactored_value(*cf) == cf_value(ContinuedFraction(*cf))


def flip(w, i):
    return w[:i] + "10"[int(w[i])] + w[i + 1 :]


@settings(max_examples=30, deadline=None)
@given(data=st.data(), alpha=cf_parameters(), n=st.integers(0, 60))
def test_cylinders_over_cf_parameters(data, alpha, n):
    # tiny and huge partial quotients: the language, its arcs, emptiness and special factors
    ref = reference.cells(alpha, n)
    lang = language(alpha, n)
    assert lang == set(ref)
    for w, arc in ref.items():
        assert reference.ends(cylinder_arc(alpha, w)) == reference.ends(arc)
    tries = [data.draw(st.text("01", max_size=n)) for _ in range(3)]
    if n:
        tries += [flip(w, data.draw(st.integers(0, n - 1))) for w in sorted(lang)[:: max(n // 3, 1)]]
    for w in tries:
        assert (cylinder_arc(alpha, w) is None) == (reference.word_arc(alpha, w) is None)
    longer = language(alpha, n + 1)
    assert sum(w + "0" in longer and w + "1" in longer for w in lang) == 1  # right special
    assert sum("0" + w in longer and "1" + w in longer for w in lang) == 1  # left special


lattice = st.tuples(st.integers(-40, 40), st.integers(-40, 40))


@settings(max_examples=300, deadline=None)
@given(alpha=st.sampled_from(ALPHAS), u=lattice, v=lattice.filter(lambda v: v != (0, 0)))
def test_floor_of_a_ratio(alpha, u, v):
    ratio = (u[0] + u[1] * alpha) / (v[0] + v[1] * alpha)
    assert _floor(alpha, *u, *v) == math.floor(ratio)


@st.composite
def lattice_ends(draw, alpha):
    """A point (a + b*alpha)/c with either variant; a third of them are cut points."""
    if draw(st.integers(0, 2)) == 0:
        a, b, c = 0, -draw(st.integers(0, 60)), 1
    else:
        a, b, c = draw(st.integers(-9, 9)), draw(st.integers(-9, 9)), draw(st.integers(1, 6))
    return OrbitPoint._at((alpha, a, b, c, draw(st.sampled_from("LR"))))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), alpha=st.sampled_from(ALPHAS))
def test_first_entry(data, alpha):
    p, q = data.draw(lattice_ends(alpha)), data.draw(lattice_ends(alpha))
    if (p.a, p.b, p.c) == (q.a, q.b, q.c) and p.variant == q.variant:
        return  # the arc from a point to itself is not defined
    limit = 400
    found = reference.first_entry_by_scan(p, q, limit)
    if found is not None:
        assert _first_entry(p, q) == found
    elif (p.a, p.b, p.c) == (q.a, q.b, q.c):  # a lone point off the cut points
        with pytest.raises(ValueError):
            _first_entry(p, q)
    else:
        assert _first_entry(p, q) >= limit


@pytest.fixture
def constructions(monkeypatch):
    """A list that grows by one per QuadraticIrrational constructed.

    Counted at `_set`, which public construction and the trusted `_at` of
    field arithmetic both pass through.
    """
    seen = []
    real = QuadraticIrrational._set

    def counted(self, *args):
        seen.append(1)
        real(self, *args)

    monkeypatch.setattr(QuadraticIrrational, "_set", counted)
    return seen


@pytest.fixture
def floors(monkeypatch):
    """A list that grows by one per call of the kernel floor `quadratics._floor` from words or arcs,
    the modules the ledger's `kernel_floors` section counts too."""
    seen = []
    real = words._floor

    def counted(*args):
        seen.append(1)
        return real(*args)

    for module in FLOORED:
        monkeypatch.setattr(module, "_floor", counted)
    return seen


class TestKernelObjectCounts:
    """Coding and pasts build O(1) field elements, not O(length); arcs build none.

    The language reads the L coding of 0 at indices -n..n-1, mirrored from
    its n letters 1..n at one floor each plus one, and the witness check the
    same; the quotient at (k, l) reads the codings of 0 at l + 1 floors and
    builds one point, one floor, per branch-orbit class; a cylinder arc finds
    its word in the two codings of 0, the same n + 1 floors as the language.
    A past set of length l costs l + 1 floors, on the branch orbit too, where
    its two pasts are windows of the codings of 0.  A class at (k, l) reads its
    prefix off its past, l + 2 floors with the shifted point.  At truncation L
    every thread reads its top off the section's class at (L, 2L), 2L + 2
    floors, and a fibre reads all its tops off that one past set and codes the
    codings of 0 at 2n0 once: its candidates and the arcs of its singleton-past
    certificates are read off that one pair.
    """

    FIB = ALPHAS[0]
    WORD = code_word(OrbitPoint(FIB, Fraction(2, 9)), 200)

    def _count(self, constructions, f, *args):
        del constructions[:]
        f(*args)
        return len(constructions)

    def test_code_word(self, constructions):
        om = branch_point(self.FIB)
        short = self._count(constructions, code_word, om, 20)
        assert short <= 2
        assert self._count(constructions, code_word, om, 2000) == short

    def test_past_set(self, constructions):
        for x in (branch_point(self.FIB).shift(3), OrbitPoint(self.FIB, Fraction(1, 7), "R")):
            short = self._count(constructions, past_set, x, 2)
            assert short <= 2
            assert self._count(constructions, past_set, x, 12) == short

    def test_past_set_floors(self, floors):
        # sigma^j(omega), j < l, reads letters j+1-l..j of both codings of 0; any other point codes its own
        om = branch_point(self.FIB)
        other = OrbitPoint(self.FIB, Fraction(1, 7), "R")
        for l in (1, 2, 12, 200):
            for x in (om, om.shift(l // 2), om.shift(l - 1), om.shift(l), other):
                assert self._count(floors, past_set, x, l) == l + 1

    def test_thread_floors(self, floors):
        # every top is read off the past set of the section's class at (L, 2L):
        # 2L letters, one floor more, and one to shift the point; the prefix costs none
        x, off = branch_point(self.FIB).shift(2), OrbitPoint(self.FIB, Fraction(1, 2))
        for L in (3, 10, 100):
            for letter in "01":
                assert self._count(floors, construct_fibre_element, self.FIB, x, letter, 3, L) == 2 * L + 2
            for y in (x, off, branch_point(self.FIB).shift(-L)):
                assert self._count(floors, thread_of, self.FIB, y, 3, L) == 2 * L + 2
                assert self._count(floors, eq_class, self.FIB, y, (L, 2 * L)) == 2 * L + 2

    def test_word_arc(self, constructions):
        for n in (0, 1, 20, 200):
            assert self._count(constructions, cylinder_arc, self.FIB, self.WORD[:n]) == 0

    def test_language(self, constructions, floors):
        for n in (1, 2, 20, 200):
            assert self._count(floors, language, self.FIB, n) == n + 1
            assert self._count(constructions, language, self.FIB, n) == 0

    def test_check_witness_reads_one_coded_word(self, floors, monkeypatch):
        witnesses = [dad_witness(self.FIB, values) for values in [(1,), (1, 2, 3)]]
        languages = []
        monkeypatch.setattr(words, "language", lambda *args: languages.append(args))
        for w in witnesses:
            for window in (w.min_window, 3 * w.min_window):
                assert self._count(floors, check_witness, self.FIB, w, window) == window + 1
        assert languages == []

    def test_dad_witness_reads_one_coded_word_per_length(self):
        # the search codes one word, whose windows are the language, per length it tries: a
        # step doubling from 2*lbar, then a bisection of the last gap, so |mu| - 1 is tried
        # unless it lies below 2*lbar, and no tried length below |mu| has a pair
        tried = {}
        for values in [(1,), (1, 2, 3), (11,), (0, 40), (100,)]:
            w, lengths = tried_lengths(self.FIB, values)
            m = len(w.mu)
            assert len(set(lengths)) == len(lengths) and min(lengths) == 2 * w.lbar
            assert m in lengths and (m - 1 in lengths or m == 2 * w.lbar)
            assert not any(reference.has_pair(self.FIB, w.lbar, k) for k in lengths if k < m)
            tried[values] = lengths
        assert tried[(11,)] == [22, 24, 23]

    def test_quotient_reads_one_coded_word(self, floors):
        # l + 1 floors for the codings of 0, one per branch-orbit representative:
        # l + k of them for k <= l, and the codings of 0 at l = 0 cost none
        for alpha in (self.FIB, ALPHAS[3]):
            for k, l in [(0, 0), (0, 1), (1, 1), (2, 5), (20, 40), (80, 160)]:
                assert self._count(floors, quotient, alpha, (k, l)) == (2 * l + k + 1 if l else 0)

    D1E6 = QuadraticIrrational(-999, 1, 1000003, 2)
    FIBRES = [  # (floors, fibre size, fibre arguments)
        (2235, 3, (D1E6, branch_point(D1E6), 10, 100)),
        (4269, 3, (FIB, branch_point(FIB).shift(2), 10, 1000)),
        (1844, 1, (FIB, OrbitPoint(FIB, Fraction(2, 9)), 5, 400)),
    ]

    def test_fibre_floors(self, floors):
        for count, _, args in self.FIBRES:
            assert self._count(floors, fibre, *args) == count

    def test_fibre_codes_no_cylinder_arc(self, monkeypatch):
        # a death certificate reads its singleton's arc off the candidates' codings of 0
        def refused(*args):
            raise AssertionError("a cylinder arc codes the codings of 0 again")

        monkeypatch.setattr(cover, "cylinder_arc", refused)
        for _, size, args in self.FIBRES:
            assert len(fibre(*args)) == size

    def test_cylinder_arc_floors(self, floors):
        for n in (1, 2, 20, 200):
            for w in (self.WORD[:n], flip(self.WORD[:n], n - 1)):
                assert self._count(floors, cylinder_arc, self.FIB, w) == n + 1

    def test_property_star_witness(self, constructions):
        for n in (0, 1, 20, 200):
            assert self._count(constructions, property_star_witness, self.FIB, self.WORD[:n]) == 0

    COVER_CALLS = {
        "quotient": lambda a: quotient(a, (20, 40)),
        "thread_of": lambda a: thread_of(a, branch_point(a).shift(2), 4, 10),
        "eq_class": lambda a: eq_class(a, branch_point(a).shift(2), (3, 6)),
        "fibre-omega": lambda a: fibre(a, branch_point(a), 4, 10),
        "fibre-fwd2": lambda a: fibre(a, branch_point(a).shift(2), 3, 6),
    }
    # radicands 5, about 10^6 and about 10^10
    COVER_CASES = {
        "d5": (FIB, list(COVER_CALLS)),
        "d1e6": (QuadraticIrrational(-999, 1, 1000003, 2), list(COVER_CALLS)),
        "d1e10": (QuadraticIrrational(-99999, 1, 9999999967, 2), list(COVER_CALLS)),
    }

    @pytest.mark.parametrize(
        "d, call", [(d, call) for d, (_, calls) in COVER_CASES.items() for call in calls]
    )
    def test_cover_builds_no_field_elements(self, constructions, d, call):
        alpha = self.COVER_CASES[d][0]
        assert self._count(constructions, self.COVER_CALLS[call], alpha) == 0

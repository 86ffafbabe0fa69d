import contextlib
import io
import json
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sturmian import invariants, quadratics
from sturmian.cli import main
from sturmian.quadratics import (
    QuadraticIrrational,
    format_quad,
    parse_quad,
)
from sturmian.invariants import (
    ContinuedFraction,
    Moebius,
    OrderedGroupDescriptor,
    cf_value,
    compare_parameters,
    conjugate,
    flow_equivalent,
)

import reference
from reference import cf_tail_equivalent
from test_kernel import cf_parameters

FIB = QuadraticIrrational(3, -1, 5, 2)
GOLDEN_CONJ = QuadraticIrrational(-1, 1, 5, 2)
SQRT2M1 = QuadraticIrrational(-1, 1, 2, 1)


def unit_interval_corpus():
    """Twenty parameters in (0,1), several sharing a GL(2,Z) orbit."""
    import math

    out = [FIB, GOLDEN_CONJ, SQRT2M1]
    for d in (2, 3, 5, 6, 7, 10, 11, 13, 17):
        r = QuadraticIrrational(0, 1, d, 1)
        out.append(r - math.floor(r))
        s = (1 + r) * Fraction(1, 3)
        out.append(s - math.floor(s))
    out = sorted(set(x for x in out if x > 0 and x < 1), key=str)
    assert len(out) >= 20
    return out[:20]


CORPUS = unit_interval_corpus()


class TestConjugate:
    def test_reflexive(self):
        assert conjugate(FIB, FIB)

    def test_one_minus(self):
        assert conjugate(FIB, GOLDEN_CONJ)
        assert conjugate(GOLDEN_CONJ, FIB)

    def test_distinct_fields(self):
        assert not conjugate(FIB, SQRT2M1)

    def test_requires_unit_interval(self):
        with pytest.raises(ValueError):
            conjugate(FIB, QuadraticIrrational(0, 1, 5, 1))

    def test_corpus_size(self):
        assert len(CORPUS) == 20

    def test_equivalence_relation_on_corpus(self):
        for a in CORPUS:
            assert conjugate(a, a)
        for a in CORPUS:
            for b in CORPUS:
                assert conjugate(a, b) == conjugate(b, a)
        for a in CORPUS:
            for b in CORPUS:
                for c in CORPUS:
                    if conjugate(a, b) and conjugate(b, c):
                        assert conjugate(a, c)


class TestFlowEquivalent:
    def test_fibonacci_pair(self):
        assert flow_equivalent(FIB, GOLDEN_CONJ)

    def test_distinct_tails(self):
        assert not flow_equivalent(FIB, SQRT2M1)

    def test_conjugate_implies_flow_equivalent(self):
        for a in CORPUS:
            for b in CORPUS:
                if conjugate(a, b):
                    assert flow_equivalent(a, b)

    def test_equivalence_relation_on_corpus(self):
        for a in CORPUS:
            assert flow_equivalent(a, a)
        for a in CORPUS:
            for b in CORPUS:
                assert flow_equivalent(a, b) == flow_equivalent(b, a)
        for a in CORPUS:
            for b in CORPUS:
                for c in CORPUS:
                    if flow_equivalent(a, b) and flow_equivalent(b, c):
                        assert flow_equivalent(a, c)

    def test_gl2z_invariance(self):
        rng = random.Random(23)
        gens = [Moebius(1, 1, 0, 1), Moebius(1, -1, 0, 1), Moebius(0, -1, 1, 0)]
        for a in CORPUS[:8]:
            for b in CORPUS[:8]:
                m = Moebius(1, 0, 0, 1)
                for _ in range(5):
                    m = m @ rng.choice(gens)
                image = m(b)
                assert flow_equivalent(a, image) == flow_equivalent(a, b)


class TestKTheory:
    def test_order_unit_positive(self):
        g = OrderedGroupDescriptor(FIB)
        assert g.unit == (1, 0)
        assert g.value_positive(1, 0)

    def test_three_alpha_exceeds_one(self):
        g = OrderedGroupDescriptor(FIB)
        assert g.value_positive(-1, 3)  # 3*(3-sqrt5)/2 = 1.14.. > 1
        assert not g.value_positive(-2, 3)

    def test_zero_not_positive(self):
        g = OrderedGroupDescriptor(FIB)
        assert not g.value_positive(0, 0)

    def test_total_order(self):
        g = OrderedGroupDescriptor(FIB)
        rng = random.Random(9)
        for _ in range(300):
            n, m = rng.randint(-20, 20), rng.randint(-20, 20)
            pos = g.value_positive(n, m)
            neg = g.value_positive(-n, -m)
            if (n, m) == (0, 0):
                assert not pos and not neg
            else:
                assert pos != neg

    def test_positives_closed_under_addition(self):
        g = OrderedGroupDescriptor(FIB)
        rng = random.Random(31)
        pos = []
        while len(pos) < 40:
            n, m = rng.randint(-15, 15), rng.randint(-15, 15)
            if g.value_positive(n, m):
                pos.append((n, m))
        for a in pos[:20]:
            for b in pos[:20]:
                assert g.value_positive(a[0] + b[0], a[1] + b[1])

    def test_compare(self):
        g = OrderedGroupDescriptor(FIB)
        assert g.compare((1, 0), (0, 0)) == 1
        assert g.compare((0, 1), (1, 0)) == -1  # alpha < 1
        assert g.compare((2, 3), (2, 3)) == 0


class TestReport:
    def test_fields(self):
        rep = compare_parameters(FIB, GOLDEN_CONJ)
        assert rep.conjugate and rep.flow_equivalent
        assert rep.to_dict() == {
            "conjugate": True,
            "flow_equivalent": True,
            "k0": "Z+alphaZ",
            "k1": "0",
        }

    def test_inequivalent_pair(self):
        rep = compare_parameters(FIB, SQRT2M1)
        assert not rep.conjugate and not rep.flow_equivalent


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(-30, 30),
    m=st.integers(-30, 30),
    n2=st.integers(-30, 30),
    m2=st.integers(-30, 30),
)
def test_positivity_is_translation_invariant(n, m, n2, m2):
    g = OrderedGroupDescriptor(FIB)
    assert g.compare((n, m), (n2, m2)) == g.compare((n + 1, m + 2), (n2 + 1, m2 + 2))


RADICANDS = [2, 3, 5, 6, 7, 13, 19, 94, 1003]
coefficients = (st.integers(-40, 40), st.integers(-4, 4).filter(bool), st.sampled_from(RADICANDS), st.integers(1, 12))
irrationals = st.builds(QuadraticIrrational, *coefficients)
unit_irrationals = irrationals.map(lambda x: x - math.floor(x))
RELATIONS = ["det+1", "det-1", "one_minus", "double", "third", "same_field", "same_qr", "other_field"]


@st.composite
def flow_pairs(draw):
    """(alpha, beta, relation): beta a GL(2,Z) image of alpha by a matrix of
    determinant +1 or -1, 1 - alpha, 2*alpha or alpha/3 (the same field,
    mostly another discriminant), any number of alpha's field, one that
    shares alpha's q and r up to sign (often the same discriminant), or a
    number of another field.  Images are built in field arithmetic.  Alpha
    is a small literal or a continued fraction with period digits up to 40."""
    a = draw(st.one_of(irrationals, cf_parameters(period_digits=st.integers(1, 40))))
    # over a huge r, same_qr has a huge discriminant, and a period too long for the oracle
    relation = draw(st.sampled_from(RELATIONS if a.r <= 12 else [t for t in RELATIONS if t != "same_qr"]))
    if relation in ("det+1", "det-1"):
        m, n, c, e = 1, draw(st.integers(-3, 3)), 0, 1
        digits = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
        if (-1) ** len(digits) != (1 if relation == "det+1" else -1):
            digits.append(draw(st.integers(1, 4)))
        for t in digits:
            m, n, c, e = m * t + n, m, c * t + e, c
        b = (a * m + n) / (a * c + e)
    elif relation == "one_minus":
        b = 1 - a
    elif relation == "double":
        b = a * 2
    elif relation == "third":
        b = a / 3
    elif relation == "same_field":
        b = draw(st.builds(QuadraticIrrational, *coefficients[:2], st.just(a.d), coefficients[3]))
    elif relation == "same_qr":
        b = QuadraticIrrational(draw(st.integers(-40, 40)), draw(st.sampled_from([a.q, -a.q])), a.d, a.r)
    else:
        b = draw(irrationals.filter(lambda y: y.d != a.d))
    return a, b, relation


PHI = parse_quad("quad:1,1,5,2")  # (1 + sqrt 5)/2 = [(1)], purely periodic and > 1
X133 = parse_quad("quad:1,1,3,3")  # (1 + sqrt 3)/3: Q = 3 does not divide D - P*P = 2
SQRT7M2 = parse_quad("quad:-2,1,7,1")  # sqrt 7 - 2 = [0; (1,1,1,4)], D = 28


@settings(max_examples=400, deadline=None)
@given(pair=flow_pairs())
@example(pair=(FIB, parse_quad("quad:-1,1,5,2"), "one_minus"))
@example(pair=(X133, 1 / X133 + 2, "det-1"))
@example(pair=(X133, X133 * 2, "double"))
# D = 128 and 32: beta's first reduced (P, Q) is also a state of alpha's period
@example(pair=(parse_quad("quad:1,2,2,2"), parse_quad("quad:1,2,2,1"), "double"))
# D = 1152 for both: beta's first reduced state (30, 14) shares Q, not P, with alpha's (26, 14)
@example(pair=(parse_quad("quad:-23,-4,2,3"), parse_quad("quad:-17,4,2,3"), "same_qr"))
# D = 192 for both: beta's first reduced state (12, 24) shares P, not Q, with alpha's (12, 8)
@example(pair=(parse_quad("quad:16,-1,3,4"), parse_quad("quad:-30,1,3,4"), "same_qr"))
@example(pair=(PHI, FIB, "det-1"))
@example(pair=(PHI, SQRT2M1, "other_field"))
# beta = alpha: the walk meets its stop state before the first digit
@example(pair=(SQRT7M2, SQRT7M2, "det+1"))
# beta = 2 + sqrt 7 = [(4,1,1,1)], the complete quotient at alpha's last period
# state (4, 2): met one step before the cycle closes
@example(pair=(SQRT7M2, SQRT7M2 + 4, "det+1"))
# beta = (1 + sqrt 7)/3, alpha's state (2, 6), the reverse of (2, 4), past the axis at digit 1
@example(pair=(SQRT7M2, parse_quad("quad:1,1,7,3"), "same_field"))
# D = 148: [0; (3,1,2)] and [0; (3,2,1)], mirror images; beta's state (8, 6) reverses to
# (8, 14) on alpha's cycle, which has no axis, so they are not equivalent
@example(pair=(parse_quad("quad:-5,1,37,4"), parse_quad("quad:-4,1,37,7"), "same_field"))
def test_flow_equivalent_matches_tail_equivalence(pair):
    a, b, relation = pair
    want = cf_tail_equivalent(reference.cf_expand(a), reference.cf_expand(b))
    assert flow_equivalent(a, b) == want
    assert flow_equivalent(b, a) == want
    x, y = a - math.floor(a), b - math.floor(b)  # the pair as parameters in (0, 1)
    if conjugate(x, y):
        assert flow_equivalent(x, y)
    if relation in ("det+1", "det-1", "one_minus"):
        assert want
    if relation == "other_field":
        assert not want


@settings(max_examples=300, deadline=None)
@given(a=unit_irrationals, relation=st.sampled_from(["same", "one_minus", "any"]), other=unit_irrationals)
@example(a=FIB, relation="any", other=SQRT2M1)
def test_conjugate_matches_field_arithmetic(a, relation, other):
    b = {"same": a, "one_minus": 1 - a, "any": other}[relation]
    assert conjugate(a, b) == (a == b or a == 1 - b)


@settings(max_examples=300, deadline=None)
@given(alpha=unit_irrationals, n=st.integers(-60, 60), m=st.integers(-60, 60))
def test_value_positive_matches_field_arithmetic(alpha, n, m):
    g = OrderedGroupDescriptor(alpha)
    assert g.value_positive(n, m) == (n > 0 if m == 0 else alpha * m + n > 0)


def test_deciders_factor_nothing():
    """The deciders, the order test and the construction of their inputs run on integers.

    One spy stands in both namespaces that could call the split: the field's,
    where the inputs are built, and the deciders', where cf_value calls it.
    """
    split = mock.Mock()
    with mock.patch.object(quadratics, "_squarefree_split", split), mock.patch.object(
        invariants, "_squarefree_split", split
    ):
        corpus = unit_interval_corpus()[:6]
        pairs = [(FIB, GOLDEN_CONJ), (FIB, SQRT2M1), (parse_quad("quad:-316,1,99991,1"), FIB)]
        pairs += [(a, b) for a in corpus for b in corpus]
        g = OrderedGroupDescriptor(FIB)
        for a, b in pairs:
            compare_parameters(a, b)
        for x in [(3, -7), (-1, 3), (0, 0), (5, 0)]:
            g.compare(x, (1, 1))
    assert split.call_count == 0


def _literal(x: QuadraticIrrational, s: int) -> str:
    """x written over the radicand d*s*s: (p*s + q*sqrt(d*s*s))/(r*s)."""
    return f"quad:{x.p * s},{x.q},{x.d * s * s},{x.r * s}"


def test_compare_reads_any_radicand(capsys):
    for a in CORPUS:
        for b in CORPUS:
            answers = []
            for alpha, beta in ((format_quad(a), format_quad(b)), (_literal(a, 2), _literal(b, 3))):
                assert main(["compare", "--alpha", alpha, "--beta", beta, "-o", "json"]) == 0
                answers.append(capsys.readouterr().out)
            assert answers[0] == answers[1]


def _json(*argv: str) -> dict:
    """The JSON line of an in-process request that exits 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "-o", "json"]) == 0
    return json.loads(out.getvalue())


def _same_or_mirror(a: QuadraticIrrational, b: QuadraticIrrational) -> bool:
    """a = b or a = 1 - b, by subtracting field values: no key, no expansion."""
    try:
        return a - b == 0 or a + b == 1
    except ValueError:  # values of two different quadratic fields
        return False


@st.composite
def cf_pairs(draw):
    """(alpha, beta, relation): alpha drawn as the cf round trip draws it, beta
    alpha written over 4d, 1 - alpha, a rotated tail of alpha behind another
    preperiod, or drawn on its own."""
    alpha = draw(cf_parameters(period_digits=st.integers(1, 40)))
    relation = draw(st.sampled_from(["same", "one_minus", "tail", "any"]))
    if relation == "same":
        return alpha, _literal(alpha, 2), relation
    if relation == "one_minus":
        return alpha, format_quad(1 - alpha), relation
    if relation == "tail":
        per = reference.cf_expand(alpha).period
        k = draw(st.integers(0, len(per) - 1))
        pre = (0, *draw(st.lists(st.integers(1, 40), max_size=3)))
        return alpha, format_quad(cf_value(ContinuedFraction(pre, per[k:] + per[:k]))), relation
    return alpha, format_quad(draw(cf_parameters(period_digits=st.integers(1, 40)))), relation


@settings(max_examples=60, deadline=1000)
@given(pair=cf_pairs())
def test_report_and_compare_match_the_oracles(pair):
    # the two commands whose code reads continued fractions, run in process
    # against the expansion of complete quotients as field elements
    alpha, beta_literal, relation = pair
    beta = parse_quad(beta_literal)
    want_a, want_b = reference.cf_expand(alpha), reference.cf_expand(beta)
    report = _json("report", "--alpha", format_quad(alpha))
    assert report["cf"] == str(want_a)
    assert report["flow_class_period"] == list(want_a.period)
    got = _json("compare", "--alpha", format_quad(alpha), "--beta", beta_literal)
    assert got["conjugate"] == _same_or_mirror(alpha, beta)
    assert got["flow_equivalent"] == cf_tail_equivalent(want_a, want_b)
    if relation != "any":  # the other relations fix the answers, so no draw is vacuous
        assert got["flow_equivalent"]
        assert got["conjugate"] or relation == "tail"

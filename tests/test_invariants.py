import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmian.quadratics import (
    Moebius,
    QuadraticIrrational,
)
from sturmian.invariants import (
    compare_parameters,
    conjugate,
    flow_equivalent,
    k_theory_report,
)

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
        g = k_theory_report(FIB)
        assert g.unit == (1, 0)
        assert g.value_positive(1, 0)

    def test_three_alpha_exceeds_one(self):
        g = k_theory_report(FIB)
        assert g.value_positive(-1, 3)  # 3*(3-sqrt5)/2 = 1.14.. > 1
        assert not g.value_positive(-2, 3)

    def test_zero_not_positive(self):
        g = k_theory_report(FIB)
        assert not g.value_positive(0, 0)

    def test_total_order(self):
        g = k_theory_report(FIB)
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
        g = k_theory_report(FIB)
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
        g = k_theory_report(FIB)
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
    g = k_theory_report(FIB)
    assert g.compare((n, m), (n2, m2)) == g.compare((n + 1, m + 2), (n2 + 1, m2 + 2))

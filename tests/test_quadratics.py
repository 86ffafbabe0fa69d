import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sturmian import cli, invariants, quadratics
from sturmian.invariants import ContinuedFraction, Moebius, cf_expand, cf_value, parse_cf
from sturmian.quadratics import (
    QuadraticIrrational,
    RationalValueError,
    _squarefree_split,
    check_unit_interval,
    format_quad,
    parse_quad,
)
from sturmian.words import OrbitPoint

import reference
from reference import cf_tail_equivalent
from test_kernel import cf_parameters

FIB = QuadraticIrrational(3, -1, 5, 2)  # (3 - sqrt 5)/2
GOLDEN_CONJ = QuadraticIrrational(-1, 1, 5, 2)  # (sqrt 5 - 1)/2
SQRT2 = QuadraticIrrational(0, 1, 2, 1)
LONG_PERIOD = QuadraticIrrational(-316, 1, 99991, 1)  # sqrt(99991) - 316, period 436


def interval_sign(p, q, d, r, num, den):
    """Sign of (p + q*sqrt(d))/r - num/den by interval arithmetic.

    Independent oracle: brackets sqrt(d) between scaled integer square roots,
    starting at 128 bits and widening until the sign is certain.
    """
    s = p * den - num * r
    t = q * den
    for bits in (128, 256, 512, 1024):
        scale = 1 << bits
        lo = math.isqrt(d * scale * scale)
        hi = lo + 1
        if t >= 0:
            lo_v, hi_v = s * scale + t * lo, s * scale + t * hi
        else:
            lo_v, hi_v = s * scale + t * hi, s * scale + t * lo
        if lo_v > 0:
            return 1 if r > 0 else -1
        if hi_v < 0:
            return -1 if r > 0 else 1
    raise AssertionError("interval oracle failed to separate")


class TestNormalize:
    def test_fibonacci_parameter_is_canonical(self):
        x = QuadraticIrrational(3, -1, 5, 2)
        assert (x.p, x.q, x.d, x.r) == (3, -1, 5, 2)

    def test_common_factor_cancellation(self):
        assert QuadraticIrrational(6, -2, 5, 4) == FIB

    def test_square_factor_absorption(self):
        assert QuadraticIrrational(0, 2, 8, 4) == QuadraticIrrational(0, 1, 2, 1)

    def test_negative_denominator(self):
        assert QuadraticIrrational(-3, 1, 5, -2) == FIB

    def test_rational_errors(self):
        with pytest.raises(RationalValueError):
            QuadraticIrrational(1, 1, 9, 2)  # d a perfect square
        with pytest.raises(RationalValueError):
            QuadraticIrrational(1, 0, 5, 2)  # q = 0
        with pytest.raises(ZeroDivisionError):
            QuadraticIrrational(1, 1, 5, 0)

    def test_equal_values_share_canonical_form(self):
        assert QuadraticIrrational(30, -10, 5, 20) == QuadraticIrrational(-3, 1, 5, -2)

    def test_radicand_kept_as_given(self):
        x = parse_quad("quad:0,1,8,4")
        assert format_quad(x) == "quad:0,1,8,4" and x == QuadraticIrrational(0, 1, 2, 2)


def rewrites(p: int, q: int, d: int, r: int, s: int, k: int) -> list[tuple[int, int, int, int]]:
    """Other field tuples of (p + q*sqrt(d))/r: the square s*s moved out of the
    radicand, a common factor k, and every sign flipped."""
    return [(p, q * s, d // (s * s), r), (k * p, k * q, d, k * r), (-p, -q, d, -r)]


nonsquares = st.integers(2, 10**6).filter(lambda d: math.isqrt(d) ** 2 != d)


@settings(max_examples=300, deadline=None)
@given(
    p=st.integers(-10**4, 10**4),
    q=st.integers(-10**4, 10**4).filter(bool),
    d=nonsquares,
    r=st.integers(1, 10**4),
    s=st.integers(2, 100),
    k=st.integers(2, 10**4),
)
@example(p=0, q=1, d=2, r=1, s=2, k=2)  # sqrt 8 against 2*sqrt 2
def test_rewrites_share_the_key(p, q, d, r, s, k):
    x = QuadraticIrrational(p, q, d * s * s, r)
    for fields in rewrites(p, q, d * s * s, r, s, k):
        y = QuadraticIrrational(*fields)
        assert y == x and hash(y) == hash(x)
        assert y != QuadraticIrrational(p + 1, q, d * s * s, r)


@settings(max_examples=150, deadline=None)
@given(
    p=st.integers(-60, 60),
    q=st.integers(-3, 3).filter(bool),
    d=st.integers(2, 2000).filter(lambda d: math.isqrt(d) ** 2 != d),
    r=st.integers(1, 12),
    s=st.integers(2, 30),
    k=st.integers(2, 50),
)
def test_rewrites_share_the_continued_fraction(p, q, d, r, s, k):
    # the period walk takes about sqrt(D) steps, so the values stay small here
    x = QuadraticIrrational(p, q, d * s * s, r)
    cf = cf_expand(x)
    assert cf == reference.cf_expand(x)
    assert all(cf_expand(QuadraticIrrational(*fields)) == cf for fields in rewrites(p, q, d * s * s, r, s, k))


class TestCompare:
    def test_fibonacci_below_half(self):
        assert FIB < Fraction(1, 2)

    def test_fibonacci_positive(self):
        assert FIB > Fraction(0, 1)

    def test_sqrt2_below_three_halves(self):
        assert SQRT2 < Fraction(3, 2)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            FIB < Fraction(1, 0)

    def test_agrees_with_interval_oracle_on_1000_cases(self):
        rng = random.Random(20240)
        nonsquares = [2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23]
        for _ in range(1000):
            p = rng.randint(-50, 50)
            q = rng.choice([i for i in range(-20, 21) if i])
            d = rng.choice(nonsquares)
            r = rng.choice([i for i in range(-20, 21) if i])
            num = rng.randint(-100, 100)
            den = rng.randint(1, 60)
            x = QuadraticIrrational(p, q, d, r)
            want = interval_sign(x.p, x.q, x.d, x.r, num, den)
            assert (x > Fraction(num, den), x < Fraction(num, den)) == (want > 0, want < 0)


class TestFloor:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (FIB, 0),
            (GOLDEN_CONJ, 0),
            (SQRT2, 1),
            (QuadraticIrrational(1, 1, 5, 1), 3),  # 1 + sqrt5 = 3.23..
            (QuadraticIrrational(0, -1, 2, 1), -2),  # -sqrt2
            (QuadraticIrrational(-7, -3, 5, 2), -7),  # (-7 - 3 sqrt5)/2 = -6.854..
        ],
    )
    def test_floor(self, x, expected):
        n = math.floor(x)
        assert n <= x < n + 1
        assert n == expected


@pytest.fixture
def splits(monkeypatch):
    """Every argument _squarefree_split receives while the test runs.

    For LONG_PERIOD only its tail's minimal-polynomial discriminant, at most
    4 r^2 q^2 d, may be factored; a larger argument fails at once rather than
    stalling in trial division.  The spy stands in both namespaces that call
    the split: the field's, for construction, and the deciders', for cf_value.
    """
    x = LONG_PERIOD
    bound = 4 * x.r * x.r * x.q * x.q * x.d
    seen: list[int] = []
    real = quadratics._squarefree_split

    def counted(n):
        if n > bound:
            raise AssertionError(f"asked to factor a {n.bit_length()}-bit number")
        seen.append(n)
        return real(n)

    monkeypatch.setattr(quadratics, "_squarefree_split", counted)
    monkeypatch.setattr(invariants, "_squarefree_split", counted)
    return seen


def test_unit_interval_check():
    for x in (FIB, GOLDEN_CONJ, SQRT2 - 1):
        assert check_unit_interval(x) is x
    for x in (-FIB, 1 + FIB, SQRT2, -LONG_PERIOD):
        with pytest.raises(ValueError):
            check_unit_interval(x)


class TestContinuedFractions:
    def test_fibonacci_expansion(self):
        assert cf_expand(FIB) == ContinuedFraction((0, 2), (1,))

    def test_golden_conjugate_expansion(self):
        # oracle by hand: 1/0.618.. = 1.618.., floor 1, repeats immediately
        assert cf_expand(GOLDEN_CONJ) == ContinuedFraction((0,), (1,))

    def test_sqrt2_expansion(self):
        assert cf_expand(SQRT2) == ContinuedFraction((1,), (2,))

    def test_total_on_long_period(self, splits):
        cf = cf_expand(LONG_PERIOD)
        assert (len(cf.preperiod), len(cf.period)) == (1, 436)
        assert cf_value(cf) == LONG_PERIOD

    def test_canonicalisation_shrinks_preperiod_and_period(self):
        assert ContinuedFraction((0, 1), (1,)) == ContinuedFraction((0,), (1,))
        assert ContinuedFraction((0,), (1, 1)) == ContinuedFraction((0,), (1,))
        assert ContinuedFraction((2,), (1, 2)) == ContinuedFraction((), (2, 1))

    def test_invalid_quotients(self):
        with pytest.raises(ValueError):
            ContinuedFraction((0,), ())
        with pytest.raises(ValueError):
            ContinuedFraction((0, 0), (1,))
        with pytest.raises(ValueError):
            ContinuedFraction((0,), (0,))

    def test_tail_equivalence_examples(self):
        assert cf_tail_equivalent(cf_expand(FIB), cf_expand(GOLDEN_CONJ))
        assert not cf_tail_equivalent(cf_expand(GOLDEN_CONJ), cf_expand(SQRT2))
        a = cf_expand(FIB)
        assert cf_tail_equivalent(a, a)

    def test_rotated_periods_are_tail_equivalent(self):
        a = ContinuedFraction((0,), (1, 2, 3))
        b = ContinuedFraction((5, 9), (2, 3, 1))
        c = ContinuedFraction((0,), (1, 3, 2))
        assert cf_tail_equivalent(a, b)
        assert not cf_tail_equivalent(a, c)


def corpus():
    """Twenty canonical quadratic irrationals with assorted fields."""
    out = [FIB, GOLDEN_CONJ, SQRT2]
    for d in (2, 3, 5, 6, 7, 10, 11, 13):
        out.append(QuadraticIrrational(0, 1, d, 1))  # sqrt d
        out.append(QuadraticIrrational(1, 1, d, 3))  # (1 + sqrt d)/3
    out.append(QuadraticIrrational(-2, 1, 2, 1))
    return out[:20]


class TestReconstruction:
    @pytest.mark.parametrize("x", corpus())
    def test_cf_roundtrip(self, x):
        assert cf_value(cf_expand(x)) == x

    def test_cf_format_roundtrip(self):
        for x in corpus():
            cf = cf_expand(x)
            assert parse_cf(str(cf)) == cf

    def test_quad_format_roundtrip(self):
        for x in corpus():
            assert parse_quad(format_quad(x)) == x
        assert format_quad(FIB) == "quad:3,-1,5,2"

    def test_parse_errors(self):
        for bad in ("quad:1,2,3", "quad:a,b,c,d", "cf:[1;2]", "cf:()", "cf:[(0)]"):
            with pytest.raises(ValueError):
                parse_quad(bad) if bad.startswith("quad") else parse_cf(bad)


class TestTailEquivalenceRelation:
    def test_equivalence_axioms_on_corpus(self):
        cfs = [cf_expand(x) for x in corpus()]
        for a in cfs:
            assert cf_tail_equivalent(a, a)
        for a in cfs:
            for b in cfs:
                assert cf_tail_equivalent(a, b) == cf_tail_equivalent(b, a)
        for a in cfs:
            for b in cfs:
                for c in cfs:
                    if cf_tail_equivalent(a, b) and cf_tail_equivalent(b, c):
                        assert cf_tail_equivalent(a, c)


GENS = [Moebius(1, 1, 0, 1), Moebius(1, -1, 0, 1), Moebius(0, -1, 1, 0), Moebius(1, 0, 0, -1)]


def random_moebius(rng, length=6):
    m = Moebius(1, 0, 0, 1)
    for _ in range(length):
        m = m @ rng.choice(GENS)
    return m


class TestGL2Z:
    def test_identity(self):
        assert Moebius(1, 0, 0, 1)(FIB) == FIB

    def test_one_minus(self):
        assert Moebius(-1, 1, 0, 1)(FIB) == GOLDEN_CONJ

    def test_reciprocal(self):
        assert Moebius(0, 1, 1, 0)(GOLDEN_CONJ) == QuadraticIrrational(1, 1, 5, 2)

    def test_determinant_validation(self):
        with pytest.raises(ValueError):
            Moebius(2, 0, 0, 1)

    def test_action_property(self):
        rng = random.Random(7)
        xs = corpus()[:6]
        for _ in range(60):
            m = random_moebius(rng)
            n = random_moebius(rng)
            x = rng.choice(xs)
            assert (m @ n)(x) == m(n(x))
            assert m(x) == (x * m.a + m.b) / (x * m.c + m.d)

    def test_image_is_tail_equivalent(self):
        rng = random.Random(11)
        for x in corpus()[:8]:
            m = random_moebius(rng)
            assert cf_tail_equivalent(cf_expand(x), cf_expand(m(x)))


@settings(max_examples=200, deadline=None)
@given(
    p=st.integers(-30, 30),
    q=st.integers(-10, 10).filter(bool),
    d=st.sampled_from([2, 3, 5, 6, 7, 10]),
    r=st.integers(-10, 10).filter(bool),
    a=st.fractions(min_value=-5, max_value=5),
    b=st.fractions(min_value=-5, max_value=5),
)
def test_field_arithmetic_is_consistent(p, q, d, r, a, b):
    x = QuadraticIrrational(p, q, d, r)
    assert (x + a) - a == x
    assert -(-x) == x
    y = x * 2 + a
    assert isinstance(y, QuadraticIrrational)
    assert (y - x) - x == a
    if b != 0:
        assert (x * b) / b == x
    assert x.inverse().inverse() == x
    assert math.floor(x) <= x < math.floor(x) + 1


@settings(max_examples=150, deadline=None)
@given(
    p=st.integers(-30, 30),
    q=st.integers(-10, 10).filter(bool),
    d=st.sampled_from([2, 3, 5, 7, 13]),
    r=st.integers(1, 10),
    num=st.integers(-40, 40),
    den=st.integers(1, 25),
)
def test_compare_matches_interval_oracle(p, q, d, r, num, den):
    x = QuadraticIrrational(p, q, d, r)
    want = interval_sign(x.p, x.q, x.d, x.r, num, den)
    assert (x > Fraction(num, den), x < Fraction(num, den)) == (want > 0, want < 0)
    assert (x > 0) == (interval_sign(x.p, x.q, x.d, x.r, 0, 1) > 0)


@settings(max_examples=200, deadline=None)
@given(
    p1=st.integers(-30, 30),
    q1=st.integers(-10, 10).filter(bool),
    r1=st.integers(-10, 10).filter(bool),
    p2=st.integers(-30, 30),
    q2=st.integers(-10, 10).filter(bool),
    r2=st.integers(-10, 10).filter(bool),
    d=st.sampled_from([2, 3, 5, 6, 7, 10, 13]),
)
@example(p1=3, q1=-1, r1=2, p2=-6, q2=2, r2=-4, d=5)  # equal values
@example(p1=1, q1=1, r1=2, p2=3, q2=1, r2=2, d=5)  # rational difference -1
def test_same_field_order_matches_interval_oracle(p1, q1, r1, p2, q2, r2, d):
    x, y = QuadraticIrrational(p1, q1, d, r1), QuadraticIrrational(p2, q2, d, r2)
    raw = (x.p * y.r - y.p * x.r, x.q * y.r - y.q * x.r, d, x.r * y.r)  # x - y, not reduced
    want = 0 if raw[:2] == (0, 0) else interval_sign(*raw, 0, 1)
    assert (x < y, x <= y, x > y, x >= y) == (want < 0, want <= 0, want > 0, want >= 0)


class TestOperands:
    """The operand contract: ints, Fractions and same-field values, nothing else."""

    OTHER_FIELD = QuadraticIrrational(0, 1, 3, 1)

    @pytest.mark.parametrize("a", [0, 3, -2, Fraction(5, 7), Fraction(-1, 3)])
    @pytest.mark.parametrize("x", [FIB, SQRT2, LONG_PERIOD])
    def test_rational_round_trips(self, a, x):
        assert (a - x) + x == a
        assert (a / x) * x == a

    @pytest.mark.parametrize(
        "op",
        [
            lambda x, y: x + y,
            lambda x, y: x - y,
            lambda x, y: x * y,
            lambda x, y: x / y,
            lambda x, y: x < y,
            lambda x, y: x <= y,
            lambda x, y: x > y,
            lambda x, y: x >= y,
        ],
    )
    def test_cross_field_raises_value_error(self, op):
        with pytest.raises(ValueError, match="different quadratic fields"):
            op(FIB, self.OTHER_FIELD)
        with pytest.raises(ValueError, match="different quadratic fields"):
            op(self.OTHER_FIELD, FIB)

    @pytest.mark.parametrize("zero", [0, Fraction(0)])
    def test_division_by_zero(self, zero):
        with pytest.raises(ZeroDivisionError):
            FIB / zero

    @pytest.mark.parametrize(
        "op",
        [
            lambda x: x + 1.5,
            lambda x: 1.5 - x,
            lambda x: 1.5 / x,
            lambda x: "a" / x,
            lambda x: x < "a",
            lambda x: x / 1.5,
        ],
    )
    def test_foreign_operands_raise_type_error(self, op):
        with pytest.raises(TypeError):
            op(FIB)

    def test_radicands_of_one_field(self):
        assert QuadraticIrrational(0, 1, 8, 1) + SQRT2 == 3 * SQRT2
        assert SQRT2 + QuadraticIrrational(0, 1, 8, 1) == 3 * SQRT2
        assert QuadraticIrrational(9, -1, 45, 6) - FIB == 0
        with pytest.raises(ValueError, match="different quadratic fields"):
            SQRT2 + self.OTHER_FIELD

    def test_point_over_another_radicand(self):
        t = QuadraticIrrational(-1, 1, 5, 4)
        assert OrbitPoint(FIB, QuadraticIrrational(-3, 1, 45, 12)) == OrbitPoint(FIB, t)
        assert OrbitPoint(parse_quad("quad:6,-1,20,4"), t) == OrbitPoint(FIB, t)

    def test_times_zero_is_the_fraction_zero(self):
        for z in (FIB * 0, 0 * FIB, FIB * Fraction(0)):
            assert type(z) is Fraction and z == 0


# operations over x = (3 - sqrt 5)/2 and y = (1 + 3*sqrt 20)/4, with the repr each gave
# while every module imported `fractions` at its top
INT_OPERANDS = {
    "x + 1": "QuadraticIrrational(p=5, q=-1, d=5, r=2)",
    "1 - x": "QuadraticIrrational(p=-1, q=1, d=5, r=2)",
    "x * -3": "QuadraticIrrational(p=-9, q=3, d=5, r=2)",
    "x / 2": "QuadraticIrrational(p=3, q=-1, d=5, r=4)",
    "2 / x": "QuadraticIrrational(p=3, q=1, d=5, r=1)",
    "x < 2": "True",
    "0 < x": "True",
    "x >= 1": "False",
    "x + True": "QuadraticIrrational(p=5, q=-1, d=5, r=2)",
    "True - x": "QuadraticIrrational(p=-1, q=1, d=5, r=2)",
    "x * True": "QuadraticIrrational(p=3, q=-1, d=5, r=2)",
    "x < True": "True",
    "x + y": "QuadraticIrrational(p=7, q=4, d=5, r=4)",
    "y - x": "QuadraticIrrational(p=-5, q=4, d=20, r=4)",
    "x * y": "QuadraticIrrational(p=-27, q=17, d=5, r=8)",
    "x < y": "True",
    "x + 0.5": "TypeError",
}
RATIONAL_RESULTS = {
    "x - x": "Fraction(0, 1)",
    "x * 0": "Fraction(0, 1)",
    "(x + 1) - x": "Fraction(1, 1)",
    "x * False": "Fraction(0, 1)",
    "x / x": "Fraction(1, 1)",
}
FRACTION_OPERANDS = {
    "x + Fraction(1, 2)": "QuadraticIrrational(p=4, q=-1, d=5, r=2)",
    "Fraction(1, 2) - x": "QuadraticIrrational(p=-2, q=1, d=5, r=2)",
    "x * Fraction(2, 3)": "QuadraticIrrational(p=3, q=-1, d=5, r=3)",
    "Fraction(2, 3) / x": "QuadraticIrrational(p=3, q=1, d=5, r=3)",
    "x < Fraction(1, 2)": "True",
    "OrbitPoint(x, Fraction(1, 2)).t": "Fraction(1, 2)",
}
IMPORT = "from fractions import Fraction"

# evaluates the operations argv[1] lists, in order, in a fresh interpreter and prints
# each outcome with whether `fractions` was loaded after it; an "import" item runs as a statement
COLD = """
import json, sys
from sturmian.quadratics import parse_quad
from sturmian.words import OrbitPoint

scope = {"x": parse_quad("quad:3,-1,5,2"), "y": parse_quad("quad:1,3,20,4"), "OrbitPoint": OrbitPoint}
rows = [["start", "", "fractions" in sys.modules]]
for item in json.loads(sys.argv[1]):
    if item.startswith("from "):
        exec(item, scope)
        continue
    try:
        value = repr(eval(item, scope))
    except TypeError:
        value = "TypeError"
    rows.append([item, value, "fractions" in sys.modules])
print(json.dumps(rows))
"""


@pytest.mark.parametrize(
    "items",
    [
        [*INT_OPERANDS, *RATIONAL_RESULTS, IMPORT, *FRACTION_OPERANDS],  # the field imports `fractions`
        [*INT_OPERANDS, IMPORT, *FRACTION_OPERANDS, *RATIONAL_RESULTS],  # the caller imports it first
    ],
    ids=["rational-result-first", "fraction-operand-first"],
)
def test_operands_in_a_cold_interpreter(items):
    # ints, bools and other radicands never load `fractions`; the first rational
    # result loads it, and a Fraction operand is read once the caller has it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(quadratics.__file__).parent.parent), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", COLD, json.dumps(items)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    expected = {**INT_OPERANDS, **RATIONAL_RESULTS, **FRACTION_OPERANDS}
    assert [(item, value) for item, value, _ in rows[1:]] == [(i, expected[i]) for i in items if i != IMPORT]
    loaded = {item: flag for item, _, flag in rows}
    assert not loaded["start"] and not any(loaded[i] for i in INT_OPERANDS)
    assert all(loaded[i] for i in (*RATIONAL_RESULTS, *FRACTION_OPERANDS))


def test_period_walk_stops_at_its_stop_state():
    # sqrt 7 - 2 = [0; (1,1,1,4)]: D = 28, first reduced state (4, 6); the walk
    # meets an axis at digit 1 (P_2 == P_1 == 2), then walks back from the
    # start's reverse (4, 2) to the axis at the digit 4
    D, pre, P, Q = quadratics._reduced(parse_quad("quad:-2,1,7,1"))
    assert (D, pre, P, Q) == (28, [0], 4, 6)
    assert quadratics._period(D, P, Q) == ([1, 1, 1, 4], False)
    assert quadratics._period(D, P, Q, (4, 6)) == (None, True)  # the start
    assert quadratics._period(D, P, Q, (2, 4)) == (None, True)  # just ahead
    assert quadratics._period(D, P, Q, (2, 6)) == (None, True)  # the reverse of (2, 4), in the mirrored half
    assert quadratics._period(D, P, Q, (4, 2)) == (None, True)  # one step behind
    assert quadratics._period(D, P, Q, (5, 1)) == ([1, 1, 1, 4], False)  # D = 28's other cycle, (10, 3, 2, 3)


def test_period_walk_counts_a_mirror_only_past_an_axis():
    # [0; (3,1,2)] and [0; (3,2,1)] share D = 148, and each cycle is the other's
    # mirror: beta's first reduced state (8, 6) reverses to (8, 14), a state of
    # alpha's cycle, yet the cycle has no axis, so beta's state is not on it
    D, _, P, Q = quadratics._reduced(parse_quad("quad:-5,1,37,4"))
    E, _, P2, Q2 = quadratics._reduced(parse_quad("quad:-4,1,37,7"))
    assert (D, P, Q, E, P2, Q2) == (148, 10, 6, 148, 8, 6)
    assert quadratics._period(D, P, Q, (P2, Q2)) == ([3, 1, 2], False)
    assert quadratics._period(D, P, Q, (8, 14)) == (None, True)
    assert quadratics._period(E, P2, Q2, (P, Q)) == ([3, 2, 1], False)


@st.composite
def reduced_walks(draw):
    """(D, start, stop): two reduced states of one D, on one cycle or on two."""
    D = draw(st.integers(5, 3000).filter(lambda D: math.isqrt(D) ** 2 != D))
    states = reference.reduced_states(D)
    return D, draw(st.sampled_from(states)), draw(st.sampled_from(states))


@settings(max_examples=300, deadline=None)
@given(walk=reduced_walks())
@example(walk=(5, (1, 2), (1, 2)))  # [(1)]: every state is an axis
@example(walk=(8, (2, 4), (2, 2)))  # [(1, 4)], and (2, 2) on the cycle [(2)]
@example(walk=(28, (4, 6), (4, 2)))  # sqrt 7 - 2's cycle, one step behind
@example(walk=(148, (10, 6), (8, 6)))  # the mirror of beta's state on a cycle with no axis
def test_period_matches_one_direction_walk(walk):
    D, start, stop = walk
    digits, states = reference.period_walk(D, *start)
    assert quadratics._period(D, *start) == (digits, False)
    assert quadratics._period(D, *start, stop) == ((None, True) if stop in states else (digits, False))


def reference_tail_equivalent(a: ContinuedFraction, b: ContinuedFraction) -> bool:
    """Periods of equal length compared under every rotation."""
    if len(a.period) != len(b.period):
        return False
    p = a.period
    return any(p[i:] + p[:i] == b.period for i in range(len(p)))


@settings(max_examples=200, deadline=None)
@given(
    p=st.integers(-10**6, 10**6),
    q=st.integers(-1000, 1000).filter(bool),
    d=st.integers(2, 10**7),
    r=st.integers(-1000, 1000).filter(bool),
)
def test_floor_within_isqrt_bounds(p, q, d, r):
    assume(math.isqrt(d) ** 2 != d)
    x = QuadraticIrrational(p, q, d, r)
    # bracket sqrt(d) between scaled integer square roots until x's bracket
    # lies inside one unit interval
    for bits in (16, 64, 256, 1024):
        scale = 1 << bits
        lo = math.isqrt(x.d * scale * scale)
        ends = sorted(Fraction(x.p * scale + x.q * s, x.r * scale) for s in (lo, lo + 1))
        if math.floor(ends[0]) == math.floor(ends[1]):
            assert math.floor(x) == math.floor(ends[0])
            return
    raise AssertionError("isqrt bounds failed to separate")


def factorint_split(n: int) -> tuple[int, int]:
    """(s, f) with n = s*s*f and f squarefree, read off sympy's factorisation."""
    s, f = 1, 1
    for prime, e in pytest.importorskip("sympy").factorint(n).items():
        s *= prime ** (e // 2)
        f *= prime ** (e % 2)
    return s, f


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 10**15))
def test_squarefree_split_matches_factorint(n):
    assert _squarefree_split(n) == factorint_split(n)


@settings(max_examples=150, deadline=None)
@given(
    small=st.integers(1, 100),
    p0=st.integers(10**3, 10**9),
    gap=st.integers(1, 10**3),
    kind=st.sampled_from(["p*p", "p*q", "2*p*p"]),
)
def test_squarefree_split_of_large_cofactors(small, p0, gap, kind):
    """Cofactors whose primes all exceed the cube root, where trial division stops."""
    sympy = pytest.importorskip("sympy")
    p = sympy.nextprime(p0)
    q = sympy.nextprime(p + gap)
    n = small * {"p*p": p * p, "p*q": p * q, "2*p*p": 2 * p * p}[kind]
    assert _squarefree_split(n) == factorint_split(n)


@settings(max_examples=150, deadline=None)
@given(
    p=st.integers(-60, 60),
    q=st.integers(-3, 3).filter(bool),
    d=st.integers(2, 2000),
    r=st.integers(-12, 12).filter(bool),
)
@example(p=1, q=1, d=5, r=2)  # purely periodic x > 1: cf:[(1)]
@example(p=1, q=1, d=3, r=3)  # Q = 3 does not divide D - P*P = 2
def test_cf_expand_matches_object_iteration(p, q, d, r):
    assume(math.isqrt(d) ** 2 != d)
    x = QuadraticIrrational(p, q, d, r)
    cf = cf_expand(x)
    assert cf == reference.cf_expand(x)
    assert cf_value(cf) == x


periods = st.lists(st.integers(1, 12), min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(
    pre=st.lists(st.integers(1, 4), max_size=3),
    per_a=periods,
    per_b=periods,
    shift=st.integers(0, 7),
    rotate=st.booleans(),
)
def test_tail_equivalence_matches_rotation_loop(pre, per_a, per_b, shift, rotate):
    if rotate:
        k = shift % len(per_a)
        per_b = per_a[k:] + per_a[:k]
    a = ContinuedFraction((0,), tuple(per_a))
    b = ContinuedFraction((1, *pre), tuple(per_b))
    assert cf_tail_equivalent(a, b) == reference_tail_equivalent(a, b)
    if rotate:
        assert cf_tail_equivalent(a, b)


class TestKernelCallCounts:
    """The kernel's work counted in squarefree splits, which tracks whether
    field elements are built per continued-fraction step."""

    def test_cf_expand_builds_no_field_elements(self, splits):
        cf_expand(LONG_PERIOD)
        assert splits == []

    def test_construction_factors_nothing(self, splits):
        big = "quad:-24879108095803,1,618970019642690137449562111,1"  # sqrt(2^89 - 1) - 24879108095803
        assert QuadraticIrrational(0, 3, 72, 4).d == 72
        assert format_quad(parse_quad(big)) == big
        argv = ["report", "--alpha", big]
        args = cli._build_parser(argv).parse_args(argv)
        cli._parse_args(args)  # the CLI's own parse of --alpha
        assert args.alpha == parse_quad(big)
        assert splits == []

    def test_cf_value_splits_per_preperiod_digit(self, splits):
        cf = cf_expand(LONG_PERIOD)
        assert cf_value(cf) == LONG_PERIOD
        # the tail's discriminant once, and nothing per preperiod digit
        assert len(splits) == 1


def reference_matrix(digits: tuple[int, ...]) -> tuple[int, int, int, int]:
    """The product of the matrices (digit, 1; 1, 0), one digit at a time."""
    a, b, c, e = 1, 0, 0, 1
    for digit in digits:
        a, b, c, e = a * digit + b, a, c * digit + e, c
    return a, b, c, e


def reference_cf_value(cf: ContinuedFraction) -> QuadraticIrrational:
    """The tail from its content-free minimal polynomial, then x = a + 1/y
    for each preperiod digit a, from the last, in field arithmetic."""
    a, b, c, e = reference_matrix(cf.period)
    g = math.gcd(a - e, b, c)
    u, b, c = (a - e) // g, b // g, c // g
    y = QuadraticIrrational(u, 1, u * u + 4 * b * c, 2 * c)
    for digit in reversed(cf.preperiod):
        y = digit + y.inverse()
    return y


# sqrt(d): a0 = isqrt(d), then a period of 1, 2, 5, 16, 334 and 392 digits
# respectively
TAILS = [QuadraticIrrational(0, 1, d, 1) for d in (2, 3, 13, 94, 30139, 60094)]


@settings(max_examples=60, deadline=None)
@given(
    tail=st.sampled_from(TAILS),
    rotate=st.integers(0, 400),
    pre=st.one_of(
        st.just(()),
        st.tuples(st.integers(-5, 5), st.lists(st.integers(1, 30), max_size=5)).map(lambda t: (t[0], *t[1])),
    ),
)
@example(tail=TAILS[0], rotate=0, pre=(0, 1, 1, 1, 1, 1))
def test_cf_value_round_trip_with_one_split(tail, rotate, pre):
    per = cf_expand(tail).period
    k = rotate % len(per)
    cf = ContinuedFraction(pre, per[k:] + per[:k])
    with mock.patch.object(invariants, "_squarefree_split", wraps=_squarefree_split) as split:
        x = cf_value(cf)
    assert split.call_count == 1
    assert x == reference_cf_value(cf)
    assert cf_expand(x) == cf
    assert cf_value(cf_expand(x)) == x


def test_blocked_fold_matches_one_digit_fold():
    # every length up to three blocks and one digit more, so empty, partial
    # and whole blocks all occur; a0 <= 0 and digits of any sign included
    rng = random.Random(19)
    for n in range(3 * invariants._BLOCK + 2):
        for a0 in (-7, 0, 3):
            digits = (a0, *(rng.randint(1, 3000) for _ in range(n - 1)))[:n]
            assert invariants._matrix(digits) == invariants._fold(digits) == reference_matrix(digits)
        digits = tuple(rng.randint(-3000, 3000) for _ in range(n))
        assert invariants._matrix(digits) == invariants._fold(digits) == reference_matrix(digits)
    # past the length floor of the palindrome fold: w = p1 + p2 for palindromes
    # with odd and even halves, p1 empty (j = 0), one digit or led by a0 <= 0,
    # folds from at most half its digits; a near miss, one digit changed, folds
    # to the product of its digits too
    floor = 4 * invariants._BLOCK

    def palindrome(n, a0):
        half = [a0, *(rng.randint(1, 3000) for _ in range(n // 2 - 1))][: n // 2]
        return (*half, *(rng.randint(1, 3000) for _ in range(n % 2)), *reversed(half))

    for n1 in (0, 1, 2, 3, 75, 76, floor, 3 * floor + 1):
        for n2 in sorted({n for n in (1, 2, floor - n1, floor + 1 - n1, 2 * floor - n1) if n > 0}):
            for a0 in (-7, 0, 3):
                w = palindrome(n1, a0) + palindrome(n2, rng.randint(1, 3000))
                with mock.patch.object(invariants, "_matrix", wraps=invariants._matrix) as fold:
                    assert invariants._fold(w) == reference_matrix(w)
                folded = sum(len(call.args[0]) for call in fold.call_args_list)
                assert folded <= len(w) // 2 if len(w) >= floor else folded == len(w)
                i = rng.randrange(len(w))
                near = (*w[:i], w[i] + rng.choice((-1, 1)), *w[i + 1 :])
                assert invariants._fold(near) == reference_matrix(near)
    # two palindromes of 64 to 200 small digits each: the largest digit of the
    # first block stands at dozens of places before the split, and each word
    # still folds from at most half its digits
    draw = random.Random(3)
    for top in (2, 3, 9):
        for _ in range(40):
            w = ()
            for n in (draw.randint(64, 200), draw.randint(64, 200)):
                half = tuple(draw.randint(1, top) for _ in range(n // 2))
                w += half + tuple(draw.randint(1, top) for _ in range(n % 2)) + half[::-1]
            with mock.patch.object(invariants, "_matrix", wraps=invariants._matrix) as fold:
                assert invariants._fold(w) == reference_matrix(w)
            assert sum(len(call.args[0]) for call in fold.call_args_list) <= len(w) // 2
    # periods whose split stands late among the places of their largest digit,
    # and a rotation of each, whose split moves
    for lit in ("quad:-1957,2,959929,4", "quad:2941,-3,959558,3", "quad:-705,3,55657,4"):
        w = cf_expand(parse_quad(lit)).period
        for v in (w, w[7:] + w[:7]):
            with mock.patch.object(invariants, "_matrix", wraps=invariants._matrix) as fold:
                assert invariants._fold(v) == reference_matrix(v)
            assert sum(len(call.args[0]) for call in fold.call_args_list) <= len(v) // 2
    # repetitive words, k ones with five 2s: the head matches at nearly every
    # place of the largest digit, and the search gives up after _MISSES
    # failed whole comparisons instead of paying one per place
    for k in (3000, 12000):
        draw = random.Random(5)
        w = [1] * k
        for _ in range(5):
            w[draw.randrange(k)] = 2
        assert invariants._fold(tuple(w)) == reference_matrix(tuple(w))


@pytest.mark.parametrize("x", TAILS, ids=str)
def test_round_trip_across_blocks(x):
    # the 334- and 392-digit periods fold in many blocks and a partial one
    cf = cf_expand(x)
    assert cf_value(cf) == x == reference_cf_value(cf)


LONGEST = parse_quad("quad:1700,-3,320794,3")  # period 2994 = 2*3*499


@pytest.mark.parametrize("x, n", [(LONG_PERIOD, 436), (LONGEST, 2994)], ids=["436", "2994"])
def test_expansion_is_canonical_as_built(x, n):
    # cf_expand skips canonicalisation; the public constructor, which
    # searches every divisor of the period length, must leave it unchanged
    cf = cf_expand(x)
    assert len(cf.period) == n
    assert cf == ContinuedFraction(cf.preperiod, cf.period) == reference.cf_expand(x)
    assert type(cf.preperiod) is type(cf.period) is tuple


class TestFoldedDigitCounts:
    """The digits `_matrix` folds in one round trip, counted by wrapping it.

    A period of at least 4*_BLOCK digits that is two palindromes, as every
    symmetric cycle's is, folds half of each; any other period folds whole,
    and the preperiod folds once after it.
    """

    @pytest.mark.parametrize(
        "x, counts",
        [
            (LONG_PERIOD, [217, 0, 1]),  # 436 digits: palindromes of 435 and 1
            (LONGEST, [999, 497, 2]),  # 2,994 digits: palindromes of 1,999 and 995
            (parse_quad("quad:-3,1,2609,9"), [150, 1]),  # 150 digits, no axis
            (parse_quad("quad:-5,1,37,4"), [3, 1]),  # [0; (3,1,2)], no axis
            # splits past the first four places of the largest digit: the 15th, 5th and 9th
            (parse_quad("quad:-1957,2,959929,4"), [446, 445, 1]),  # 1,784 digits: 893 and 891
            (parse_quad("quad:2941,-3,959558,3"), [190, 381, 3]),  # 1,144 digits: 381 and 763
            (parse_quad("quad:-705,3,55657,4"), [69, 78, 1]),  # 296 digits: 139 and 157
        ],
        ids=["436", "2994", "150-asymmetric", "148-asymmetric", "1784-late-split", "1144-late-split",
             "296-late-split"],
    )
    def test_digits_folded(self, x, counts):
        with mock.patch.object(invariants, "_matrix", wraps=invariants._matrix) as fold:
            assert cf_value(cf_expand(x)) == x
        assert [len(call.args[0]) for call in fold.call_args_list] == counts


@settings(max_examples=100, deadline=None)
@given(x=cf_parameters(period_digits=st.integers(1, 40)))
def test_cf_round_trip_over_cf_parameters(x):
    # small period digits keep the tail's discriminant, which cf_value factors, small
    assert cf_value(cf_expand(x)) == x


@settings(max_examples=300, deadline=None)
@given(
    base=st.lists(st.integers(-1, 4), min_size=1, max_size=6),
    times=st.integers(1, 12),
    pre=st.lists(st.integers(-1, 4), max_size=4),
)
@example(base=[1, 2], times=9, pre=[])  # n = 18: divisors 2 and 9 both repeat
def test_canonicalisation_matches_reference(base, times, pre):
    per = tuple(base) * times
    if any(a < 1 for a in per) or any(a < 1 for a in pre[1:]):
        with pytest.raises(ValueError):
            ContinuedFraction(tuple(pre), per)
    else:
        assert ContinuedFraction((), per).period == reference.minimal_period(per)

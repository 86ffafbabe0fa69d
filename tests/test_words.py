import math
import random
from fractions import Fraction

import pytest

from sturmian.arcs import Arc, _first_entry, cylinder_arc, recurrence_bound
from sturmian.quadratics import QuadraticIrrational, parse_quad
from sturmian.words import (
    OrbitPoint,
    _interior_point,
    _orbit_point,
    branch_point,
    code_word,
    language,
    past_set,
    preimages,
)

import reference
from reference import partition_table

FIB = QuadraticIrrational(3, -1, 5, 2)
SQRT2M1 = QuadraticIrrational(-1, 1, 2, 1)
GOLDEN_CONJ = QuadraticIrrational(-1, 1, 5, 2)
ALPHAS = [FIB, SQRT2M1, GOLDEN_CONJ]

GENERIC_T = Fraction(1, 7)


def sample_word(alpha, n, t=GENERIC_T):
    return code_word(OrbitPoint(alpha, t), n)


def factors_of(w, n):
    return {w[i : i + n] for i in range(len(w) - n + 1)}


def past_by_scanning(alpha, x, l, prefix_len=None, sample_len=40_000):
    """Independent window-scan oracle for past sets.

    The left l-contexts of occurrences of the length-m prefix of x in a
    long generic sample decrease to the true past as m grows, so the set
    at a comfortably deep m is the intersection over all shallower ones.
    """
    s = sample_word(alpha, sample_len)
    m = prefix_len or (l + 40)
    p = code_word(x, m)
    ctx = {s[j - l : j] for j in range(l, len(s) - m) if s[j : j + m] == p}
    if not ctx:
        raise AssertionError("sample too short for scanning oracle")
    return ctx


class TestCodeLetter:
    def test_branch_point_first_letter(self):
        assert code_word(branch_point(FIB), 1) == "0"

    def test_zero_under_both_variants(self):
        assert code_word(OrbitPoint(FIB, 0, "L"), 1) == "0"
        assert code_word(OrbitPoint(FIB, 0, "R"), 1) == "1"

    def test_left_endpoint_of_upper_interval(self):
        for alpha in ALPHAS:
            t = 1 - alpha
            assert code_word(OrbitPoint(alpha, t, "L"), 1) == "1"
            assert code_word(OrbitPoint(alpha, t, "R"), 1) == "0"


class TestCodeWord:
    def test_fibonacci_prefix(self):
        assert code_word(branch_point(FIB), 10) == "0100101001"

    def test_zero_point_prepends_zero(self):
        assert code_word(OrbitPoint(FIB, 0, "L"), 5) == "0" + code_word(branch_point(FIB), 4)

    def test_empty(self):
        assert code_word(branch_point(FIB), 0) == ""

    def test_matches_letterwise(self):
        x = OrbitPoint(FIB, Fraction(2, 9), "L")
        w = code_word(x, 40)
        assert all(w[i] == code_word(x.shift(i), 1) for i in range(40))


class TestCylinders:
    def test_empty_word_full_circle(self):
        arc = cylinder_arc(FIB, "")
        assert arc == Arc(FIB, 0, 0)  # equal tags: the full circle

    def test_11_not_admissible(self):
        assert cylinder_arc(FIB, "11") is None
        assert "11" not in sample_word(FIB, 10_000)

    def test_single_zero(self):
        arc = cylinder_arc(FIB, "0")
        assert reference.ends(arc) == (Fraction(0), 1 - FIB, 0, 1)
        assert arc == Arc(FIB, 0, 1)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_cells_are_half_open(self, alpha):
        # every cylinder arc holds its start point and not its end point: w is the
        # L coding of the start, and the R coding of the end, which points of the
        # arc approach from the left, while the end's own L coding differs
        assert language(alpha, 0) == {""} and cylinder_arc(alpha, "") == Arc(alpha, 0, 0)
        for n in range(1, 9):
            for w in language(alpha, n):
                arc = cylinder_arc(alpha, w)
                assert code_word(_orbit_point(alpha, -arc.lo_tag, "L"), n) == w
                assert code_word(_orbit_point(alpha, -arc.hi_tag, "R"), n) == w
                assert code_word(_orbit_point(alpha, -arc.hi_tag, "L"), n) != w

    def test_alphabet_validation(self):
        with pytest.raises(ValueError):
            cylinder_arc(FIB, "012")


class TestLanguage:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_factor_complexity(self, alpha):
        for n in range(1, 25):
            assert len(language(alpha, n)) == n + 1

    def test_small_languages(self):
        assert language(FIB, 1) == {"0", "1"}
        assert language(FIB, 2) == {"00", "01", "10"}
        assert language(FIB, 3) == {"001", "010", "100", "101"}

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_language_equals_factor_scan(self, alpha):
        s = sample_word(alpha, 10_000)
        for n in range(1, 9):
            assert language(alpha, n) == factors_of(s, n)

    def test_empty_word(self):
        assert language(FIB, 0) == {""}


class TestLeftExtensions:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_unique_left_special_factor(self, alpha):
        # the left extensions of w are the letters a with a + w in the next language
        om = branch_point(alpha)
        for n in range(1, 25):
            lang_next = language(alpha, n + 1)
            special = [w for w in language(alpha, n) if {"0" + w, "1" + w} <= lang_next]
            assert special == [code_word(om, n)]


class TestBranchStructure:
    def test_branch_point_preimages(self):
        om = branch_point(FIB)
        pre = preimages(om)
        assert {(p.t, p.variant) for p in pre} == {(Fraction(0), "L"), (Fraction(0), "R")}
        # these are the points 0.omega and 1.omega
        assert {code_word(p, 6) for p in pre} == {"0" + code_word(om, 5), "1" + code_word(om, 5)}

    def test_generic_preimage_is_single(self):
        x = OrbitPoint(FIB, Fraction(1, 2), "L")
        (y,) = preimages(x)
        assert y == OrbitPoint(FIB, Fraction(1, 2) - FIB, "L")
        assert y.shift() == x

    def test_shift_section(self):
        for t in (Fraction(1, 2), FIB * Fraction(1, 3) + Fraction(1, 5)):
            x = OrbitPoint(FIB, t, "L")
            assert any(y == x for y in preimages(x.shift()))

    def test_branch_first_letter_below_half(self):
        for alpha in ALPHAS:  # all three lie in (0, 1/2) except the golden conjugate
            om = branch_point(alpha)
            expected = "0" if alpha < Fraction(1, 2) else "1"
            assert code_word(om, 1) == expected

    def test_shift_of_zero_point_is_branch(self):
        zero = OrbitPoint(FIB, 0, "L")
        assert zero.shift() == branch_point(FIB)


class TestPastSets:
    @pytest.mark.parametrize("k", range(0, 7))
    def test_two_pasts_along_forward_orbit(self, k):
        om = branch_point(FIB)
        w = code_word(om, k)
        assert past_set(om.shift(k), k + 1) == {"0" + w, "1" + w}

    def test_depth_zero(self):
        assert past_set(OrbitPoint(FIB, Fraction(1, 3)), 0) == {""}

    def test_unique_past_at_generic_point(self):
        x = OrbitPoint(FIB, Fraction(1, 2), "L")
        got = past_set(x, 3)
        back = OrbitPoint(FIB, Fraction(1, 2) - FIB * 3, "L")
        assert got == {code_word(back, 3)}

    @pytest.mark.parametrize(
        "x,l",
        [
            (OrbitPoint(FIB, Fraction(1, 2)), 4),
            (OrbitPoint(FIB, Fraction(5, 11)), 3),
            (OrbitPoint(SQRT2M1, Fraction(1, 3)), 5),
            (OrbitPoint(FIB, FIB, "L"), 3),  # branch point: both pasts
            (OrbitPoint(FIB, FIB * 3, "L"), 3),  # sigma^2(omega)
        ],
    )
    def test_matches_scanning_oracle(self, x, l):
        assert past_set(x, l) == past_by_scanning(x.alpha, x, l)

    def test_cardinalities(self):
        om = branch_point(FIB)
        assert len(past_set(om.shift(3), 4)) == 2
        assert len(past_set(om.shift(3), 3)) == 1  # too shallow to see the branch
        assert len(past_set(OrbitPoint(FIB, Fraction(1, 5)), 8)) == 1


class TestRecurrence:
    def test_single_zero(self):
        assert recurrence_bound(FIB, "0") == 2

    def test_empty_word(self):
        assert recurrence_bound(FIB, "") == 0

    def test_inadmissible(self):
        with pytest.raises(ValueError):
            recurrence_bound(FIB, "11")

    def test_01_matches_gap_oracle(self):
        beta = recurrence_bound(FIB, "01")
        for n in (10_000, 20_000):
            s = sample_word(FIB, n)
            occ = [i for i in range(len(s) - 1) if s[i : i + 2] == "01"]
            gap = max(b - a for a, b in zip(occ, occ[1:]))
            assert beta == 1 + gap

    @pytest.mark.parametrize("alpha", [FIB, SQRT2M1])
    def test_gap_oracle_general(self, alpha):
        s = sample_word(alpha, 30_000)
        for n in range(1, 7):
            for mu in sorted(language(alpha, n)):
                occ = [i for i in range(len(s) - n + 1) if s[i : i + n] == mu]
                gap = max(b - a for a, b in zip(occ, occ[1:]))
                assert recurrence_bound(alpha, mu) == gap + n - 1

    @pytest.mark.parametrize(
        "alpha",
        ALPHAS + [QuadraticIrrational(-1, 1, 13, 6), QuadraticIrrational(5, -1, 5, 10)],
        ids=["fib", "sqrt2m1", "golden_conj", "cf_2_3", "quad_5_-1_5_10"],
    )
    def test_matches_the_language_loop(self, alpha):
        for n in range(1, 9):
            for mu in sorted(language(alpha, n)):
                assert recurrence_bound(alpha, mu) == reference.recurrence_bound(alpha, mu)

    def test_large_partial_quotient(self):
        # [0; 2, 9999999, ...]: "00" first returns after about 2*10^7 steps
        alpha = QuadraticIrrational(-9999999, 1, 99999999999999, 2)
        assert recurrence_bound(alpha, "00") == 20_000_002

    def test_first_entry_between_the_sides_of_zero(self):
        # an L end stands just after its point and an R end just before it: the
        # arc from 0 L round to 0 R first meets -alpha, the arc from 0 R to 0 L meets 0
        zero_l, zero_r = OrbitPoint(FIB, 0, "L"), OrbitPoint(FIB, 0, "R")
        assert (_first_entry(zero_l, zero_r), _first_entry(zero_r, zero_l)) == (1, 0)

    def test_minimality_proxy(self):
        for n in range(1, 9):
            for mu in sorted(language(FIB, n)):
                beta = recurrence_bound(FIB, mu)
                assert all(mu in w for w in language(FIB, beta))
                if beta > n:
                    assert any(mu not in w for w in language(FIB, beta - 1))


class TestPointConstruction:
    @pytest.mark.parametrize("cls", [OrbitPoint])
    @pytest.mark.parametrize("t", [0.5, 0.25])
    def test_inexact_point_rejected(self, cls, t):
        with pytest.raises(TypeError):
            cls(FIB, t)


class TestCodingArcConsistency:
    def test_500_random_points(self):
        rng = random.Random(515)
        for _ in range(500):
            t = Fraction(rng.randint(1, 10**6 - 1), 10**6)
            n = rng.randint(1, 12)
            alpha = rng.choice(ALPHAS)
            mu = code_word(OrbitPoint(alpha, t, "L"), n)
            for w in language(alpha, n):
                assert reference.field_arc(cylinder_arc(alpha, w)).contains(t) == (w == mu)


class TestVariantAgreement:
    def test_generic_points_agree(self):
        rng = random.Random(99)
        for _ in range(60):
            t = Fraction(rng.randint(1, 10**6 - 1), 10**6)
            alpha = rng.choice(ALPHAS)
            assert code_word(OrbitPoint(alpha, t, "L"), 40) == code_word(
                OrbitPoint(alpha, t, "R"), 40
            )

    def test_orbit_of_zero_disagrees(self):
        zero_l, zero_r = OrbitPoint(FIB, 0, "L"), OrbitPoint(FIB, 0, "R")
        assert code_word(zero_l, 8) != code_word(zero_r, 8)
        assert zero_l != zero_r

    def test_branch_point_variants_coincide(self):
        assert OrbitPoint(FIB, FIB, "L") == OrbitPoint(FIB, FIB, "R")
        assert code_word(OrbitPoint(FIB, FIB, "L"), 30) == code_word(OrbitPoint(FIB, FIB, "R"), 30)


class TestArcImplementationsAgree:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_incremental_cylinder_matches_partition_table(self, alpha):
        # language reads the windows of the L coding of 0, cylinder_arc finds
        # its word in the L and R codings; both must give the cells of the
        # midpoint coded partition table, endpoint tags included
        for n in [*range(0, 9), 100]:
            table = partition_table(alpha, n)
            assert language(alpha, n) == set(table)
            for w, arc in table.items():
                assert reference.ends(cylinder_arc(alpha, w)) == reference.ends(arc)

    def test_intersections_of_disjoint_cylinders_are_empty(self):
        # the field arcs through the package's tags meet only on the diagonal
        lang = sorted(language(FIB, 4))
        cylinders = {w: cylinder_arc(FIB, w) for w in lang}
        arcs = {w: reference.tag_arc(FIB, arc.lo_tag, arc.hi_tag) for w, arc in cylinders.items()}
        for a in lang:
            for b in lang:
                got = reference.intersect_arcs(arcs[a], arcs[b])
                assert (got is not None) == (a == b)


class TestOrbitPosition:
    def test_positions(self):
        om = branch_point(FIB)
        assert om.orbit_position() == ("forward", 0)
        assert om.shift(3).orbit_position() == ("forward", 3)
        assert OrbitPoint(FIB, 0, "L").orbit_position() == ("backward", 1)
        assert OrbitPoint(FIB, 1 - FIB, "R").orbit_position() == ("backward", 2)
        assert OrbitPoint(FIB, Fraction(1, 2)).orbit_position() is None
        assert OrbitPoint(FIB, FIB * Fraction(1, 2)).orbit_position() is None

    @pytest.mark.parametrize(
        "alpha", [FIB, SQRT2M1, parse_quad("quad:-1,1,13,6"), parse_quad("quad:-7,1,61,3")]
    )
    def test_orbit_point_inverts_orbit_position(self, alpha):
        # b*alpha is sigma^(b-1)(omega) for b >= 1 and 1 - b shifts behind omega otherwise;
        # only the points behind it, on the coding boundary, keep side v
        for b in range(-20, 21):
            for v in "LR":
                x = _orbit_point(alpha, b, v)
                assert x.orbit_position() == (("forward", b - 1) if b >= 1 else ("backward", 1 - b))
                assert (x.t, x.variant) == (b * alpha - math.floor(b * alpha), v if b <= 0 else "L")
                assert x == OrbitPoint(alpha, b * alpha, v)

    def test_partition_arcs_cover_circle(self):
        arcs = [cylinder_arc(FIB, w) for w in language(FIB, 5)]
        rng = random.Random(4)
        for _ in range(50):
            t = Fraction(rng.randint(0, 10**6 - 1), 10**6)
            assert sum(reference.field_arc(a).contains(t) for a in arcs) == 1

    def test_interior_points_off_orbit(self):
        for w in language(FIB, 7):
            arc = cylinder_arc(FIB, w)
            x = _interior_point(FIB, arc.lo_tag, arc.hi_tag)
            assert reference.field_arc(arc).contains(x.t)
            assert x.orbit_position() is None

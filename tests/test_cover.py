import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sturmian import cover, words
from sturmian.arcs import cylinder_arc, recurrence_bound
from sturmian.invariants import cf_value, parse_cf
from sturmian.quadratics import QuadraticIrrational, parse_quad
from sturmian.words import OrbitPoint, branch_point, code_word, language, past_set
from sturmian.cover import (
    EqClass,
    IndexPair,
    Thread,
    construct_fibre_element,
    eq_class,
    expected_fibre_size,
    fibre,
    fibre_report,
    index_leq,
    property_star_witness,
    q_map,
    quotient,
    shift_map,
    shift_thread,
    thread_of,
)
from sturmian.cover import _classes, _death_depths, _tops
from sturmian.words import _zero_words

import reference
from reference import chain_candidates, death_depths_by_walk, sampled_quotient, thread_family
from test_kernel import cf_parameters

FIB = QuadraticIrrational(3, -1, 5, 2)
SQRT2M1 = QuadraticIrrational(-1, 1, 2, 1)
CF_2_3 = QuadraticIrrational(-1, 1, 13, 6)  # [0; 2, (3)]
BIG_DIGIT = QuadraticIrrational(-9999999, 1, 99999999999999, 2)  # [0; 2, 9999999, ...]
OM = branch_point(FIB)
HALF = OrbitPoint(FIB, Fraction(1, 2), "L")


def grid_pairs(kmax, lmax):
    return [IndexPair(k, l) for k in range(kmax + 1) for l in range(k, lmax + 1)]


def random_point(rng, alpha=FIB):
    return OrbitPoint(alpha, Fraction(rng.randint(1, 10**9), 10**9 + 7), "L")


def class_mate(alpha, x, idx):
    # a point of x's class at idx other than x, for x off the branch orbit:
    # its k-th shift is the property-star witness of x's one past there
    c = eq_class(alpha, x, idx)
    assert c in quotient(alpha, idx).classes
    (u,) = c.past
    y = property_star_witness(alpha, u).shift(-idx[0])
    assert y != x
    return y


class TestIndexOrder:
    def test_bottom(self):
        for idx in grid_pairs(3, 5):
            assert index_leq((0, 0), idx)

    def test_examples(self):
        assert index_leq((1, 2), (2, 3))
        assert not index_leq((0, 2), (1, 2))

    def test_partial_order_axioms(self):
        pairs = grid_pairs(3, 6)
        for a in pairs:
            assert index_leq(a, a)
            for b in pairs:
                if index_leq(a, b) and index_leq(b, a):
                    assert a == b
                for c in pairs:
                    if index_leq(a, b) and index_leq(b, c):
                        assert index_leq(a, c)

    def test_validation(self):
        with pytest.raises(ValueError):
            index_leq((2, 1), (2, 3))


class TestEqClass:
    def test_trivial_index(self):
        c = eq_class(FIB, HALF, (0, 0))
        assert c.prefix == "" and c.past == {""}
        assert c == eq_class(FIB, OM, (0, 0))

    def test_branch_point_has_two_pasts(self):
        for k in range(4):
            c = eq_class(FIB, OM, (0, k + 1))
            assert len(c.past) == 2

    def test_generic_point_single_past(self):
        c = eq_class(FIB, HALF, (2, 3))
        assert len(c.past) == 1
        assert c.past == past_set(HALF.shift(2), 3)

    def test_reflexive(self):
        assert eq_class(FIB, HALF, (2, 4)) == eq_class(FIB, HALF, (2, 4))

    def test_branch_point_separated(self):
        assert eq_class(FIB, OM, (0, 1)) != eq_class(FIB, HALF, (0, 1))

    def test_recurrent_return_is_equivalent(self):
        # a return to the class built as in the isolated-point density
        # argument: z = sigma^(l-k) of an omega-orbit point starting with
        # the past word of x
        k, l = 1, 3
        x = HALF
        (mu,) = past_set(x.shift(k), l)
        w = code_word(OM, 400)
        K = w.index(mu)
        z = OM.shift(K + l - k)
        assert eq_class(FIB, x, (k, l)) == eq_class(FIB, z, (k, l))

    def test_wrong_alpha_rejected(self):
        with pytest.raises(ValueError):
            eq_class(SQRT2M1, HALF, (1, 2))


class TestQuotient:
    def test_trivial(self):
        assert len(quotient(FIB, (0, 0))) == 1

    def test_zero_one(self):
        q = quotient(FIB, (0, 1))
        assert len(q) == 3
        assert {frozenset(c.past) for c in q.classes} == {
            frozenset({"0"}),
            frozenset({"1"}),
            frozenset({"0", "1"}),
        }

    def test_brute_force_oracle(self):
        # every class found by random probing plus orbit points must appear,
        # and the enumeration must not invent classes
        rng = random.Random(77)
        for idx in [(0, 2), (1, 3), (2, 4), (3, 3)]:
            q = quotient(FIB, idx)
            seen = set()
            pts = [random_point(rng) for _ in range(300)]
            pts += [OM.shift(j) for j in range(sum(idx) + 3)]
            for i in range(sum(idx) + 3):
                pts.append(OrbitPoint(FIB, FIB * (-i), "L"))
                pts.append(OrbitPoint(FIB, FIB * (-i), "R"))
            for x in pts:
                seen.add(eq_class(FIB, x, idx))
            assert seen == q.classes

    @pytest.mark.parametrize(
        "alpha",
        [FIB, SQRT2M1, CF_2_3, parse_quad("quad:-7,1,61,3"), parse_quad("quad:-999,1,1000003,2")],
        ids=["fib", "sqrt2m1", "d13", "d61", "d1000003"],
    )
    def test_windows_match_coded_classes(self, alpha):
        # the classes read off the two codings of 0 against the classes
        # coded one branch-orbit point at a time, representatives included
        def table(classes):
            return {(c.prefix, c.past): c.representative for c in classes}

        levels = [(k, l) for l in range(26) for k in range(l + 1)]
        levels += [(80, 160)] if alpha == FIB else []
        for k, l in levels:
            classes = list(_classes(alpha, k, *_zero_words(alpha, l)))
            assert len(set(classes)) == len(classes)  # each class comes once
            assert table(classes) == table(reference.classes(alpha, k, l))

    @pytest.mark.parametrize("alpha", [FIB, SQRT2M1, CF_2_3])
    def test_matches_sampled_representatives(self, alpha):
        for l in range(7):
            for k in range(l + 1):
                assert quotient(alpha, (k, l)).classes == sampled_quotient(alpha, (k, l))

    def test_monotone_sizes_along_order(self):
        sizes = {idx: len(quotient(FIB, idx)) for idx in grid_pairs(4, 4)}
        for a in sizes:
            for b in sizes:
                if index_leq(a, b):
                    assert sizes[a] <= sizes[b]

    def test_class_of_rejects_foreign(self):
        assert eq_class(FIB, HALF, (1, 2)) in quotient(FIB, (1, 2)).classes

    def test_class_invariants_on_samples(self):
        # past words cover positions [k-l, k) while the prefix covers
        # [0, k): every past word is admissible, and the branch the point
        # actually came through agrees with the prefix on the overlap
        # (the other branch's word may differ there)
        for idx in [(1, 2), (2, 4), (3, 3)]:
            k, l = idx
            m = min(k, l)
            for c in quotient(FIB, idx).classes:
                assert 1 <= len(c.past) <= 2
                assert cylinder_arc(FIB, c.prefix) is not None
                assert all(cylinder_arc(FIB, w) is not None for w in c.past)
                assert any(w[l - m :] == c.prefix[k - m :] for w in c.past)


class TestConnectingMaps:
    def test_identity(self):
        c = eq_class(FIB, HALF, (1, 2))
        assert q_map(c, (1, 2)) == c

    def test_branch_class_descends(self):
        assert q_map(eq_class(FIB, OM, (0, 2)), (0, 1)) == eq_class(FIB, OM, (0, 1))

    def test_order_violation(self):
        with pytest.raises(ValueError):
            q_map(eq_class(FIB, HALF, (1, 2)), (0, 2))

    @pytest.mark.parametrize("src,dst", [((1, 2), (0, 1)), ((2, 3), (1, 2)), ((2, 4), (2, 3))])
    def test_surjective(self, src, dst):
        images = {q_map(c, dst) for c in quotient(FIB, src).classes}
        assert images == quotient(FIB, dst).classes

    def test_well_defined_on_samples(self):
        rng = random.Random(3)
        for _ in range(40):
            x = random_point(rng)
            other = class_mate(FIB, x, (2, 4))
            assert eq_class(FIB, x, (2, 4)) == eq_class(FIB, other, (2, 4))
            assert eq_class(FIB, x, (1, 2)) == eq_class(FIB, other, (1, 2))

    def test_composition_along_chains(self):
        rng = random.Random(5)
        chain = [(0, 1), (1, 2), (2, 4)]
        for _ in range(25):
            x = random_point(rng)
            c = eq_class(FIB, x, chain[-1])
            assert q_map(q_map(c, chain[1]), chain[0]) == q_map(c, chain[0])

    def test_monotone_refinement_on_pairs(self):
        rng = random.Random(11)
        pairs = grid_pairs(4, 4)
        for _ in range(200):
            x = random_point(rng)
            hi = rng.choice(pairs)
            y = class_mate(FIB, x, hi)
            assert eq_class(FIB, x, hi) == eq_class(FIB, y, hi)
            for lo in pairs:
                if index_leq(lo, hi):
                    assert eq_class(FIB, x, lo) == eq_class(FIB, y, lo)


class TestShiftMap:
    def test_zero_omega(self):
        zero = OrbitPoint(FIB, 0, "L")
        assert shift_map(eq_class(FIB, zero, (1, 1))) == eq_class(FIB, OM, (0, 1))

    def test_prefix_pops(self):
        c = eq_class(FIB, HALF, (3, 4))
        assert shift_map(c).prefix == c.prefix[1:]

    def test_surjective(self):
        images = {shift_map(c) for c in quotient(FIB, (1, 1)).classes}
        assert images == quotient(FIB, (0, 1)).classes

    def test_needs_positive_k(self):
        with pytest.raises(ValueError):
            shift_map(eq_class(FIB, HALF, (0, 2)))


class TestThreads:
    def test_section_prefix_consistency(self):
        th = thread_of(FIB, HALF, 3, 5)
        for (k, l), c in th.levels():
            assert c.prefix == code_word(HALF, k)
            assert c == eq_class(FIB, HALF, (k, l))

    def test_branch_doubleton(self):
        th = thread_of(FIB, OM, 2, 5)
        for k in range(3):
            assert len(th.class_at(0, k + 1).past) == 2

    def test_q_map_compatibility(self):
        th = thread_of(FIB, OrbitPoint(FIB, Fraction(2, 7)), 3, 5)
        for hi, chi in th.levels():
            for lo, clo in th.levels():
                if index_leq(lo, hi):
                    assert q_map(chi, lo) == clo

    def test_shift_of_section(self):
        th = shift_thread(thread_of(FIB, HALF, 3, 5))
        assert th == thread_of(FIB, HALF.shift(), 2, 5)

    def test_parameter_enters_identity(self):
        # the two threads over the branch points of FIB and sqrt(2) - 1 carry
        # the same classes at every level up to (2, 3), yet are not one thread
        fib, s2 = (thread_of(alpha, branch_point(alpha), 2, 3) for alpha in (FIB, SQRT2M1))
        assert [c for _, c in fib.levels()] == [c for _, c in s2.levels()]
        assert fib != s2 and len({fib, s2}) == 2

    def test_missing_level_rejected(self):
        # a top class below the grid would leave levels undetermined: its
        # prefix is too short (k < K) or its past window too narrow (l-k < L)
        (top,) = _tops(FIB, HALF, 3)
        Thread(HALF, 2, 3, q_map(top, (2, 5)))
        for low in [(1, 4), (2, 4)]:
            with pytest.raises(ValueError):
                Thread(HALF, 2, 3, q_map(top, low))


class TestPropertyStarWitness:
    @pytest.mark.parametrize("mu", ["0", "01", "0100", "10010"])
    def test_witness_past(self, mu):
        x = property_star_witness(FIB, mu)
        assert past_set(x, len(mu)) == {mu}
        assert x.orbit_position() is None

    def test_branch_prefix_witness(self):
        mu = code_word(OM, 4)
        x = property_star_witness(FIB, mu)
        assert past_set(x, 4) == {mu}
        assert x != OM.shift(4)

    def test_empty_word(self):
        x = property_star_witness(FIB, "")
        assert x.orbit_position() is None

    def test_inadmissible(self):
        with pytest.raises(ValueError):
            property_star_witness(FIB, "11")


class TestConstruction:
    def test_three_distinct_over_branch_point(self):
        i0 = thread_of(FIB, OM, 0, 2)
        c0 = construct_fibre_element(FIB, OM, "0", 0, 2)
        c1 = construct_fibre_element(FIB, OM, "1", 0, 2)
        data = {th.class_at(0, 2) for th in (i0, c0, c1)}
        assert len(data) == 3

    def test_backward_point_forced_letter(self):
        zero = OrbitPoint(FIB, 0, "L")  # the point 0.omega
        construct_fibre_element(FIB, zero, "0", 2, 4)
        with pytest.raises(ValueError):
            construct_fibre_element(FIB, zero, "1", 2, 4)

    def test_levels_are_real_classes(self):
        th = construct_fibre_element(FIB, OM, "0", 3, 6)
        for idx, c in th.levels():
            (w,) = c.past
            witness = property_star_witness(FIB, w).shift(-idx.k)
            assert eq_class(FIB, witness, idx) == c
            assert c.prefix == code_word(OM, idx.k)

    def test_q_map_compatibility_grid(self):
        th = construct_fibre_element(FIB, OM.shift(1), "1", 3, 4)
        for hi, chi in th.levels():
            for lo, clo in th.levels():
                if index_leq(lo, hi):
                    assert q_map(chi, lo) == clo

    def test_differs_from_section_at_deep_levels(self):
        c0 = construct_fibre_element(FIB, OM, "0", 2, 6)
        i0 = thread_of(FIB, OM, 2, 6)
        for (k, l), c in c0.levels():
            same = c == i0.class_at(k, l)
            assert same == (l - k < 1)

    def test_generic_point_rejected(self):
        with pytest.raises(ValueError):
            construct_fibre_element(FIB, HALF, "0", 2, 4)


class TestFibre:
    def test_branch_point(self):
        threads = fibre(FIB, OM, 2, 6)
        assert threads == {
            thread_of(FIB, OM, 2, 6),
            construct_fibre_element(FIB, OM, "0", 2, 6),
            construct_fibre_element(FIB, OM, "1", 2, 6),
        }

    def test_backward_point(self):
        zero = OrbitPoint(FIB, 0, "L")
        threads = fibre(FIB, zero, 2, 6)
        assert threads == {
            thread_of(FIB, zero, 2, 6),
            construct_fibre_element(FIB, zero, "0", 2, 6),
        }

    def test_generic_point(self):
        assert fibre(FIB, HALF, 2, 6) == {thread_of(FIB, HALF, 2, 6)}

    def test_expected_sizes(self):
        assert expected_fibre_size(OM.shift(3)) == 3
        assert expected_fibre_size(OrbitPoint(FIB, -2 * FIB, "R")) == 2
        assert expected_fibre_size(HALF) == 1

    def test_report(self):
        r = fibre_report(FIB, OM, 2, 6)
        assert r.resolved and r.count == 3

    @settings(max_examples=45, deadline=2000)
    @given(
        alpha=cf_parameters(period_digits=st.integers(1, 40)),
        j=st.integers(0, 7),
        m=st.integers(1, 3),
        t=st.fractions(0, 1, max_denominator=50).filter(lambda t: t.denominator > 1),
    )
    def test_counts_over_cf_parameters(self, alpha, j, m, t):
        # the cover theorem's 3/2/1 for sigma^j(omega), both codings of a point m
        # shifts behind omega, and a rational point, off the orbit of 0; (3, 8)
        # separates the fibres of the points with j < L = 8 and m <= K = 3
        om = branch_point(alpha)
        cases = [(om.shift(j), 3), (OrbitPoint(alpha, t), 1)]
        cases += [(OrbitPoint(alpha, alpha * (1 - m), var), 2) for var in "LR"]
        for x, count in cases:
            r = fibre_report(alpha, x, 3, 8)
            assert r.count == r.expected == count and r.resolved

    @settings(max_examples=45, deadline=2000)
    @given(
        alpha=cf_parameters(period_digits=st.integers(1, 40)),
        data=st.data(),
        L=st.integers(0, 8),
        point=st.one_of(
            st.tuples(st.just("fwd"), st.integers(0, 10)),
            st.tuples(st.sampled_from(["L", "R"]), st.integers(1, 10)),
            st.fractions(0, 1, max_denominator=50).filter(lambda t: t.denominator > 1),
        ),
    )
    def test_least_resolving_truncation(self, alpha, data, L, point):
        # (min_K, min_L) is the least truncation that resolves the fibre: (0, j + 1)
        # for sigma^j(omega), (m, m) m shifts behind omega, (0, 0) off the orbit
        K = data.draw(st.integers(0, L))
        if isinstance(point, tuple):
            side, n = point
            x = branch_point(alpha).shift(n) if side == "fwd" else OrbitPoint(alpha, alpha * (1 - n), side)
        else:
            x = OrbitPoint(alpha, point)
        rep = fibre_report(alpha, x, K, L)
        assert rep.resolved == (K >= rep.min_K and L >= rep.min_L), (rep.min_K, rep.min_L, rep.count)
        assert fibre_report(alpha, x, rep.min_K, rep.min_L).resolved
        for k, l in [(rep.min_K - 1, rep.min_L), (rep.min_K, rep.min_L - 1)]:
            if 0 <= k <= l:  # one level less on either side does not resolve
                assert not fibre_report(alpha, x, k, l).resolved, (k, l)

    def test_candidates_streamed(self):
        # the classes at (n0, 2n0) without x's prefix are dropped as they are
        # built: holding all 5*n0 + 1 of them peaked at about 20 MB here; a
        # small call first keeps the lazy imports out of the traced peak
        fibre(FIB, OM.shift(2), 3, 10)
        tracemalloc.start()
        try:
            assert len(fibre(FIB, OM.shift(2), 3, 1000)) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6, peak

    def test_candidates_found_by_prefix(self, monkeypatch):
        # only the classes with x's prefix are built: seven here, where
        # building every class at (n0, 2n0) made 5*n0 + 1 = 5,001 of them
        built, real = [], cover._classes

        def counted(*args):
            for c in real(*args):
                built.append(c)
                yield c

        monkeypatch.setattr(cover, "_classes", counted)
        assert len(fibre(FIB, OM.shift(2), 10, 1000)) == 3
        assert 3 <= len(built) <= 8, len(built)


class TestFibreFloorCounts:
    """The fibre's work counted in calls of the kernel floor, which every
    letter, arc comparison and first entry goes through: a death depth costs
    a few floors per continued-fraction level, not one per letter."""

    def test_floors_do_not_grow_with_the_death_depth(self, monkeypatch):
        counts, deepest = [], []
        real_floor, real_depths = words._floor, cover._death_depths

        def counting(*args):
            counts[-1] += 1
            return real_floor(*args)

        def recording(*args):
            depths = real_depths(*args)
            deepest[-1] = max(depths.values())
            return depths

        monkeypatch.setattr(words, "_floor", counting)
        monkeypatch.setattr(cover, "_death_depths", recording)
        for alpha in (FIB, BIG_DIGIT):
            counts.append(0)
            deepest.append(0)
            assert len(fibre(alpha, branch_point(alpha).shift(2), 3, 6)) == 3
        assert deepest[0] < 20 and deepest[1] > 10**7
        assert counts[1] <= 2 * counts[0]


class TestIsolatedDensity:
    def test_every_class_has_branch_orbit_representative(self):
        idx = IndexPair(2, 4)
        q = quotient(FIB, idx)
        bound = max(recurrence_bound(FIB, w) for w in language(FIB, 4)) + idx.l
        orbit = [OM.shift(n) for n in range(bound + 1)]
        for i in range(idx.l + 1):
            orbit.append(OrbitPoint(FIB, FIB * (-i), "L"))
            orbit.append(OrbitPoint(FIB, FIB * (-i), "R"))
        for c in q.classes:
            assert any(eq_class(FIB, z, idx) == c for z in orbit)


class TestChainConnectingMap:
    def test_symbolic_slice_matches_representative_q_map(self):
        # q_map works on the class data alone: past words trimmed to the
        # lower window and filtered by agreement with the prefix.  It must
        # agree with the class of a representative at every lower index;
        # the points n steps behind the branch point have a past word that
        # disagrees with their prefix, which only the filter removes
        rng = random.Random(40)
        for n in (2, 3, 4):
            pts = [random_point(rng) for _ in range(6)]
            pts += [OM.shift(j) for j in range(3)]
            pts += [OrbitPoint(FIB, 0, "L"), OrbitPoint(FIB, 0, "R")]
            pts += [OrbitPoint(FIB, FIB * (1 - n), var) for var in "LR"]
            for x in pts:
                c = eq_class(FIB, x, (n, 2 * n))
                for lo in grid_pairs(n, 2 * n):
                    if index_leq(lo, c.index):
                        assert q_map(c, lo) == eq_class(FIB, c.representative, lo)

    def test_candidate_enumeration_matches_quotient(self):
        # the classes at (n, 2n) asked for by a prefix are the prefix-filtered
        # classes, each once; the fibre's candidates, asked for by x's whole
        # prefix, must be the left extensions of the prefix plus the
        # branch-orbit classes, each with the same orbit point
        def table(classes):
            return {(c.prefix, c.past): c.representative for c in classes}

        for alpha in (FIB, SQRT2M1):
            for n in range(1, 7):
                zero = _zero_words(alpha, 2 * n)
                classes = set(_classes(alpha, n, *zero))
                for m in range(n + 1):
                    for prefix in sorted(language(alpha, m)):
                        got = list(_classes(alpha, n, *zero, prefix))
                        assert len(set(got)) == len(got)
                        assert table(got) == table(c for c in classes if c.prefix.startswith(prefix))
                        if m == n:
                            assert table(got) == chain_candidates(alpha, prefix, n)


class TestUniquePastLifts:
    def test_unique_backward_extension_of_generic_thread(self):
        # the thread over a unique-past point has exactly one preimage
        # thread under the induced shift, at every tested backward depth
        x = HALF
        for back in range(1, 4):
            y = OrbitPoint(FIB, x.t - FIB * back, "L")
            preimgs = fibre(FIB, y, 3, 6)
            shifted = set()
            for th in preimgs:
                s = th
                for _ in range(back):
                    s = shift_thread(s)
                shifted.add(s)
            target = thread_of(FIB, x, 3 - back, 6)
            assert sum(s == target for s in shifted) == 1


class TestBcLemma:
    def test_distinct_threads_stay_distinct_under_shifts(self):
        # threads over one base that agree after shift chains must be equal,
        # so distinct fibre elements keep distinct shifts
        threads = sorted(fibre(FIB, OM, 3, 6), key=repr)
        for i, a in enumerate(threads):
            for b in threads[i + 1 :]:
                for ka in range(3):
                    for kb in range(3):
                        sa, sb = a, b
                        for _ in range(ka):
                            sa = shift_thread(sa)
                        for _ in range(kb):
                            sb = shift_thread(sb)
                        if sa.K == sb.K:
                            assert sa != sb


def reference_levels(alpha, x, K, L, chain_variant=None):
    """Grid levels built one by one: eq_class for the section, and the
    chain word with a property-star witness for a constructed element."""
    levels = {}
    for idx in grid_pairs(K, L):
        k, l = idx
        if chain_variant is None:
            levels[idx] = eq_class(alpha, x, idx)
            continue
        chain = OrbitPoint(alpha, x.t + alpha * (k - l), chain_variant)
        w = code_word(chain, l)
        rep = property_star_witness(alpha, w).shift(-k)
        levels[idx] = EqClass(idx, code_word(x, k), frozenset({w}), rep)
    return levels


CF_0_2_3 = cf_value(parse_cf("cf:[0;2,(3)]"))
GOLDEN = QuadraticIrrational(-1, 1, 5, 2)  # (sqrt(5) - 1)/2 > 1/2
D1E6 = parse_quad("quad:-999,1,1000003,2")  # partial quotients 332, 999 and 2000


@st.composite
def points_and_grids(draw):
    alpha = draw(st.sampled_from([FIB, CF_0_2_3, GOLDEN, D1E6]))
    kind = draw(st.sampled_from(["forward", "backward", "generic"]))
    if kind == "forward":
        x = branch_point(alpha).shift(draw(st.integers(0, 4)))
    elif kind == "backward":
        m = draw(st.integers(1, 4))
        x = OrbitPoint(alpha, alpha * (1 - m), draw(st.sampled_from("LR")))
    else:
        den = draw(st.integers(2, 40))
        x = OrbitPoint(alpha, Fraction(draw(st.integers(1, den - 1)), den), "L")
    L = draw(st.integers(0, 6))
    K = draw(st.integers(0, L))
    return alpha, x, K, L


@st.composite
def composable_levels(draw):
    """A parameter and levels a <= b <= top of the projective order."""
    alpha = draw(st.sampled_from([FIB, SQRT2M1, CF_0_2_3]))
    below = lambda idx: [p for p in grid_pairs(idx.k, idx.l) if index_leq(p, idx)]
    top = draw(st.sampled_from(grid_pairs(5, 8)))
    b = draw(st.sampled_from(below(top)))
    return alpha, top, b, draw(st.sampled_from(below(b)))


class TestThreadIdentity:
    @settings(max_examples=80, deadline=None)
    @given(composable_levels())
    def test_q_map_composes(self, case):
        # the grid identity of Thread rests on this: (k, l) <= (K, K + L) <= top
        alpha, top, b, a = case
        for c in quotient(alpha, top).classes:
            assert q_map(q_map(c, b), a) == q_map(c, a)

    @settings(max_examples=40, deadline=None)
    @given(points_and_grids(), points_and_grids())
    @example((FIB, OM, 40, 40), (FIB, OM.shift(2), 40, 40))
    def test_row_identity_matches_full_family(self, case, other):
        # each thread of the pool carries its point and chain, from which the
        # reference codes its whole family, level by level
        alpha, x, K, L = case
        pos = x.orbit_position()
        letters = "" if pos is None else "01" if pos[0] == "forward" else "0" if x.variant == "L" else "1"
        chains = [None, *letters]
        elements = [thread_of(alpha, x, K, L)] + [construct_fibre_element(alpha, x, c, K, L) for c in letters]
        assert fibre(alpha, x, K, L) == set(elements)
        pool = [(th, x, c) for th, c in zip(elements, chains)]
        pool += [(Thread(x, K, L, th.grid), x, c) for th, c in zip(elements, chains)]  # the stored class as its own top
        pool += [(Thread(x, K, L, t), x, c) for t, c in zip(_tops(alpha, x, L + 2, letters), chains)]  # 2 levels deeper
        pool += [(thread_of(alpha, y, K, L), y, None) for y in (x.shift(), other[1]) if y.alpha == alpha]
        if K < L:  # a top at (n0 - 1, 2n0), off the chain levels, equal to the thread over x.shift()
            pool.append((shift_thread(thread_of(alpha, x, K + 1, L)), x.shift(), None))
        coded = {(y, c): thread_family(y, K, L, c) for _, y, c in pool}
        families = [coded[y, c] for _, y, c in pool]
        for (s, *_), fs in zip(pool, families):
            for (t, *_), ft in zip(pool, families):
                assert (s == t) == (fs == ft)
                if s == t:
                    assert hash(s) == hash(t)


class TestProjectedLevels:
    @settings(max_examples=60, deadline=None)
    @given(points_and_grids())
    def test_section_matches_per_level_classes(self, case):
        alpha, x, K, L = case
        assert dict(thread_of(alpha, x, K, L).levels()) == reference_levels(alpha, x, K, L)

    @settings(max_examples=60, deadline=None)
    @given(points_and_grids(), st.sampled_from("01"))
    def test_constructed_matches_per_level_classes(self, case, letter):
        alpha, x, K, L = case
        pos = x.orbit_position()
        assume(pos is not None)
        if pos[0] == "backward":
            letter = "0" if x.variant == "L" else "1"
            variant = x.variant
        else:
            variant = "L" if letter == "0" else "R"
        th = construct_fibre_element(alpha, x, letter, K, L)
        assert dict(th.levels()) == reference_levels(alpha, x, K, L, variant)


def _edges(alpha, L):
    """The chain level's window edges for L: b = n, n + 1, 1 - n and -n, n = max(L, 1),
    each side of a backward point, at K = L and K = 0, as keyword examples."""
    n = max(L, 1)
    cases = [(n, "L"), (n + 1, "L"), (1 - n, "L"), (1 - n, "R"), (-n, "L"), (-n, "R")]
    return [dict(alpha=alpha, L=L, K=K, b=b, side=side, off=None) for b, side in cases for K in (L, 0)]


def _with_examples(cases):
    def decorate(test):
        for case in reversed(cases):
            test = example(**case)(test)
        return test

    return decorate


class TestClassesReadOffOnePast:
    """eq_class reads a class's prefix, and _tops each chain's top, off one past set.

    The oracle codes by field arithmetic: x's prefix, its past by walking back
    along shift preimages, and each chain's top as the coded window of 2n
    letters of the chain point (b - n)*alpha on the chain's side, n = max(L, 1).
    """

    @settings(max_examples=25, deadline=None)
    @given(
        alpha=cf_parameters(period_digits=st.integers(1, 40)),
        L=st.integers(0, 6),
        K=st.integers(0, 6),
        b=st.integers(-18, 18),
        side=st.sampled_from("LR"),
        off=st.none() | st.fractions(0, 1, max_denominator=30).filter(lambda t: t.denominator > 1),
    )
    @_with_examples(_edges(FIB, 3) + _edges(FIB, 0))
    def test_match_the_codings(self, alpha, L, K, b, side, off):
        # an orbit point b*alpha, |b| <= 3n, or a point off + b*alpha off the orbit of 0
        n, K = max(L, 1), min(K, L)
        b = max(-3 * n, min(3 * n, b))
        x = OrbitPoint(alpha, alpha * b if off is None else off + alpha * b, side)
        prefix = reference.code_word(x, 12)
        for k, l in grid_pairs(12, 12):
            want = EqClass(IndexPair(k, l), prefix[:k], reference.past_set(x.shift(k), l))
            assert eq_class(alpha, x, (k, l)) == want, (k, l)
        tops = {eq_class(alpha, x, (n, 2 * n))}
        for letter, variant in zip("01", "LR"):
            # chains run through both preimages of the branch point behind a forward
            # point, through its own side behind a backward point, and off the orbit none
            if off is None and (b >= 1 or variant == x.variant):
                window = reference.code_word(OrbitPoint(alpha, alpha * (b - n), variant), 2 * n)
                top = EqClass(IndexPair(n, 2 * n), window[n:], frozenset({window}))
                assert _tops(alpha, x, L, letter)[1] == top
                assert construct_fibre_element(alpha, x, letter, K, L) == Thread(x, K, L, top)
                tops.add(top)
            else:
                with pytest.raises(ValueError):
                    construct_fibre_element(alpha, x, letter, K, L)
        assert fibre(alpha, x, K, L) == {Thread(x, K, L, top) for top in tops}


@st.composite
def fibre_points(draw):
    """A base point of every kind, with a chain level n0, on a parameter with small
    partial quotients, one above 1/2 or one with partial quotients in the hundreds."""
    alpha = draw(st.sampled_from([FIB, SQRT2M1, CF_0_2_3, GOLDEN, parse_quad("quad:-7,1,61,3"), D1E6]))
    kind = draw(st.sampled_from(["forward", "backward", "rational", "quadratic"]))
    if kind == "forward":
        x = branch_point(alpha).shift(draw(st.integers(0, 9)))
    elif kind == "backward":
        x = OrbitPoint(alpha, alpha * (1 - draw(st.integers(1, 9))), draw(st.sampled_from("LR")))
    else:
        den = draw(st.integers(1, 40))
        t = Fraction(draw(st.integers(0, den - 1)), den)
        if kind == "quadratic":
            t += alpha * draw(st.integers(-4, 4).filter(bool)) / draw(st.integers(1, 5))
        x = OrbitPoint(alpha, t, draw(st.sampled_from("LR")))
    return alpha, x, draw(st.integers(1, 7))


class TestDeathDepths:
    @settings(max_examples=120, deadline=None)
    @given(fibre_points())
    def test_match_the_letter_walk(self, case):
        alpha, x, n0 = case
        candidates = chain_candidates(alpha, code_word(x, n0), n0)
        walked = death_depths_by_walk(alpha, x, n0, candidates, 400)
        idx = IndexPair(n0, 2 * n0)
        want = {EqClass(idx, *data, candidates[data]): depth for data, depth in walked.items()}
        assert _death_depths(x, n0, want, *_zero_words(alpha, 2 * n0)) == want


class TestForeignPoint:
    # every entry point that takes a parameter and a point rejects a point of
    # another parameter, whichever chain its thread would follow
    CALLS = {
        "eq_class": lambda x: eq_class(SQRT2M1, x, (1, 2)),
        "thread_of": lambda x: thread_of(SQRT2M1, x, 3, 6),
        "fibre": lambda x: fibre(SQRT2M1, x, 3, 6),
        "fibre_report": lambda x: fibre_report(SQRT2M1, x, 3, 6),
        "class_of": lambda x: eq_class(SQRT2M1, x, (1, 2)) in quotient(SQRT2M1, (1, 2)).classes,
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("x", [OM.shift(2), HALF], ids=["forward", "generic"])
    def test_rejected(self, name, x):
        with pytest.raises(ValueError, match="point belongs to a different parameter"):
            self.CALLS[name](x)

    @pytest.mark.parametrize("letter", "01")
    def test_constructed_element_rejected(self, letter):
        # the parameter is checked before the point's orbit: off the orbit
        # too, a foreign point is rejected as foreign
        for x in (OM.shift(2), HALF):
            with pytest.raises(ValueError, match="point belongs to a different parameter"):
                construct_fibre_element(SQRT2M1, x, letter, 3, 6)

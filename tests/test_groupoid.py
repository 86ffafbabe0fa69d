import json
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sturmian.arcs import recurrence_bound
from sturmian.quadratics import QuadraticIrrational, parse_quad
from sturmian.words import language
from sturmian.groupoid import DadWitness, _longest_chain, check_witness, dad_witness, degenerate_cover_chain

import reference
from test_kernel import cf_parameters, unfactored_value

FIB = QuadraticIrrational(3, -1, 5, 2)
SQRT2M1 = QuadraticIrrational(-1, 1, 2, 1)
GOLDEN_CONJ = QuadraticIrrational(-1, 1, 5, 2)
# the witness search's parameters: FIB, sqrt(2) - 1, (sqrt(13) - 1)/6, (sqrt(61) - 7)/3
SEARCHED = [FIB, SQRT2M1, QuadraticIrrational(-1, 1, 13, 6), QuadraticIrrational(-7, 1, 61, 3)]
# dad_witness on those four for F = {1..lbar}, lbar <= 40, and F = {lbar} at 100 and 200, as
# (mu, nu, beta_mu, beta_nu); the rows with a pair of length 2*lbar were recorded from the
# search before it took two substring tests per pair, the others from reference.witness_words
# and reference.recurrence_bound; "check" is [max_first_hit, max_chain_V, max_chain_U] at
# min_window, recorded from the per-start scan and least-end DP that the int position sets replaced
PINNED = json.loads((Path(__file__).parent / "dad_pinned.json").read_text())


class TestDadWitness:
    def test_fibonacci_smallest(self):
        w = dad_witness(FIB, [1])
        assert w.lbar == 1
        assert (w.mu, w.nu) == ("00", "01")
        assert w.beta_mu == recurrence_bound(FIB, "00")

    def test_validation(self):
        # one rule and one message for the witness and the one-set chain
        for values in [(), (0,), (0, 0), (-1, 2), (-3,), (-2, 0)]:
            with pytest.raises(ValueError, match="nonnegative") as witness_error:
                dad_witness(FIB, values)
            with pytest.raises(ValueError) as chain_error:
                degenerate_cover_chain(FIB, values, 44)
            assert str(chain_error.value) == str(witness_error.value)

    def test_longer_words_without_a_pair_at_2lbar(self):
        # no two words of length 22 have disjoint shift cylinders, so the search takes 23
        w = dad_witness(FIB, [11])
        assert (len(w.mu), len(w.nu)) == (23, 23)
        assert reference.shift_cylinders_disjoint(w.mu, w.nu, w.lbar)
        assert check_witness(FIB, w, w.min_window).passed

    def test_pinned_sweep(self):
        for row in PINNED:
            w = dad_witness(parse_quad(row["alpha"]), row["F"])
            assert [w.mu, w.nu, w.beta_mu, w.beta_nu] == row["witness"], (row["alpha"], row["F"])

    @pytest.mark.parametrize("alpha", [FIB, SQRT2M1])
    @pytest.mark.parametrize("values", [(1,), (1, 2), (1, 2, 3)])
    def test_cylinder_arcs_disjoint(self, alpha, values):
        w = dad_witness(alpha, values)
        assert reference.shift_cylinders_disjoint(w.mu, w.nu, w.lbar)
        for wm in reference.shifts(w.mu, w.lbar):
            for wn in reference.shifts(w.nu, w.lbar):
                am = reference.word_arc(alpha, wm)
                an = reference.word_arc(alpha, wn)
                assert reference.intersect_arcs(am, an) is None

    def test_words_admissible_with_distinct_suffixes(self):
        for values in [(1,), (2,), (1, 3)]:
            w = dad_witness(FIB, values)
            assert w.mu in language(FIB, len(w.mu))
            assert w.nu in language(FIB, len(w.nu))
            assert w.mu[w.lbar :] != w.nu[w.lbar :]


def two_substring_tests(mu, nu, lbar):
    return mu[lbar - 1 :] not in nu and nu[lbar - 1 :] not in mu


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.one_of(st.sampled_from(SEARCHED), cf_parameters(period_digits=st.integers(1, 40))),
    lbar=st.integers(1, 8),
)
def test_two_substring_tests_match_every_shift_pair(alpha, lbar):
    # the rule holds for every common length m >= lbar, not only m = 2*lbar
    for m in range(lbar, 2 * lbar + 5):
        words = sorted(language(alpha, m))
        for mu in words:
            for nu in words:
                assert two_substring_tests(mu, nu, lbar) == reference.shift_cylinders_disjoint(
                    mu, nu, lbar
                ), (mu, nu)
    w = dad_witness(alpha, [lbar])
    assert (w.mu, w.nu) == reference.witness_words(alpha, lbar)


@settings(max_examples=20, deadline=None)
@given(alpha=cf_parameters(period_digits=st.integers(1, 40)), lbar=st.integers(1, 12))
@example(alpha=FIB, lbar=11)  # least length 23
@example(alpha=QuadraticIrrational(-7, 1, 61, 3), lbar=8)  # 18
@example(alpha=unfactored_value((0,), (19, 2, 27, 36)), lbar=11)  # 29
def test_lengths_with_a_pair_are_those_from_the_least(alpha, lbar):
    # a pair at m gives one at m + 1 (dad_witness), so doubling and bisecting find the least
    w = dad_witness(alpha, [lbar])
    lengths = range(2 * lbar, len(w.mu) + 4)
    assert [reference.has_pair(alpha, lbar, m) for m in lengths] == [m >= len(w.mu) for m in lengths]
    assert (w.mu, w.nu) == reference.witness_words(alpha, lbar)


class TestCheckWitness:
    def test_window_precondition(self):
        w = dad_witness(FIB, [1])
        with pytest.raises(ValueError):
            check_witness(FIB, w, 3)

    @pytest.mark.parametrize("values", [(1,), (1, 2), (1, 2, 3)])
    def test_min_window(self, values):
        w = dad_witness(FIB, values)
        assert w.min_window == len(w.mu) * max(w.beta_mu, w.beta_nu)
        with pytest.raises(ValueError, match=f"^window must be at least {w.min_window}$"):
            check_witness(FIB, w, w.min_window - 1)
        assert check_witness(FIB, w, w.min_window).window == w.min_window

    @pytest.mark.parametrize("alpha", [FIB, SQRT2M1])
    @pytest.mark.parametrize("values", [(1,), (1, 2), (1, 2, 3)])
    def test_passes_with_bounded_chains(self, alpha, values):
        w = dad_witness(alpha, values)
        window = w.min_window
        chk = check_witness(alpha, w, window)
        assert chk.passed
        assert chk.max_chain_v <= w.beta_mu
        assert chk.max_chain_u <= w.beta_nu
        assert chk.cocycle_bound <= 2 * w.lbar * max(w.beta_mu, w.beta_nu)

    def test_every_pinned_row_at_min_window(self):
        for row in PINNED:
            w = DadWitness(tuple(row["F"]), *row["witness"])
            chk = check_witness(parse_quad(row["alpha"]), w, w.min_window)
            assert chk.passed, (row["alpha"], row["F"])
            assert [chk.max_first_hit, chk.max_chain_v, chk.max_chain_u] == row["check"], (row["alpha"], row["F"])

    def test_every_window_is_covered(self):
        w = dad_witness(FIB, [1])
        chk = check_witness(FIB, w, 20)
        assert chk.covered and chk.max_first_hit <= w.beta_mu

    def test_single_set_cover_has_unbounded_chains(self):
        for values in [(1,), (1, 2)]:
            w = dad_witness(FIB, values)
            window = w.min_window
            deg = degenerate_cover_chain(FIB, values, window)
            assert deg > window // 2
            assert deg > check_witness(FIB, w, window).max_chain_v

    def test_degenerate_chain_rejects_negative_values(self):
        # as dad_witness does, before any chain is counted
        with pytest.raises(ValueError, match="nonnegative"):
            degenerate_cover_chain(FIB, [-1, 2], 44)

    def test_report_dict_schema(self):
        w = dad_witness(FIB, [1])
        d = check_witness(FIB, w, 16).to_dict()
        assert set(d) >= {"F", "mu", "nu", "beta_mu", "max_chain_V", "cocycle_bound", "pass"}
        assert d["F"] == [1] and d["pass"] is True


class TestWindowScanMatchesReference:
    """The scan on int position sets against the start-by-start scan and
    dict DP it replaced."""

    # [0; 3, (1)] reads 000, so the witness word 00 occurs at overlapping starts
    @pytest.mark.parametrize("alpha", [FIB, SQRT2M1, GOLDEN_CONJ, QuadraticIrrational(5, -1, 5, 10)])
    @pytest.mark.parametrize(
        "values", [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
    )
    def test_same_witness_check(self, alpha, values):
        w = dad_witness(alpha, values)
        for window in (w.min_window, w.min_window + 5):
            assert check_witness(alpha, w, window) == reference.check_witness(alpha, w, window)
            jumps = [v for v in values if v >= 1]
            assert degenerate_cover_chain(alpha, values, window) == reference.longest_chain(
                set(range(window - 2 * w.lbar + 1)), jumps
            )


@settings(max_examples=200, deadline=None)
@given(
    allowed=st.lists(st.booleans(), max_size=120),
    jumps=st.sets(st.integers(1, 8), min_size=1),
    span=st.integers(0, 120),
)
def test_chain_pass_matches_chains_within_the_span(allowed, jumps, span):
    # spans up to the list's length, so on some draws the longest chain fits the
    # span and on others the pass takes one stretch per start
    jumps = sorted(jumps)
    bits = sum(1 << p for p, ok in enumerate(allowed) if ok)
    assert _longest_chain(bits, jumps, span) == reference.longest_spanned_chain(allowed, jumps, span)


def test_chain_pass_keeps_the_span():
    # at window 5 a chain may span 1 position, which no jump of 2 fits; a pass that
    # ignored the span would count the steps 0 -> 2 on the V side and 4 -> 6 on the
    # U side (hypothesis seed 7 drew this lowered witness)
    w = DadWitness((2,), "0101", "0110", 1, 1)
    chk = check_witness(GOLDEN_CONJ, w, 5)
    assert (chk.max_chain_v, chk.max_chain_u) == (0, 0)
    assert chk == reference.check_witness(GOLDEN_CONJ, w, 5)


@settings(max_examples=10, deadline=None)
@given(
    data=st.data(),
    # period digits up to 40 keep most windows within the 400 letters that the
    # oracle's window scan reads quickly; huge partial quotients come from the preperiod
    alpha=cf_parameters(period_digits=st.integers(1, 40)),
    values=st.builds(lambda v, rest: {v} | rest, st.integers(1, 4), st.sets(st.integers(0, 4))),
)
def test_one_word_scan_matches_window_scan(data, alpha, values):
    # tiny and huge partial quotients; lowered betas make the check fail and
    # shrink the window below the chains' spans
    w = dad_witness(alpha, values)
    assume(w.min_window <= 400)
    b_mu, b_nu = data.draw(st.integers(1, w.beta_mu)), data.draw(st.integers(1, w.beta_nu))
    lowered = DadWitness(w.cocycle_values, w.mu, w.nu, b_mu, b_nu)
    jumps = [v for v in values if v >= 1]
    for v in (w, lowered):
        for window in (v.min_window, v.min_window + 1, v.min_window + data.draw(st.integers(2, 40))):
            assert check_witness(alpha, v, window) == reference.check_witness(alpha, v, window)
    for window in (0, 2 * w.lbar - 1, data.draw(st.integers(0, w.min_window + 40))):
        limit = window - 2 * w.lbar
        assert degenerate_cover_chain(alpha, values, window) == reference.longest_chain(
            set(range(limit + 1)), jumps
        )


@settings(max_examples=40, deadline=5000)
@given(
    # period digits up to 40, as in the window scan above; at hypothesis seeds 1-4 each
    # check of a window up to 40,000 letters took at most 54 ms on a 2-core VM
    alpha=cf_parameters(period_digits=st.integers(1, 40)),
    values=st.builds(lambda v, rest: {v} | rest, st.integers(1, 12), st.sets(st.integers(0, 12))),
)
def test_dad_over_cf_parameters(alpha, values):
    # every F has a witness, of length at least 2*lbar, and it passes its own check
    w = dad_witness(alpha, values)
    assert len(w.mu) == len(w.nu) >= 2 * w.lbar
    assert reference.shift_cylinders_disjoint(w.mu, w.nu, w.lbar)
    # a huge preperiod digit gives betas near 10^6 and windows of 10^7 letters
    assume(w.min_window <= 40_000)
    assert check_witness(alpha, w, w.min_window).passed

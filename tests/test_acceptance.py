"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

from sturmian.arcs import recurrence_bound
from sturmian.cli import main as cli_main
from sturmian.quadratics import QuadraticIrrational
from sturmian.words import OrbitPoint, branch_point, code_word, language, past_set, preimages
from sturmian.cover import (
    IndexPair,
    eq_class,
    fibre,
    fibre_report,
    index_leq,
    property_star_witness,
    q_map,
    quotient,
    shift_thread,
)
from sturmian.groupoid import check_witness, dad_witness, degenerate_cover_chain
from sturmian.invariants import ContinuedFraction, cf_expand, conjugate, flow_equivalent

FIB = QuadraticIrrational(3, -1, 5, 2)  # (3 - sqrt5)/2
GOLDEN_CONJ = QuadraticIrrational(-1, 1, 5, 2)  # (sqrt5 - 1)/2
SQRT2M1 = QuadraticIrrational(-1, 1, 2, 1)  # sqrt2 - 1
THREE_PARAMETERS = [FIB, SQRT2M1, GOLDEN_CONJ]
TWO_PARAMETERS = [FIB, SQRT2M1]

GENERIC_POINTS = [
    Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(3, 7), Fraction(1, 7),
    Fraction(5, 12), Fraction(7, 9), Fraction(9, 11), Fraction(4, 13), Fraction(8, 15),
]


@contextmanager
def criterion(number, description, limit_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL: {description}")
        raise
    elapsed = time.monotonic() - start
    if elapsed >= limit_seconds:
        print(f"criterion {number:2d} FAIL: {description} (took {elapsed:.2f}s, limit {limit_seconds}s)")
        raise AssertionError(f"criterion {number} exceeded its {limit_seconds}s budget")
    print(f"criterion {number:2d} PASS: {description} [{elapsed:.2f}s < {limit_seconds}s]")


def test_criterion_01_fibonacci_prefix(capsys):
    with criterion(1, "omega CLI emits the Fibonacci prefix 0100101001", 1.0):
        code = cli_main(["omega", "--alpha", "quad:3,-1,5,2", "--n", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "0100101001\n"


def test_criterion_02_continued_fraction():
    with criterion(2, "cf_expand((3-sqrt5)/2) = [0;2,(1)] exactly", 1.0):
        assert cf_expand(FIB) == ContinuedFraction((0, 2), (1,))


def test_criterion_03_factor_complexity():
    with criterion(3, "|language(alpha,n)| = n+1 for n=1..64, three parameters", 30.0):
        for alpha in THREE_PARAMETERS:
            for n in range(1, 65):
                assert len(language(alpha, n)) == n + 1


def test_criterion_04_left_special_uniqueness():
    with criterion(4, "exactly one left-special factor per length, the branch prefix", 30.0):
        for alpha in THREE_PARAMETERS:
            om = branch_point(alpha)
            for n in range(1, 65):
                lang_next = language(alpha, n + 1)
                special = [
                    w
                    for w in language(alpha, n)
                    if ("0" + w in lang_next) and ("1" + w in lang_next)
                ]
                assert special == [code_word(om, n)]


def test_criterion_05_branch_structure():
    with criterion(5, "preimages(omega) = {0.omega, 1.omega}; displayed pasts k=0..6", 5.0):
        for alpha in TWO_PARAMETERS:
            om = branch_point(alpha)
            pre = preimages(om)
            assert {(p.t, p.variant) for p in pre} == {(Fraction(0), "L"), (Fraction(0), "R")}
            assert {code_word(p, 8) for p in pre} == {
                "0" + code_word(om, 7),
                "1" + code_word(om, 7),
            }
            for k in range(7):
                w = code_word(om, k)
                assert past_set(om.shift(k), k + 1) == {"0" + w, "1" + w}


def test_criterion_06_fibre_theorem():
    with criterion(6, "fibre counts 3/2/1 at (K,L)=(4,10), both parameters", 300.0):
        for alpha in TWO_PARAMETERS:
            om = branch_point(alpha)
            for j in range(5):
                rep = fibre_report(alpha, om.shift(j), 4, 10)
                assert rep.count == 3 and rep.resolved
            for m in range(1, 5):
                for var in ("L", "R"):
                    x = OrbitPoint(alpha, alpha * (1 - m), var)
                    rep = fibre_report(alpha, x, 4, 10)
                    assert rep.count == 2 and rep.resolved
            for t in GENERIC_POINTS:
                rep = fibre_report(alpha, OrbitPoint(alpha, t, "L"), 4, 10)
                assert rep.count == 1 and rep.resolved


def test_criterion_07_projective_coherence():
    with criterion(7, "q_map surjectivity and monotone refinement on a 5x5 grid", 120.0):
        import random

        grid = [IndexPair(k, l) for k in range(5) for l in range(k, 5)]
        for hi in grid:
            q_hi = quotient(FIB, hi)
            for lo in grid:
                if lo != hi and index_leq(lo, hi):
                    assert {q_map(c, lo) for c in q_hi.classes} == quotient(FIB, lo).classes
        rng = random.Random(515151)
        for _ in range(200):
            t = Fraction(rng.randint(1, 10**9), 10**9 + 7)
            x = OrbitPoint(FIB, t, "L")
            hi = rng.choice(grid)
            # another point of x's class at hi: its k-th shift has x's one past there
            c = eq_class(FIB, x, hi)
            assert c in quotient(FIB, hi).classes
            (u,) = c.past
            y = property_star_witness(FIB, u).shift(-hi.k)
            assert y != x
            assert eq_class(FIB, x, hi) == eq_class(FIB, y, hi)
            for lo in grid:
                if index_leq(lo, hi):
                    assert eq_class(FIB, x, lo) == eq_class(FIB, y, lo)


def test_criterion_08_isolated_density():
    with criterion(8, "every class of quotient(2,4) has a branch-orbit representative", 120.0):
        for alpha in TWO_PARAMETERS:
            idx = IndexPair(2, 4)
            q = quotient(alpha, idx)
            bound = max(recurrence_bound(alpha, w) for w in language(alpha, idx.l)) + idx.l
            om = branch_point(alpha)
            orbit = [om.shift(n) for n in range(bound + 1)]
            for i in range(idx.l + 1):
                orbit.append(OrbitPoint(alpha, alpha * (-i), "L"))
                orbit.append(OrbitPoint(alpha, alpha * (-i), "R"))
            for c in q.classes:
                assert any(eq_class(alpha, z, idx) == c for z in orbit)


def test_criterion_09_dad_witness():
    with criterion(9, "two-set witness passes for F in {1},{1,2},{1,2,3}; one set fails", 300.0):
        for alpha in TWO_PARAMETERS:
            for values in [(1,), (1, 2), (1, 2, 3)]:
                w = dad_witness(alpha, values)
                window = w.min_window
                chk = check_witness(alpha, w, window)
                assert chk.passed
                assert max(chk.max_chain_v, chk.max_chain_u) <= 2 * w.lbar * w.beta_mu
                degenerate = degenerate_cover_chain(alpha, values, window)
                assert degenerate > window // 2


def test_criterion_10_deciders():
    with criterion(10, "conjugacy/flow deciders and equivalence axioms on 20 parameters", 10.0):
        assert conjugate(FIB, GOLDEN_CONJ) is True
        assert flow_equivalent(FIB, SQRT2M1) is False
        corpus = [FIB, GOLDEN_CONJ, SQRT2M1]
        for d in (2, 3, 5, 6, 7, 10, 11, 13, 17):
            r = QuadraticIrrational(0, 1, d, 1)
            corpus.append(r - math.floor(r))
            s = (1 + r) * Fraction(1, 3)
            corpus.append(s - math.floor(s))
        corpus = sorted({x for x in corpus if x > 0 and x < 1}, key=str)[:20]
        assert len(corpus) == 20
        for rel in (conjugate, flow_equivalent):
            for a in corpus:
                assert rel(a, a)
                for b in corpus:
                    assert rel(a, b) == rel(b, a)
                    for c in corpus:
                        if rel(a, b) and rel(b, c):
                            assert rel(a, c)
        for a in corpus:
            for b in corpus:
                if conjugate(a, b):
                    assert flow_equivalent(a, b)


def test_criterion_11_shift_carries_fibres():
    with criterion(11, "shift_thread maps the fibres over preimages(y) onto the fibre over y, (K,L)=(4,10)", 5.0):
        for alpha in TWO_PARAMETERS:
            om = branch_point(alpha)
            points = [om.shift(j) for j in range(4)]
            points += [OrbitPoint(alpha, alpha * (1 - m), var) for m in range(1, 4) for var in ("L", "R")]
            points += [OrbitPoint(alpha, t, "L") for t in (Fraction(1, 2), Fraction(2, 5))]
            for y in points:
                image = {shift_thread(th) for x in preimages(y) for th in fibre(alpha, x, 5, 10)}
                assert image == fibre(alpha, y, 4, 10)

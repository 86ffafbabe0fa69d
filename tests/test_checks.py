"""Every argument check of the library raises its documented error.

Each row is (call, exception, message fragment) for a check that the rest
of the suite never reaches.  Guards that only an arithmetic bug could trip
are left out: no input reaches them.
"""

import re
from fractions import Fraction

import pytest

from sturmian.cover import EqClass, IndexPair, Thread, construct_fibre_element, shift_thread, thread_of
from sturmian.quadratics import QuadraticIrrational
from sturmian.arcs import _first_entry
from sturmian.words import OrbitPoint, branch_point, code_word, language, past_set

FIB = QuadraticIrrational(3, -1, 5, 2)
OM = branch_point(FIB)
HALF = OrbitPoint(FIB, Fraction(1, 2))
HALF_R = OrbitPoint(FIB, Fraction(1, 2), "R")
ZERO_R = OrbitPoint(FIB, 0, "R")
TOP = EqClass(IndexPair(2, 4), "01", frozenset({"0100"}))

CHECKS = {
    "EqClass prefix": (lambda: EqClass(IndexPair(1, 2), "", frozenset({"00"})), ValueError, "prefix length"),
    "EqClass past count": (lambda: EqClass(IndexPair(1, 2), "0", frozenset()), ValueError, "one or two"),
    "EqClass past length": (lambda: EqClass(IndexPair(1, 2), "0", frozenset({"0"})), ValueError, "length l"),
    "Thread K above L": (lambda: Thread(OM, 3, 2, TOP), ValueError, "0 <= K <= L"),
    "class_at outside": (lambda: thread_of(FIB, OM, 1, 3).class_at(2, 3), KeyError, "outside the truncation"),
    "shift_thread K=0": (lambda: shift_thread(thread_of(FIB, OM, 0, 3)), ValueError, "K >= 1"),
    "past letter": (lambda: construct_fibre_element(FIB, OM, "2", 1, 3), ValueError, "'0' or '1'"),
    "variant": (lambda: OrbitPoint(FIB, Fraction(1, 2), "X"), ValueError, "variant must be"),
    "code_word length": (lambda: code_word(OM, -1), ValueError, "nonnegative"),
    "language length": (lambda: language(FIB, -1), ValueError, "nonnegative"),
    "past_set depth": (lambda: past_set(OM, -1), ValueError, "nonnegative"),
    "empty arc": (lambda: _first_entry(HALF, HALF), ValueError, "no cut point"),
    "empty arc at a cut point": (lambda: _first_entry(ZERO_R, ZERO_R), ValueError, "no cut point"),
    # off the coding boundary the R record is HALF itself, so this arc is empty too
    "empty arc from two sides": (lambda: _first_entry(HALF, HALF_R), ValueError, "no cut point"),
    "radicand": (lambda: QuadraticIrrational(1, 1, -5, 2), ValueError, "radicand must be positive"),
}


@pytest.mark.parametrize("call,error,fragment", CHECKS.values(), ids=CHECKS.keys())
def test_check_raises(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()

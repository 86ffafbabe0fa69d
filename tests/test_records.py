"""The value classes are immutable records: equal by value, hashable, frozen, picklable."""

import copy
import pickle
from fractions import Fraction

import pytest

from sturmian.quadratics import QuadraticIrrational
from sturmian.arcs import cylinder_arc
from sturmian.words import OrbitPoint, branch_point
from sturmian.cover import EqClass, eq_class, fibre_report, quotient, thread_of
from sturmian.groupoid import DadWitness, check_witness, dad_witness
from sturmian.invariants import Moebius, OrderedGroupDescriptor, cf_expand, compare_parameters

FIB = QuadraticIrrational(3, -1, 5, 2)
SQRT2M1 = QuadraticIrrational(-1, 1, 2, 1)
HALF = Fraction(1, 2)


def _witness_check():
    w = dad_witness(FIB, {1, 2})
    return check_witness(FIB, w, w.min_window)


# each record from real calls, twice, once more with other values, and its fields in order
RECORDS = {
    "QuadraticIrrational": (
        lambda: QuadraticIrrational(3, -1, 5, 2),
        lambda: QuadraticIrrational(-1, 1, 5, 2),
        ("p", "q", "d", "r"),
    ),
    "ContinuedFraction": (lambda: cf_expand(FIB), lambda: cf_expand(SQRT2M1), ("preperiod", "period")),
    "Moebius": (
        lambda: Moebius(1, 1, 0, 1) @ Moebius(0, 1, 1, 0),
        lambda: Moebius(0, 1, 1, 0) @ Moebius(1, 1, 0, 1),
        ("a", "b", "c", "d"),
    ),
    "OrbitPoint": (
        lambda: OrbitPoint(FIB, HALF),
        lambda: OrbitPoint(FIB, HALF).shift(),
        ("alpha", "a", "b", "c", "variant"),
    ),
    "Arc": (lambda: cylinder_arc(FIB, "01"), lambda: cylinder_arc(FIB, "10"), ("alpha", "lo_tag", "hi_tag")),
    "EqClass": (
        lambda: eq_class(FIB, branch_point(FIB), (2, 4)),
        lambda: eq_class(FIB, OrbitPoint(FIB, HALF), (2, 4)),
        ("index", "prefix", "past", "representative"),
    ),
    "FiniteQuotient": (
        lambda: quotient(FIB, (1, 2)),
        lambda: quotient(FIB, (1, 3)),
        ("alpha", "index", "classes"),
    ),
    "FibreReport": (
        lambda: fibre_report(FIB, branch_point(FIB), 2, 4),
        lambda: fibre_report(FIB, OrbitPoint(FIB, HALF), 2, 4),
        ("point", "K", "L", "threads", "expected", "min_K", "min_L"),
    ),
    "Thread": (
        lambda: thread_of(FIB, branch_point(FIB), 2, 4),
        lambda: thread_of(FIB, OrbitPoint(FIB, HALF), 2, 4),
        ("base", "K", "L", "grid"),
    ),
    "DadWitness": (
        lambda: dad_witness(FIB, {1, 2}),
        lambda: dad_witness(FIB, {1, 2, 3}),
        ("cocycle_values", "mu", "nu", "beta_mu", "beta_nu"),
    ),
    "WitnessCheck": (
        _witness_check,
        lambda: check_witness(FIB, dad_witness(FIB, {1, 2}), 100),
        ("witness", "window", "covered", "max_first_hit", "max_chain_v", "max_chain_u", "cocycle_bound"),
    ),
    "OrderedGroupDescriptor": (
        lambda: OrderedGroupDescriptor(FIB),
        lambda: OrderedGroupDescriptor(SQRT2M1),
        ("alpha",),
    ),
    "InvariantReport": (
        lambda: compare_parameters(FIB, QuadraticIrrational(-1, 1, 5, 2)),
        lambda: compare_parameters(FIB, SQRT2M1),
        ("alpha", "beta", "conjugate", "flow_equivalent"),
    ),
}
CASES = pytest.mark.parametrize("name", sorted(RECORDS))


@CASES
def test_equal_by_value(name):
    make, other, _ = RECORDS[name]
    x, y = make(), make()
    assert type(x).__name__ == name
    assert x is not y and x == y and hash(x) == hash(y)
    assert not x != y
    assert x != other() and x != object()
    assert len({x, y, other()}) == 2


@CASES
def test_frozen(name):
    make, _, fields = RECORDS[name]
    x = make()
    for field in fields:
        value = getattr(x, field)
        with pytest.raises(AttributeError):
            setattr(x, field, value)
        with pytest.raises(AttributeError):
            delattr(x, field)
        assert getattr(x, field) is value


@CASES
def test_repr_names_the_fields(name):
    make, _, fields = RECORDS[name]
    x = make()
    parts = ", ".join(f"{field}={getattr(x, field)!r}" for field in fields)
    assert repr(x) == f"{name}({parts})"


@CASES
@pytest.mark.parametrize(
    "round_trip",
    [
        copy.copy,
        copy.deepcopy,
        lambda x: pickle.loads(pickle.dumps(x)),
        lambda r: type(r)._at(tuple(getattr(r, f) for f in r._fields)),
    ],
    ids=["copy", "deepcopy", "pickle", "trusted"],
)
def test_copies_are_equal(name, round_trip):
    make, _, fields = RECORDS[name]
    x = make()
    y = round_trip(x)
    assert type(y) is type(x) and y == x and hash(y) == hash(x)
    assert [getattr(y, field) for field in fields] == [getattr(x, field) for field in fields]
    with pytest.raises(AttributeError):
        setattr(y, fields[0], getattr(y, fields[0]))


def test_quadratic_repr():
    assert repr(QuadraticIrrational(3, -1, 5, 2)) == "QuadraticIrrational(p=3, q=-1, d=5, r=2)"


def test_class_equality_ignores_the_representative():
    c = eq_class(FIB, branch_point(FIB), (2, 4))
    bare = EqClass(c.index, c.prefix, c.past)
    assert c.representative is not None and bare.representative is None
    assert bare == c and hash(bare) == hash(c)
    assert EqClass(c.index, c.prefix, c.past, OrbitPoint(FIB, HALF)) == c


def test_a_point_keeps_its_side_only_on_the_coding_boundary():
    # off the boundary the R record is the L one, so one element has one record
    for x in (OrbitPoint(FIB, HALF, "R"), OrbitPoint(FIB, FIB, "R"), OrbitPoint._at((FIB, 1, 1, 3, "R"))):
        assert x == OrbitPoint(FIB, x.t) and hash(x) == hash(OrbitPoint(FIB, x.t)) and x.variant == "L"
    for t in (0, -FIB, 2 - 3 * FIB):
        assert OrbitPoint(FIB, t, "R") != OrbitPoint(FIB, t) and OrbitPoint(FIB, t, "R").variant == "R"


def test_a_wrong_field_count_is_a_type_error():
    w = dad_witness(FIB, {1, 2})
    with pytest.raises(TypeError):
        DadWitness(w.cocycle_values, w.mu, w.nu, w.beta_mu)
    with pytest.raises(TypeError):
        Moebius(1, 0, 0, 1, 0)

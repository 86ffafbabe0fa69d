"""Exact-arithmetic toolkit for Sturmian subshifts.

Coding of circle rotations by quadratic irrationals, the finite
prefix/past quotients and their projective structure, fibres of the
cover's factor map, groupoid chain bounds, and the conjugacy and
flow-equivalence deciders.

The exported names are bound on first use (PEP 562): ``import sturmian``
loads no submodule, and looking up a name imports only its home module.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "quadratics": (
        "BudgetExceededError", "QuadraticIrrational", "RationalValueError", "format_quad", "parse_quad",
    ),
    "words": ("OrbitPoint", "branch_point", "code_word", "language", "past_set", "preimages"),
    "arcs": ("Arc", "cylinder_arc", "recurrence_bound"),
    "cover": (
        "EqClass", "FiniteQuotient", "IndexPair", "Thread", "construct_fibre_element", "eq_class",
        "expected_fibre_size", "fibre", "fibre_report", "index_leq", "property_star_witness",
        "q_map", "quotient", "shift_map", "shift_thread", "thread_of",
    ),
    "groupoid": ("DadWitness", "check_witness", "dad_witness", "degenerate_cover_chain"),
    "invariants": (
        "ContinuedFraction", "InvariantReport", "Moebius", "OrderedGroupDescriptor", "cf_expand", "cf_value",
        "compare_parameters", "conjugate", "flow_equivalent", "parse_cf",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)  # the import binds it here too
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # bound here once resolved, so later lookups skip this hook
    return globals().setdefault(name, getattr(_import_module(f".{_HOME[name]}", __name__), name))


def __dir__():
    return sorted({*globals(), *__all__})

"""Exact-arithmetic toolkit for Sturmian subshifts.

Coding of circle rotations by quadratic irrationals, the finite
prefix/past quotients and their projective structure, fibres of the
cover's factor map, groupoid chain bounds, and the conjugacy and
flow-equivalence deciders.
"""

from .quadratics import (
    BudgetExceededError,
    ContinuedFraction,
    Moebius,
    QuadraticIrrational,
    RationalValueError,
    cf_expand,
    cf_tail_equivalent,
    cf_value,
    compare_to_rational,
    format_quad,
    parse_cf,
    parse_quad,
)
from .words import (
    Arc,
    OrbitPoint,
    TwoSidedPoint,
    branch_point,
    code_letter,
    code_word,
    cylinder_arc,
    is_admissible,
    language,
    left_extensions,
    past_set,
    preimages,
    recurrence_bound,
    two_sided_word,
)
from .cover import (
    EqClass,
    FiniteQuotient,
    IndexPair,
    Thread,
    construct_fibre_element,
    eq_class,
    equivalent,
    expected_fibre_size,
    fibre,
    fibre_report,
    index_leq,
    is_isolated,
    property_star_witness,
    q_map,
    quotient,
    shift_map,
    shift_thread,
    thread_of,
    two_sided_embed,
)
from .groupoid import (
    Arrow,
    DadWitness,
    bisection_arrows,
    check_witness,
    compose,
    dad_witness,
    degenerate_cover_chain,
    unit,
)
from .invariants import (
    InvariantReport,
    OrderedGroupDescriptor,
    compare_parameters,
    conjugate,
    flow_equivalent,
    k_theory_report,
)

__version__ = "0.1.0"

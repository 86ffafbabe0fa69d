"""Decision procedures for conjugacy and flow equivalence of the subshifts.

Both invariants reduce to exact arithmetic on the parameters: two-sided
conjugacy (equivalently orbit equivalence, and isomorphism of the unital
ordered groups Z + alpha*Z) holds iff alpha = beta or alpha = 1 - beta,
and flow equivalence (equivalently Morita equivalence of the associated
algebras, and plain ordered-group isomorphism) holds iff the parameters
have tail-equivalent continued fractions.
"""

from __future__ import annotations

from .quadratics import QuadraticIrrational, _floor, _period, _Record, _reduced, check_unit_interval


def conjugate(alpha: QuadraticIrrational, beta: QuadraticIrrational) -> bool:
    """Two-sided conjugacy of the subshifts: alpha = beta or alpha = 1 - beta.

    Also decides one-sided conjugacy, orbit equivalence, unital ordered-group
    isomorphism of Z + alpha*Z, and star-isomorphism of the associated
    algebras; all of these coincide for this family.
    """
    check_unit_interval(alpha)
    check_unit_interval(beta)
    D, P, Q = alpha._key(alpha)  # 1 - alpha = (P - Q + sqrt(D))/(-Q) has the key (D, P - Q, -Q)
    return beta._key(beta) in ((D, P, Q), (D, P - Q, -Q))


def flow_equivalent(alpha: QuadraticIrrational, beta: QuadraticIrrational) -> bool:
    """Flow equivalence of the suspensions: equivalence of the irrationals.

    Decided via tail equivalence of the continued fractions (Serret); also
    decides Morita equivalence of the associated algebras and ordered-group
    isomorphism of Z + alpha*Z without the unit.  Equivalent irrationals
    share the discriminant D of `quadratics._reduced`, and then their tails
    agree exactly when beta's first reduced state (P, Q) lies on alpha's
    cycle.  `quadratics._period` decides that from at most half of a
    symmetric cycle, where the reverse of a walked state is on it too; only
    its flag is read here.
    """
    D, _, P, Q = _reduced(alpha)
    E, _, P2, Q2 = _reduced(beta)
    return D == E and _period(D, P, Q, (P2, Q2))[1]


class OrderedGroupDescriptor(_Record):
    """Z + alpha*Z as an ordered subgroup of the reals with order unit 1.

    Elements are pairs (n, m) standing for n + m*alpha; positivity is
    decided exactly.
    """

    __slots__ = ("alpha",)
    unit = (1, 0)

    def value_positive(self, n: int, m: int) -> bool:
        if m == 0:
            return n > 0
        return _floor(self.alpha, n, m) >= 0  # n + m*alpha is irrational, never 0

    def compare(self, a: tuple[int, int], b: tuple[int, int]) -> int:
        if a == b:
            return 0
        return 1 if self.value_positive(a[0] - b[0], a[1] - b[1]) else -1


class InvariantReport(_Record):
    __slots__ = ("alpha", "beta", "conjugate", "flow_equivalent")
    k0_description = "Z+alphaZ"
    k1_description = "0"

    def to_dict(self) -> dict:
        return {
            "conjugate": self.conjugate,
            "flow_equivalent": self.flow_equivalent,
            "k0": self.k0_description,
            "k1": self.k1_description,
        }


def compare_parameters(alpha: QuadraticIrrational, beta: QuadraticIrrational) -> InvariantReport:
    c = conjugate(alpha, beta)
    f = flow_equivalent(alpha, beta)
    if c and not f:
        raise RuntimeError("conjugate parameters must be flow equivalent; decider bug")
    return InvariantReport(alpha, beta, c, f)

"""Every small quadratic parameter, checked exhaustively: a verdict that no seed moves.

The scope is fixed in advance: every alpha = (P + sqrt(D))/Q in (0, 1) with D <= 50
nonsquare, 1 <= Q <= 30 and Q | D - P^2, deduplicated by value, 904 parameters.
Off-by-one errors live in small cases, and every small case is here (the
small-scope hypothesis: Jackson, *Software Abstractions*).  A failure lists
the parameters it holds for.  Each layer is checked here: the language, the
fibre counts, the `dad` witness and check against the reference, and the flow
and conjugacy classes.
"""

import math
from collections import defaultdict
from fractions import Fraction

import reference
from sturmian.cover import fibre_report
from sturmian.groupoid import check_witness, dad_witness
from sturmian.invariants import conjugate, flow_equivalent
from sturmian.quadratics import QuadraticIrrational, format_quad
from sturmian.words import OrbitPoint, branch_point, language


def _scope() -> list[QuadraticIrrational]:
    found = set()
    for d in range(2, 51):
        s = math.isqrt(d)
        if s * s == d:
            continue
        for q in range(1, 31):
            # 0 < (p + sqrt(d))/q < 1 exactly when -s <= p <= q - s - 1
            found.update(
                QuadraticIrrational(p, 1, d, q) for p in range(-s, q - s) if (d - p * p) % q == 0
            )
    return sorted(found, key=QuadraticIrrational._key)


SCOPE = _scope()


def test_scope_size():
    assert len(SCOPE) == 904
    assert all(0 < alpha < 1 for alpha in SCOPE)


def test_language_has_n_plus_1_words_and_one_left_special():
    bad = []
    for alpha in SCOPE:
        words = [language(alpha, n) for n in range(14)]
        for n in range(13):
            special = sum("0" + w in words[n + 1] and "1" + w in words[n + 1] for w in words[n])
            if (len(words[n]), special) != (n + 1, 1):
                bad.append((format_quad(alpha), n, len(words[n]), special))
    assert not bad, bad[:10]


def test_fibre_counts():
    # 3 over the branch point, 2 over back:2:L, 1 off the orbit of 0, each resolved at (3, 8)
    bad = []
    for alpha in SCOPE:
        points = [(branch_point(alpha), 3), (OrbitPoint(alpha, -alpha, "L"), 2), (OrbitPoint(alpha, Fraction(1, 2)), 1)]
        for x, count in points:
            rep = fibre_report(alpha, x, 3, 8)
            if (rep.count, rep.expected, rep.resolved) != (count, count, True):
                bad.append((format_quad(alpha), x, rep.count, rep.expected))
    assert not bad, bad[:10]


def test_dad_witness_and_check():
    # the witness words for F = {1}, {1, 2} and {1, 2, 3} are the reference's, and at
    # F = {1} the check at min_window gives the reference's chains and verdict; the
    # reference's chain scan takes seconds at {1, 2}, so the check stops at {1}
    bad = []
    for alpha in SCOPE:
        witnesses = [dad_witness(alpha, range(1, lbar + 1)) for lbar in (1, 2, 3)]
        for lbar, w in enumerate(witnesses, 1):
            if (w.mu, w.nu) != reference.witness_words(alpha, lbar):
                bad.append((format_quad(alpha), lbar, w.mu, w.nu))
        w = witnesses[0]
        got, want = (check(alpha, w, w.min_window) for check in (check_witness, reference.check_witness))
        chains = lambda c: (c.max_first_hit, c.max_chain_v, c.max_chain_u, c.passed)
        if chains(got) != chains(want):
            bad.append((format_quad(alpha), chains(got), chains(want)))
    assert not bad, bad[:10]


def test_flow_and_conjugacy_classes():
    # flow equivalence is the reference's tail equivalence on every pair of one
    # discriminant, and a tail class never spans two, so the partitions agree;
    # alpha is conjugate to 1 - alpha, which never lies in the scope, and to no other value
    disc = {alpha: QuadraticIrrational._key(alpha)[0] for alpha in SCOPE}
    groups = defaultdict(list)
    for alpha in SCOPE:
        groups[disc[alpha]].append(alpha)
    pairs = [(a, b) for group in groups.values() for i, a in enumerate(group) for b in group[i:]]
    assert (len(groups), len(pairs)) == (52, 9654)
    cf = {alpha: reference.cf_expand(alpha) for alpha in SCOPE}
    tails = defaultdict(set)
    for alpha, c in cf.items():
        tails[min(c.period[i:] + c.period[:i] for i in range(len(c.period)))].add(disc[alpha])
    assert all(len(ds) == 1 for ds in tails.values())
    bad = [(a, b) for a, b in pairs if flow_equivalent(a, b) != reference.cf_tail_equivalent(cf[a], cf[b])]
    bad += [(a, b) for a, b in pairs if conjugate(a, b) != (a == b)]
    bad += [(a, 1 - a) for a in SCOPE if not (flow_equivalent(a, 1 - a) and conjugate(a, 1 - a))]
    assert not bad, [tuple(map(format_quad, pair)) for pair in bad[:10]]
    assert not set(SCOPE) & {1 - alpha for alpha in SCOPE}

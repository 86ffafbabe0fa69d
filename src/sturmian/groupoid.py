"""The two-set chain bound behind dynamic asymptotic dimension one.

The witness construction picks two words, covers the unit space by the
shifted cylinders of one word and the complement, and bounds how many
cocycle jumps a chain can make while staying on one side: the cylinder
union forms a barrier wider than any single jump, and recurrence forces
the orbit into it.  The witness and its check read words alone and never
touch the cover.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from itertools import combinations, groupby, product
from operator import itemgetter, or_

from .arcs import recurrence_bound
from .quadratics import QuadraticIrrational, _Record
from .words import _zero_words


class DadWitness(_Record):
    """Data certifying the two-set cover used in the dimension bound.

    The first set is the preimage of the union of cylinders of the left
    shifts sigma^j(mu) for j < lbar; the second is its complement.  The
    words mu and nu have one length m >= 2*lbar, distinct suffixes mu[lbar:]
    and nu[lbar:], and disjoint shift cylinders: mu[lbar-1:] is not in nu,
    nor nu[lbar-1:] in mu.
    """

    __slots__ = ("cocycle_values", "mu", "nu", "beta_mu", "beta_nu")

    @property
    def lbar(self) -> int:
        return self.cocycle_values[-1]

    @property
    def min_window(self) -> int:
        """The shortest window check_witness accepts."""
        return len(self.mu) * max(self.beta_mu, self.beta_nu)


def _cocycle_values(values) -> tuple[int, ...]:
    """The distinct values in increasing order: nonempty, nonnegative, one of them positive."""
    values = tuple(sorted({int(v) for v in values}))
    if not values or values[0] < 0 or values[-1] < 1:
        raise ValueError("cocycle values must be nonnegative integers, one of them positive")
    return values


def dad_witness(alpha: QuadraticIrrational, values) -> DadWitness:
    """Build the deterministic two-set witness for the given cocycle values.

    The words have the least length m* >= 2*lbar at which two words of the
    language have disjoint shifted cylinders, and are the first such pair
    in the order of their suffixes mu[lbar:], then of the words.  For any
    m >= lbar, a pair is disjoint exactly when mu[lbar-1:] is not in nu and
    nu[lbar-1:] is not in mu.  Proof: for j >= i the cylinders of mu[j:]
    and nu[i:] meet exactly when mu[j:] occurs in nu at i, and then so does
    its suffix t = mu[lbar-1:]; conversely t has m - lbar + 1 letters, so it
    occurs only at some p <= lbar - 1, the pair (lbar - 1, p).  The case
    i >= j is symmetric.

    A pair at m gives one at m + 1, so the search doubles a step from
    2*lbar, then bisects the last gap.  Proof: extend mu and nu right by one
    admissible letter each; the suffixes stay distinct, and the longer tail,
    of m - lbar + 2 letters, could only sit at some p <= lbar - 1 of the
    longer word, where the shorter tail would lie inside the shorter word.

    The search ends: a nu excluded for mu shares mu[lbar:], contains
    mu[lbar-1:] or has nu[lbar-1:] in mu, so it extends one of at most lbar
    factors of mu by at most lbar letters.  A factor has at most r + 1
    extensions by r letters, so the excluded nu are bounded in lbar alone,
    while the language of length m has m + 1 words.
    """
    values = _cocycle_values(values)
    lbar, pairs = values[-1], {}

    def paired(m: int) -> bool:
        # bit j of inside[t]: t starts in the window w[j:j+m] (`language`), at j..j + lbar - 1
        w, inside = _zero_words(alpha, m)[0], {}
        for p in range(m + lbar):
            t = w[p : p + m - lbar + 1]
            inside[t] = inside.get(t, 0) | (1 << p + 1) - (1 << max(p - lbar + 1, 0))
        tail = [inside[w[i + lbar - 1 : i + m]] for i in range(m + 1)]
        keyed = sorted((w[i + lbar : i + m], w[i : i + m], i) for i in range(m + 1))
        extensions = [[i for *_, i in group] for _, group in groupby(keyed, itemgetter(0))]
        for mus, nus in combinations(extensions, 2):
            for i, j in product(mus, nus):
                if not tail[i] >> j & 1 and not tail[j] >> i & 1:
                    pairs[m] = w[i : i + m], w[j : j + m]
                    return True
        return False

    lo, step = 2 * lbar, 1
    while not paired(hi := lo + step - 1):
        lo, step = hi + 1, 2 * step
    mu, nu = pairs[lo + bisect_left(range(lo, hi), True, key=paired)]
    return DadWitness(values, mu, nu, recurrence_bound(alpha, mu), recurrence_bound(alpha, nu))


class WitnessCheck(_Record):
    """Verification of the two-set chain bounds over every admissible window."""

    __slots__ = (
        "witness", "window", "covered", "max_first_hit", "max_chain_v", "max_chain_u", "cocycle_bound"
    )

    @property
    def passed(self) -> bool:
        return (
            self.covered
            and self.max_chain_v <= self.witness.beta_mu
            and self.max_chain_u <= self.witness.beta_nu
        )

    def to_dict(self) -> dict:
        return {
            "F": list(self.witness.cocycle_values),
            "mu": self.witness.mu,
            "nu": self.witness.nu,
            "beta_mu": self.witness.beta_mu,
            "beta_nu": self.witness.beta_nu,
            "max_chain_V": self.max_chain_v,
            "max_chain_U": self.max_chain_u,
            "cocycle_bound": self.cocycle_bound,
            "window": self.window,
            "pass": self.passed,
        }


def _longest_chain(allowed: int, jumps: list[int], span: int) -> int:
    """Most steps in a chain of allowed positions, bit p for position p, each step
    one of the jumps, that ends at most span positions past its start.  Round k
    holds the starts of k-step chains.  In the witness check the longest nearly
    always fits the span: mu's occurrences flag, and nu's clear, lbar consecutive
    starts each (the shift cylinders are disjoint), and both recur within beta
    <= span.  Else each chain lies in the stretch of span + 1 positions from its start.
    """
    steps, chains = 0, allowed
    while chains := allowed & reduce(or_, [chains >> f for f in jumps]):
        steps += 1
    if steps * jumps[-1] <= span or allowed >> span + 1 == 0:
        return steps
    stretch = (1 << span + 1) - 1
    return max(_longest_chain(allowed >> i & stretch, jumps, span) for i in range(allowed.bit_length()))


def check_witness(alpha: QuadraticIrrational, w: DadWitness, window: int) -> WitnessCheck:
    """Verify the chain bounds over every admissible window of given length.

    (a) every window meets the cylinder union within beta_mu shifts; (b)
    chains of same-side arrows with jumps among the cocycle values are no
    longer than beta_mu on the complement side and beta_nu on the cylinder
    side.  The windows are those of the coding of 0 at indices
    -window..window-1, as in `language`; each reads its starts i..i + limit,
    limit = window - |mu|, so the word is flagged once.  A chain spanning
    at most limit positions lies in the window starting at its first
    position, or in the last one.  Sets of starts are ints, bit p for start
    p: the R coding of 0, the L coding reversed, holds letter p at bit p
    when read in base 2, and Shift-And finds each suffix of mu from the next.
    """
    if window < w.min_window:
        raise ValueError(f"window must be at least {w.min_window}")
    ones = int(_zero_words(alpha, window)[1], 2)
    letter = {"0": ones ^ (1 << 2 * window) - 1, "1": ones}
    limit = window - len(w.mu)
    found, upos = -1, 0  # -1 has every bit set: the empty suffix starts everywhere
    for j in range(len(w.mu) - 1, -1, -1):
        found = letter[w.mu[j]] & found >> 1
        upos |= found if j < w.lbar else 0
    starts = (1 << window + limit + 1) - 1
    upos, vpos = upos & starts, starts & ~upos
    max_first, reach = 0, vpos  # reach: the starts s with s..s + max_first all unflagged
    while reach & (1 << window + 1) - 1 and max_first <= limit:
        max_first, reach = max_first + 1, reach & reach >> 1
    jumps = [v for v in w.cocycle_values if v >= 1]
    max_v, max_u = (_longest_chain(side, jumps, limit) for side in (vpos, upos))
    bound = w.lbar * max(max_v, max_u)
    return WitnessCheck(w, window, max_first <= w.beta_mu, max_first, max_v, max_u, bound)


def degenerate_cover_chain(alpha: QuadraticIrrational, values, window: int) -> int:
    """Longest chain when a single set covers everything: every step takes the least jump."""
    values = _cocycle_values(values)
    return max((window - 2 * values[-1]) // min(v for v in values if v >= 1), 0)

"""The two-set chain bound behind dynamic asymptotic dimension one.

The witness construction picks two words, covers the unit space by the
shifted cylinders of one word and the complement, and bounds how many
cocycle jumps a chain can make while staying on one side: the cylinder
union forms a barrier wider than any single jump, and recurrence forces
the orbit into it.  The witness and its check read words alone and never
touch the cover.
"""

from __future__ import annotations

from itertools import combinations, count, groupby, product
from operator import itemgetter

from .arcs import recurrence_bound
from .quadratics import QuadraticIrrational, _Record
from .words import Word, _zero_words


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
    def mu_shifts(self) -> tuple[Word, ...]:
        return tuple(self.mu[j:] for j in range(self.lbar))

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

    The words have the least length m >= 2*lbar at which two words of the
    language have disjoint shifted cylinders, and are the first such pair
    in the order of their suffixes mu[lbar:], then of the words.  For any
    m >= lbar, a pair is disjoint exactly when mu[lbar-1:] is not in nu and
    nu[lbar-1:] is not in mu.  Proof: for j >= i the cylinders of mu[j:]
    and nu[i:] meet exactly when mu[j:] occurs in nu at i, and then so does
    its suffix t = mu[lbar-1:]; conversely t has m - lbar + 1 letters, so it
    occurs only at some p <= lbar - 1, the pair (lbar - 1, p).  The case
    i >= j is symmetric.

    Each length reads one coded word w, whose m + 1 windows w[i:i+m] are the
    language (`language`).  Its factors of n = m - lbar + 1 letters are
    numbered once: window i's tail is the factor at i + lbar - 1, and the
    tails inside window j are the factors at j..j + lbar - 1, so each pair
    is tested by two set lookups.

    The search ends: a nu excluded for mu shares mu[lbar:], contains
    mu[lbar-1:] or has nu[lbar-1:] in mu, so it extends one of at most lbar
    factors of mu by at most lbar letters.  A factor has at most r + 1
    extensions by r letters, so the excluded nu are bounded in lbar alone,
    while the language of length m has m + 1 words.
    """
    values = _cocycle_values(values)
    lbar = values[-1]
    for m in count(2 * lbar):
        w, n = _zero_words(alpha, m)[0], m - lbar + 1
        ids: dict[Word, int] = {}
        factor = [ids.setdefault(w[p : p + n], len(ids)) for p in range(m + lbar)]
        inside = [set(factor[j : j + lbar]) for j in range(m + 1)]
        keyed = sorted((w[i + lbar : i + m], w[i : i + m], i) for i in range(m + 1))
        extensions = [[i for *_, i in group] for _, group in groupby(keyed, itemgetter(0))]
        for mus, nus in combinations(extensions, 2):
            for i, j in product(mus, nus):
                if factor[i + lbar - 1] not in inside[j] and factor[j + lbar - 1] not in inside[i]:
                    mu, nu = w[i : i + m], w[j : j + m]
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


def _u_positions(w: DadWitness, word: Word, limit: int) -> list[bool]:
    """Flags of the starts s <= limit at which word reads some mu shift."""
    flags = [False] * (limit + 1)
    for shift in w.mu_shifts:
        end = limit + len(shift)
        s = word.find(shift, 0, end)
        while s != -1:
            flags[s] = True
            s = word.find(shift, s + 1, end)
    return flags


def _longest_chain(allowed: list[bool], jumps: list[int], span: int) -> int:
    """Most steps in a chain of allowed positions, each step one of the jumps,
    that ends at most span positions past its start."""
    # end[s]: the least end of a k-step chain from s; it grows with k, so dead starts stay dead
    never = len(allowed) + span  # past every real end, and past s + span for every start s
    end = [s if ok else never for s, ok in enumerate(allowed)] + [never] * max(jumps)
    alive, steps = [s for s, ok in enumerate(allowed) if ok], -1
    while alive:
        for s in alive:  # increasing, so end[s + f] still holds a k-step end
            end[s] = min([end[s + f] for f in jumps])
        alive, steps = [s for s in alive if end[s] <= s + span], steps + 1
    return max(steps, 0)


def check_witness(alpha: QuadraticIrrational, w: DadWitness, window: int) -> WitnessCheck:
    """Verify the chain bounds over every admissible window of given length.

    (a) every window meets the cylinder union within beta_mu shifts; (b)
    chains of same-side arrows with jumps among the cocycle values are no
    longer than beta_mu on the complement side and beta_nu on the cylinder
    side.  The windows are those of the coding of 0 at indices
    -window..window-1, as in `language`; each reads its starts i..i + limit,
    limit = window - |mu|, so the word is flagged once.  A chain spanning
    at most limit positions lies in the window starting at its first
    position, or in the last one.
    """
    if window < w.min_window:
        raise ValueError(f"window must be at least {w.min_window}")
    word = _zero_words(alpha, window)[0]
    limit = window - len(w.mu)
    jumps = [v for v in w.cocycle_values if v >= 1]
    upos = _u_positions(w, word, window + limit)
    max_first, nxt = 0, len(upos)  # nxt: the first flag at or after s
    for s in range(len(upos) - 1, -1, -1):
        nxt = s if upos[s] else nxt
        max_first = max(max_first, min(nxt - s, limit + 1) if s <= window else 0)
    max_v, max_u = (_longest_chain(side, jumps, limit) for side in ([not u for u in upos], upos))
    bound = w.lbar * max(max_v, max_u)
    return WitnessCheck(w, window, max_first <= w.beta_mu, max_first, max_v, max_u, bound)


def degenerate_cover_chain(alpha: QuadraticIrrational, values, window: int) -> int:
    """Longest chain when a single set covers everything: every step takes the least jump."""
    values = _cocycle_values(values)
    return max((window - 2 * values[-1]) // min(v for v in values if v >= 1), 0)

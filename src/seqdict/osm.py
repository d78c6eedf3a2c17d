"""Item-picking valuations over a complete bipartite graph: when her turn
comes, an agent takes the best-ranked item that is still available.

Preferences are strict: `prefs[i]` lists the items in agent i's order of
preference, derived from weights with a fixed tie rule so that equal-weight
items still rank strictly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import permutations
from typing import Optional, Sequence

from .core import (
    ActionSeq,
    CapExceededError,
    Caps,
    DEFAULT_CAPS,
    PrefixStates,
    Value,
    ValuationOracle,
    check_action_seq,
    oracle_for,
    underlying_optimum,
)
from .feasibility import FeasibilityContext, sequence_for_collection


@dataclass(frozen=True)
class MatchingInstance:
    n: int
    weights: tuple  # weights[i][j]: agent i's value for item j
    prefs: tuple    # prefs[i]: items in strictly decreasing preference

    def __post_init__(self):
        if self.n < 1 or len(self.weights) != self.n or len(self.prefs) != self.n:
            raise ValueError("inconsistent instance dimensions")
        for i in range(self.n):
            row = self.weights[i]
            if len(row) != self.n or any(not isinstance(w, Fraction) or w < 0 for w in row):
                raise ValueError("weights must be non-negative rationals")
            if sorted(self.prefs[i]) != list(range(self.n)):
                raise ValueError("prefs must be a permutation of the items")
            for a, b in zip(self.prefs[i], self.prefs[i][1:]):
                if row[a] < row[b]:
                    raise ValueError("prefs inconsistent with weights")

    def rank(self, agent: int, item: int) -> int:
        """Position of `item` in the agent's preference order (0 = best)."""
        return self.prefs[agent].index(item)

    @classmethod
    def from_weights(cls, weights: Sequence[Sequence]) -> "MatchingInstance":
        """Derive preferences from weights; equal weights rank the lower item first."""
        n = len(weights)
        rows = tuple(tuple(Fraction(w) for w in row) for row in weights)
        prefs = tuple(
            tuple(sorted(range(n), key=lambda j: (-rows[i][j], j)))
            for i in range(n)
        )
        return cls(n, rows, prefs)


def _pick(inst: MatchingInstance, agent: int, taken) -> int:
    """The agent's best-ranked item not held in `taken` ({agent: item})."""
    gone = taken.values()
    for j in inst.prefs[agent]:
        if j not in gone:
            return j


def _step(inst: MatchingInstance, taken: dict, agent: int) -> dict:
    return {**taken, agent: _pick(inst, agent, taken)}


def _simulate_picks(inst: MatchingInstance, seq) -> dict:
    """Items taken by the agents in `seq`, in order: {agent: item}."""
    return reduce(partial(_step, inst), seq, {})


def osm_oracle(inst: MatchingInstance) -> ValuationOracle:
    """v_i(S) = weight of i's best-ranked item left after S picked theirs.

    The internal simulation of S is bookkeeping, not a counted query; it
    resumes from the picks after the longest prefix shared with the previous
    query.
    """
    states = PrefixStates({}, partial(_step, inst))

    def fn(agent: int, seq: tuple) -> Value:
        return inst.weights[agent][_pick(inst, agent, states.after(seq))]

    return ValuationOracle(inst.n, fn, monotone_claimed=True)


def greedy_osm(oracle: ValuationOracle) -> ActionSeq:
    """Build the sequence by repeatedly appending the remaining agent whose
    value after the current prefix is highest (ties: smallest index).

    Issues exactly n + (n-1) + ... + 1 = n(n+1)/2 queries.
    """
    n = oracle.n
    order: list = []
    remaining = list(range(n))
    for _ in range(n):
        best_agent = None
        best_val = None
        for i in remaining:
            v = oracle.value(i, tuple(order))
            if best_val is None or v > best_val:
                best_agent, best_val = i, v
        order.append(best_agent)
        remaining.remove(best_agent)
    return tuple(order)


def matching_from_sequence(inst: MatchingInstance, seq) -> tuple:
    """Perfect matching produced by a full sequence: assignment[i] = item."""
    seq = tuple(seq)
    check_action_seq(seq, inst.n, full=True)
    picks = _simulate_picks(inst, seq)
    return tuple(picks[i] for i in range(inst.n))


def check_perfect_matching(assignment, n: int) -> None:
    if sorted(assignment) != list(range(n)):
        raise ValueError("not a perfect matching")


def _dominates(inst: MatchingInstance, a, b) -> bool:
    """True iff matching `a` weakly rank-improves on `b` for all, strictly for one."""
    strict = False
    for i in range(inst.n):
        ra, rb = inst.rank(i, a[i]), inst.rank(i, b[i])
        if ra > rb:
            return False
        if ra < rb:
            strict = True
    return strict


def is_pareto_optimal_matching(inst: MatchingInstance, matching,
                               caps: Optional[Caps] = None) -> bool:
    """Brute-force Pareto check against all n! perfect matchings."""
    caps = caps or DEFAULT_CAPS
    if inst.n > caps.factorial:
        raise CapExceededError(f"n={inst.n} exceeds factorial cap {caps.factorial}")
    check_perfect_matching(matching, inst.n)
    return not any(_dominates(inst, alt, matching)
                   for alt in permutations(range(inst.n)))


def matching_context(inst: MatchingInstance) -> FeasibilityContext:
    """Feasibility wiring: partial matchings, best response = top free item."""
    def feasible(acts) -> bool:
        items = list(acts.values())
        return len(items) == len(set(items))

    return FeasibilityContext(inst.n, feasible, partial(_pick, inst))


def sequence_for_matching(inst: MatchingInstance, matching) -> Optional[tuple]:
    """A sequence producing the matching, or None when none exists."""
    check_perfect_matching(matching, inst.n)
    return sequence_for_collection(matching_context(inst),
                                   {i: matching[i] for i in range(inst.n)})


def random_matching_instance(n: int, seed: int,
                             weight_denominator: int = 100) -> MatchingInstance:
    """Uniform i.i.d. weights k/weight_denominator, k in 0..weight_denominator."""
    rng = random.Random(seed)
    weights = [[Fraction(rng.randint(0, weight_denominator), weight_denominator)
                for _ in range(n)] for _ in range(n)]
    return MatchingInstance.from_weights(weights)


@underlying_optimum.register
def _(inst: MatchingInstance, caps: Optional[Caps] = None) -> Value:
    """Max-weight perfect matching by a dynamic program over taken items.

    best[mask] is the heaviest assignment of agents 0..|mask|-1 to the items
    in mask; the next agent then takes any free item.  O(n * 2^n).
    """
    caps = caps or DEFAULT_CAPS
    n = inst.n
    if n > caps.subset:
        raise CapExceededError(f"n={n} exceeds subset cap {caps.subset}")
    best = [None] * (1 << n)
    best[0] = Fraction(0)
    for mask in range((1 << n) - 1):  # every submask of a mask comes first
        row = inst.weights[bin(mask).count("1")]
        for j in range(n):
            if not mask >> j & 1:
                cand = best[mask] + row[j]
                grown = mask | 1 << j
                if best[grown] is None or cand > best[grown]:
                    best[grown] = cand
    return best[-1]


@oracle_for.register
def _(inst: MatchingInstance) -> ValuationOracle:
    return osm_oracle(inst)

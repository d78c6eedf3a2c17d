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
from functools import cached_property
from itertools import permutations
from typing import Optional, Sequence

from .core import (
    ActionSeq,
    Caps,
    DEFAULT_CAPS,
    ScaledWeights,
    Structure,
    Value,
    ValuationOracle,
    actions as matching_from_sequence,  # the perfect matching: assignment[i] = item
    as_fraction,
    oracle_for as osm_oracle,
)
from .feasibility import is_pareto_optimal, sequence_for_collection


@dataclass(frozen=True)
class MatchingInstance(ScaledWeights):
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
        self.check_prefs()

    def rank(self, agent: int, item: int) -> int:
        """Position of `item` in the agent's preference order (0 = best)."""
        return self.prefs[agent].index(item)

    @cached_property
    def structure(self) -> Structure:
        """v_i(S) = weight of i's best-ranked item left after S picked theirs.
        The state is the taken items, as a bitmask."""
        scale, rows = self.scaled
        prefs = self.prefs

        def step(taken: int, agent: int) -> int:
            return taken | 1 << _pick(prefs, taken, agent)

        def act(taken: int, agent: int) -> int:
            return _pick(prefs, taken, agent)

        def read(taken: int, agent: int) -> int:
            return rows[agent][_pick(prefs, taken, agent)]

        return Structure(0, step, act, read, scale, True)

    def optimum(self, caps: Optional[Caps] = None) -> Value:
        """Max-weight perfect matching by a dynamic program over taken items.

        best[mask] is the heaviest assignment of agents 0..|mask|-1 to the items
        in mask, as an int over the instance's common denominator; the next
        agent then takes any free item.  O(n * 2^n).
        """
        n = self.n
        (caps or DEFAULT_CAPS).check_subset(n)
        scale, weights = self.scaled
        best = [0] * (1 << n)  # weights are non-negative and every mask is filled
        for mask in range((1 << n) - 1):  # every submask of a mask comes first
            row = weights[bin(mask).count("1")]
            base = best[mask]
            for j in range(n):
                if not mask >> j & 1:
                    cand = base + row[j]
                    grown = mask | 1 << j
                    if cand > best[grown]:
                        best[grown] = cand
        return Fraction(best[-1], scale)

    @classmethod
    def from_weights(cls, weights: Sequence[Sequence]) -> "MatchingInstance":
        """Derive preferences from weights; equal weights rank the lower item first."""
        return cls.from_rows(tuple(tuple(map(as_fraction, row)) for row in weights))


def _pick(prefs: tuple, taken: int, agent: int) -> int:
    """The agent's best-ranked item in `prefs` not in `taken` (a bitmask of
    items)."""
    for j in prefs[agent]:
        if not taken >> j & 1:
            return j


def greedy_osm(oracle: ValuationOracle) -> ActionSeq:
    """Build the sequence by repeatedly appending the remaining agent whose
    value after the current prefix is highest (ties: smallest index).

    Issues exactly n + (n-1) + ... + 1 = n(n+1)/2 queries.
    """
    n = oracle.n
    order = oracle.prefixes.root  # the checked prefix built so far
    remaining = list(range(n))
    for _ in range(n):
        best_agent = None
        best_val = None
        for i in remaining:
            v = oracle.value_scaled(i, order)
            if best_val is None or v > best_val:
                best_agent, best_val = i, v
        remaining.remove(best_agent)
        order = order.then(best_agent)
    return order.agents


def check_perfect_matching(assignment, n: int) -> None:
    if sorted(assignment) != list(range(n)):
        raise ValueError("not a perfect matching")


def is_pareto_optimal_matching(inst: MatchingInstance, matching,
                               caps: Optional[Caps] = None) -> bool:
    """Brute-force Pareto check against all n! perfect matchings."""
    (caps or DEFAULT_CAPS).check_sequences(inst.n)
    check_perfect_matching(matching, inst.n)
    return is_pareto_optimal(inst, matching, permutations(range(inst.n)))


def sequence_for_matching(inst: MatchingInstance, matching) -> Optional[tuple]:
    """A sequence producing the matching, or None when none exists."""
    check_perfect_matching(matching, inst.n)
    return sequence_for_collection(inst, tuple(matching))


def random_matching_instance(n: int, seed: int,
                             weight_denominator: int = 100) -> MatchingInstance:
    """Uniform i.i.d. weights k/weight_denominator, k in 0..weight_denominator."""
    rng = random.Random(seed)
    weights = [[Fraction(rng.randint(0, weight_denominator), weight_denominator)
                for _ in range(n)] for _ in range(n)]
    return MatchingInstance.from_weights(weights)

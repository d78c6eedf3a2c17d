"""Prefix-search approximation algorithms for general instances, plus the
hidden-sequence instance family used to stress-test them.

All three algorithms place a carefully chosen c-agent prefix first and fill
the remaining positions in ascending index order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial, perm
from typing import Callable, Optional

from .core import (
    ActionSeq,
    CapExceededError,
    Caps,
    DEFAULT_CAPS,
    Value,
    ValuationOracle,
    check_action_seq,
    is_subsequence,
    oracle_for,
    social_welfare,
)


def max_welfare_ordering(value_fn: Callable[[int, tuple], Value],
                         agents) -> tuple[tuple, Value]:
    """Ordering of `agents` maximizing the sum of prefix values.

    Evaluates value_fn(a, prefix) at every position of every ordering, i.e.
    exactly k * k! calls for k agents.  Ties break to the lexicographically
    smallest ordering.
    """
    best_order = None
    best_total = None
    for order in permutations(sorted(agents)):
        total = Fraction(0)
        for k, a in enumerate(order):
            total += value_fn(a, order[:k])
        if best_total is None or total > best_total or \
                (total == best_total and order < best_order):
            best_order, best_total = order, total
    return best_order, best_total


def _fill_ascending(prefix: tuple, n: int) -> tuple:
    chosen = set(prefix)
    return prefix + tuple(i for i in range(n) if i not in chosen)


def det(oracle: ValuationOracle, c: int,
        caps: Optional[Caps] = None) -> ActionSeq:
    """Exhaustive prefix search over every ordering of every c-subset.

    Keeps the prefix with maximum total value (ties lexicographic) and appends
    the remaining agents in ascending index order.  Issues exactly
    C(n,c) * c * c! queries.  The n/c welfare guarantee holds on instances
    with monotone valuations; the search itself runs on any oracle.
    """
    n = oracle.n
    caps = caps or DEFAULT_CAPS
    if not 1 <= c <= n:
        raise ValueError("c out of range")
    if perm(n, c) > factorial(caps.factorial):
        raise CapExceededError(
            f"enumeration cap exceeded: {n}!/{n - c}! prefixes over budget")
    best = None  # (total, order)
    for subset in combinations(range(n), c):
        order, total = max_welfare_ordering(oracle.value, subset)
        if best is None or total > best[0] or (total == best[0] and order < best[1]):
            best = (total, order)
    return _fill_ascending(best[1], n)


def rand(oracle: ValuationOracle, c: int, seed: int,
         caps: Optional[Caps] = None) -> ActionSeq:
    """Prefix search over a single uniformly random c-subset (c * c! queries).

    The subset comes from a partial Fisher-Yates shuffle: for k = 0..c-1,
    position k is swapped with a uniform position in k..n-1, so every c-subset
    of agents is drawn with probability 1/C(n,c).
    """
    n = oracle.n
    caps = caps or DEFAULT_CAPS
    if not 1 <= c <= n:
        raise ValueError("c out of range")
    if factorial(c) > factorial(caps.factorial):
        raise CapExceededError(
            f"enumeration cap exceeded: {c}! prefix orderings over budget")
    rng = random.Random(seed)
    pool = list(range(n))
    for k in range(c):
        j = rng.randrange(k, n)
        pool[k], pool[j] = pool[j], pool[k]
    order, _ = max_welfare_ordering(oracle.value, pool[:c])
    return _fill_ascending(order, n)


def det_plus(oracle: ValuationOracle, c: int,
             caps: Optional[Caps] = None) -> ActionSeq:
    """Full-welfare variant of det.

    Considers every sequence whose last n-c agents appear in ascending index
    order and returns one of maximum social welfare (ties lexicographic).
    Its welfare is never below det's on the same instance, since det's output
    is among the candidates.
    """
    n = oracle.n
    caps = caps or DEFAULT_CAPS
    if not 0 <= c <= n:
        raise ValueError("c out of range")
    if perm(n, c) > factorial(caps.factorial):
        raise CapExceededError(
            f"enumeration cap exceeded: {n}!/{n - c}! candidates over budget")
    best_seq = None
    best_val = None
    for prefix in permutations(range(n), c):  # lexicographic over prefixes
        cand = _fill_ascending(prefix, n)
        sw = social_welfare(oracle, cand)
        if best_val is None or sw > best_val:
            best_seq, best_val = cand, sw
    return best_seq


@dataclass(frozen=True)
class LowerBoundInstance:
    """Binary-valued instance hiding a magic sequence.

    An agent scores 1 exactly when fewer than c agents acted before her or her
    prefix follows the hidden order; the hidden sequence itself is the only
    way to welfare n.
    """

    n: int
    c: int
    hidden_pi: tuple

    def __post_init__(self):
        if not 1 <= self.c <= self.n:
            raise ValueError("c out of range")
        check_action_seq(self.hidden_pi, self.n, full=True)


def make_lower_bound_oracle(inst: LowerBoundInstance) -> ValuationOracle:
    """Oracle returning 1 iff |S| < c or S is a subsequence of the hidden order."""
    one, zero = Fraction(1), Fraction(0)

    def fn(agent: int, seq: tuple) -> Value:
        return one if len(seq) < inst.c or is_subsequence(seq, inst.hidden_pi) else zero

    return ValuationOracle(inst.n, fn, monotone_claimed=True)


def random_lower_bound_instance(n: int, c: int, seed: int) -> LowerBoundInstance:
    """Instance with the hidden sequence drawn uniformly from all n! orders."""
    rng = random.Random(seed)
    return LowerBoundInstance(n, c, tuple(rng.sample(range(n), n)))


@oracle_for.register
def _(inst: LowerBoundInstance) -> ValuationOracle:
    return make_lower_bound_oracle(inst)

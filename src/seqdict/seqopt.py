"""Prefix-search approximation algorithms for general instances, plus the
hidden-sequence instance family used to stress-test them.

All three algorithms place a carefully chosen c-agent prefix first and fill
the remaining positions in ascending index order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from math import factorial, perm
from typing import Optional

from .core import (
    ActionSeq,
    Caps,
    DEFAULT_CAPS,
    Structure,
    ValuationOracle,
    check_action_seq,
    oracle_for as make_lower_bound_oracle,
    prefix_paths,
    social_welfare,
)


def max_welfare_ordering(oracle: ValuationOracle, agents,
                         length: Optional[int] = None) -> tuple:
    """Ordering of `agents` (of `length` of them, when given) maximizing the
    sum of prefix values, as the oracle's `value_scaled` reads them.

    One depth-first pass over the ordering tree from the oracle's
    `prefixes.root`, whose reads take checked prefixes grown once per tree
    edge.  Each ordering reads every position, i.e. exactly
    k * m!/(m - k)! queries for k of m agents (k * k! for all of them), and
    adds the reads up: ints over `scale` for a structured oracle, the
    table's Fractions for a profile's.  Ties break to the lexicographically
    smallest ordering.
    """
    pool = sorted(agents)
    read = oracle.value_scaled
    best_order = None
    best_total = None
    for order, prefixes, _ in prefix_paths(oracle.prefixes.root, pool,
                                           len(pool) if length is None else length):
        total = sum(map(read, order, prefixes))
        if best_total is None or total > best_total:
            best_order, best_total = order, total
    return best_order, best_total


def fill_ascending(prefix: tuple, n: int) -> tuple:
    """`prefix`, then every other agent in ascending index order."""
    chosen = set(prefix)
    return prefix + tuple(i for i in range(n) if i not in chosen)


def subset_sequence(oracle: ValuationOracle, agents) -> ActionSeq:
    """The `max_welfare_ordering` of the drawn `agents`, then the rest of
    the oracle's n agents ascending: the prefix search's output for one
    drawn subset."""
    order, _ = max_welfare_ordering(oracle, agents)
    return fill_ascending(order, oracle.n)


def det(oracle: ValuationOracle, c: int,
        caps: Optional[Caps] = None) -> ActionSeq:
    """Exhaustive prefix search over every ordering of every c-subset.

    Keeps the prefix with maximum total value (ties lexicographic) and appends
    the remaining agents in ascending index order.  Issues exactly
    C(n,c) * c * c! queries: one `max_welfare_ordering` pass over all the
    ordered c-prefixes of the n agents, which reads the pairs of the C(n,c)
    per-subset searches.  The n/c welfare guarantee holds on instances
    with monotone valuations; the search itself runs on any oracle.
    """
    n = oracle.n
    if not 1 <= c <= n:
        raise ValueError("c out of range")
    (caps or DEFAULT_CAPS).check_work(perm(n, c), f"{n}!/{n - c}! prefixes")
    order, _ = max_welfare_ordering(oracle, range(n), c)
    return fill_ascending(order, n)


def rand(oracle: ValuationOracle, c: int, seed: int,
         caps: Optional[Caps] = None) -> ActionSeq:
    """Prefix search over a single uniformly random c-subset (c * c! queries).

    The subset comes from a partial Fisher-Yates shuffle: for k = 0..c-1,
    position k is swapped with a uniform position in k..n-1, so every c-subset
    of agents is drawn with probability 1/C(n,c).
    """
    n = oracle.n
    if not 1 <= c <= n:
        raise ValueError("c out of range")
    (caps or DEFAULT_CAPS).check_work(factorial(c), f"{c}! prefix orderings")
    rng = random.Random(seed)
    pool = list(range(n))
    for k in range(c):
        j = rng.randrange(k, n)
        pool[k], pool[j] = pool[j], pool[k]
    return subset_sequence(oracle, pool[:c])


def det_plus(oracle: ValuationOracle, c: int,
             caps: Optional[Caps] = None) -> ActionSeq:
    """Full-welfare variant of det.

    Considers every sequence whose last n-c agents appear in ascending index
    order and returns one of maximum social welfare (ties lexicographic).
    Its welfare is never below det's on the same instance, since det's output
    is among the candidates.
    """
    n = oracle.n
    if not 0 <= c <= n:
        raise ValueError("c out of range")
    (caps or DEFAULT_CAPS).check_work(perm(n, c), f"{n}!/{n - c}! candidates")
    best_seq = None
    best_val = None
    for prefix in permutations(range(n), c):  # lexicographic over prefixes
        cand = fill_ascending(prefix, n)
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

    kind = "lowerbound"  # its name in instance files; a class attribute, not a field

    n: int
    c: int
    hidden_pi: tuple

    def __post_init__(self):
        if not 1 <= self.c <= self.n:
            raise ValueError("c out of range")
        check_action_seq(self.hidden_pi, self.n, full=True)

    @cached_property
    def structure(self) -> Structure:
        """v_i(S) = 1 iff |S| < c or S is a subsequence of the hidden order.

        State (ok, last, size): whether the prefix is still a subsequence of the
        hidden order, the hidden position of its last agent while it is (None
        once it is not), and its length.  With the acted set, `ok` fixes the
        state, since a subsequence of the hidden order ends at its agent that
        comes last there.  An agent's act is her value."""
        pos = {agent: k for k, agent in enumerate(self.hidden_pi)}
        c = self.c

        def step(state: tuple, agent: int) -> tuple:
            ok, last, size = state
            if ok and pos[agent] > last:
                return True, pos[agent], size + 1
            return False, None, size + 1

        def read(state: tuple, agent: int) -> int:
            ok, _, size = state
            return 1 if size < c or ok else 0

        return Structure((True, -1, 0), step, read, read, 1, True)


def random_lower_bound_instance(n: int, c: int, seed: int) -> LowerBoundInstance:
    """Instance with the hidden sequence drawn uniformly from all n! orders."""
    rng = random.Random(seed)
    return LowerBoundInstance(n, c, tuple(rng.sample(range(n), n)))

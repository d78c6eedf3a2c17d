"""Decide whether a full feasible collection of actions can be produced by
some action sequence, for any downward-closed constraint with endogenous
best responses.

A collection of actions is a dict {agent: action token}; the token type is
opaque to this module.  A context supplies the feasibility predicate and the
best-response function BR(i, collection).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Mapping, Optional


@dataclass(frozen=True)
class FeasibilityContext:
    """The two callables a structure must provide.

    feasible(M) decides whether a collection is allowed; it must be downward
    closed (every sub-collection of a feasible collection is feasible).
    best_response(i, M) returns agent i's best action a such that M + (i, a)
    stays feasible, and must be deterministic (strict rankings).
    """

    n: int
    feasible: Callable[[Mapping[int, object]], bool]
    best_response: Callable[[int, Mapping[int, object]], object]


def produce_collection(ctx: FeasibilityContext, seq) -> dict:
    """Simulate a (sub)sequence: each agent takes her best response in turn."""
    acts: dict = {}
    for agent in seq:
        acts[agent] = ctx.best_response(agent, acts)
    return acts


def sequence_for_collection(ctx: FeasibilityContext,
                            target: Mapping[int, object]) -> Optional[tuple]:
    """A sequence producing `target`, or None when no such sequence exists.

    Greedy: repeatedly emit the smallest-index pending agent whose best
    response to the actions fixed so far is her target action.  If at some
    round no pending agent qualifies, no producing sequence exists at all.
    Raises ValueError (distinct from the None failure) when the target is not
    a full feasible collection.
    """
    if set(target) != set(range(ctx.n)):
        raise ValueError("target collection is not full")
    if not ctx.feasible(target):
        raise ValueError("target collection is infeasible")
    pending = set(range(ctx.n))
    acts: dict = {}
    order = []
    while pending:
        pick = None
        for i in sorted(pending):
            if ctx.best_response(i, acts) == target[i]:
                pick = i
                break
        if pick is None:
            return None
        order.append(pick)
        pending.remove(pick)
        acts[pick] = target[pick]
    return tuple(order)


def dominates(inst, a, b) -> bool:
    """True iff collection `a` weakly rank-improves on `b` for every agent and
    strictly for one, ranking actions by `inst.rank(agent, action)`."""
    strict = False
    for i in range(inst.n):
        ra, rb = inst.rank(i, a[i]), inst.rank(i, b[i])
        if ra > rb:
            return False
        if ra < rb:
            strict = True
    return strict


def is_downward_closed_on(ctx: FeasibilityContext,
                          collection: Mapping[int, object]) -> bool:
    """Check every sub-collection of `collection` is feasible (2^|collection|)."""
    items = list(collection.items())
    for k in range(len(items) + 1):
        for subset in combinations(items, k):
            if not ctx.feasible(dict(subset)):
                return False
    return True

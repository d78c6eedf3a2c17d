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


def producing_sequence(n: int, start, step: Callable, act: Callable, target,
                       *, commit_first: bool) -> Optional[tuple]:
    """The lexicographically smallest sequence producing `target`, or None.

    Agent i may go next when act(i, state) == target[i]; the state becomes
    step(state, i).  Choices are final, so acted sets (bitmasks) that lead
    nowhere are remembered and skipped.  `commit_first` stops at the first
    dead end, exact when committing never hurts (downward-closed constraints).
    """
    full = (1 << n) - 1
    dead: set = set()
    path = [[0, start, 0]]  # per depth: acted set, state, next agent to try
    while path:
        acted, state, i = path[-1]
        if acted == full:
            return tuple(frame[2] - 1 for frame in path[:-1])
        while i < n and (acted >> i & 1 or (acted | 1 << i) in dead
                         or act(i, state) != target[i]):
            i += 1
        if i == n:
            if commit_first:
                return None
            dead.add(acted)
            path.pop()
        else:
            path[-1][2] = i + 1
            path.append([acted | 1 << i, step(state, i), 0])
    return None


def sequence_for_collection(ctx: FeasibilityContext,
                            target: Mapping[int, object]) -> Optional[tuple]:
    """A sequence producing `target`, or None when no such sequence exists.

    Greedy: the smallest-index agent whose best response is her target action
    commits; if none qualifies, no producing sequence exists at all.  Raises
    ValueError (distinct from the None failure) when the target is not a full
    feasible collection.
    """
    if set(target) != set(range(ctx.n)):
        raise ValueError("target collection is not full")
    if not ctx.feasible(target):
        raise ValueError("target collection is infeasible")
    return producing_sequence(ctx.n, {}, lambda acts, i: {**acts, i: target[i]},
                              ctx.best_response, target, commit_first=True)


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

"""Decide whether a full collection of actions can be produced by some
action sequence of a structured instance, each agent doing her `act` in the
state her prefix leaves.

A collection of actions maps each agent to an action token (a tuple
indexed by agent); the token type is opaque to this module.
"""

from __future__ import annotations

from typing import Optional


def producing_sequence(instance, target, *, commit_first: bool) -> Optional[tuple]:
    """The lexicographically smallest sequence producing `target`, or None.

    Agent i may go next when act(state, i) == target[i] in the instance's
    `Structure`; the state becomes step(state, i).  Choices are final, so
    nodes (acted set as a bitmask, state) that lead nowhere are remembered
    and skipped; by the `Structure` contract a node fixes every later act
    and step.  `commit_first` stops at the first dead end, exact when
    committing never hurts (downward-closed constraints).
    """
    n = instance.n
    start, step, act, *_ = instance.structure
    full = (1 << n) - 1
    dead: set = set()
    path = [[0, start, 0]]  # per depth: acted set, state, next agent to try
    while path:
        acted, state, i = path[-1]
        if acted == full:
            return tuple(frame[2] - 1 for frame in path[:-1])
        while i < n:
            if not acted >> i & 1 and act(state, i) == target[i]:
                child = (acted | 1 << i, step(state, i))
                if child not in dead:
                    break
            i += 1
        if i == n:
            if commit_first:
                return None
            dead.add((acted, state))
            path.pop()
        else:
            path[-1][2] = i + 1
            path.append([*child, 0])
    return None


def sequence_for_collection(instance, target) -> Optional[tuple]:
    """A sequence producing `target`, or None when no such sequence exists.

    Each agent's act is her best response to what was taken before her,
    under a downward-closed constraint (every sub-collection of a feasible
    collection is feasible).  Committing greedily is then exact: once agent
    i's best response is target[i], it stays so while the others take their
    target actions, since her options only shrink and target[i] stays among
    them.  So the first dead end is final.  The caller checks that `target`
    is a full feasible collection.
    """
    return producing_sequence(instance, target, commit_first=True)


def is_pareto_optimal(inst, candidate, alternatives) -> bool:
    """True iff no collection in `alternatives` dominates `candidate`: ranks
    every agent's action at least as well (by `inst.rank`) and one better."""
    ranked = [inst.rank(i, candidate[i]) for i in range(inst.n)]
    for alt in alternatives:
        strict = False
        for i, rank in enumerate(ranked):
            alt_rank = inst.rank(i, alt[i])
            if alt_rank > rank:
                break
            strict = strict or alt_rank < rank
        else:
            if strict:
                return False
    return True

"""Link-drawing valuations over a complete directed graph: when her turn
comes, an agent draws her best-ranked outgoing edge that keeps the drawn
edges acyclic.

A full run always ends in n-1 edges forming a tree directed toward a root,
namely the one agent whose every outgoing edge would have closed a cycle.
The `parent` encoding below maps each agent to her edge target, with None for
the rootless agent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import product
from math import factorial
from typing import Iterator, Optional, Sequence

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
class ArborescenceInstance:
    n: int
    weights: tuple  # weights[i][j]: value of edge i->j; diagonal is None
    prefs: tuple    # prefs[i]: the n-1 targets in strictly decreasing preference

    def __post_init__(self):
        if self.n < 1 or len(self.weights) != self.n or len(self.prefs) != self.n:
            raise ValueError("inconsistent instance dimensions")
        for i in range(self.n):
            row = self.weights[i]
            if len(row) != self.n or row[i] is not None:
                raise ValueError("diagonal must be None (no self-edges)")
            for j in range(self.n):
                if j != i and (not isinstance(row[j], Fraction) or row[j] < 0):
                    raise ValueError("weights must be non-negative rationals")
            if sorted(self.prefs[i]) != [j for j in range(self.n) if j != i]:
                raise ValueError("prefs must order the n-1 possible targets")
            for a, b in zip(self.prefs[i], self.prefs[i][1:]):
                if row[a] < row[b]:
                    raise ValueError("prefs inconsistent with weights")

    def rank(self, agent: int, target: Optional[int]) -> int:
        """Edge rank (0 = best); drawing no edge ranks below every edge."""
        if target is None:
            return self.n - 1
        return self.prefs[agent].index(target)

    @classmethod
    def from_weights(cls, weights: Sequence[Sequence]) -> "ArborescenceInstance":
        """Derive preferences; equal weights rank the lower target first."""
        n = len(weights)
        rows = tuple(
            tuple(None if i == j else Fraction(weights[i][j]) for j in range(n))
            for i in range(n)
        )
        prefs = tuple(
            tuple(sorted((j for j in range(n) if j != i),
                         key=lambda j: (-rows[i][j], j)))
            for i in range(n)
        )
        return cls(n, rows, prefs)


def _reaches(out: dict, start: int, goal: int) -> bool:
    """Walk out-edges from `start`; True iff the walk hits `goal`.

    Every node has out-degree <= 1, so this is a single chase; the visited
    guard protects against cycles in malformed inputs.
    """
    seen = set()
    node = start
    while node in out and node not in seen:
        seen.add(node)
        node = out[node]
        if node == goal:
            return True
    return node == goal


def _best_target(inst: ArborescenceInstance, agent: int, out: dict) -> Optional[int]:
    """Best-ranked target whose edge closes no cycle with `out`; None if all do."""
    for j in inst.prefs[agent]:
        if not _reaches(out, j, agent):
            return j
    return None


def _step(inst: ArborescenceInstance, out: dict, agent: int) -> dict:
    target = _best_target(inst, agent, out)
    return out if target is None else {**out, agent: target}


def _simulate_draws(inst: ArborescenceInstance, seq) -> dict:
    """Out-edge map after the agents in `seq` acted in order."""
    return reduce(partial(_step, inst), seq, {})


def osa_oracle(inst: ArborescenceInstance) -> ValuationOracle:
    """v_i(S) = weight of i's best non-forbidden edge after simulating S.

    An edge i->j is forbidden when j already reaches i through drawn edges;
    if every edge is forbidden the value is 0.  The simulation resumes from
    the edges drawn by the longest prefix shared with the previous query.
    """
    states = PrefixStates({}, partial(_step, inst))

    def fn(agent: int, seq: tuple) -> Value:
        target = _best_target(inst, agent, states.after(seq))
        if target is None:
            return Fraction(0)
        return inst.weights[agent][target]

    return ValuationOracle(inst.n, fn, monotone_claimed=True)


def greedy_osa(oracle: ValuationOracle) -> ActionSeq:
    """Cycle-evicting greedy sequence builder (O(n^2) queries).

    Agents whose current value still equals v_i(empty) join the working prefix.
    Otherwise the blocking cycle is located by probing v_i(prefix minus j) for
    each j, the cycle member with the smallest v(empty) is evicted to a reserve
    list (ties: smallest index), and i joins.  The reserve list, in eviction
    order, is appended at the end.
    """
    n = oracle.n
    prefix: list = []
    reserve: list = []
    for i in range(n):
        v_now = oracle.value(i, tuple(prefix))
        v_top = oracle.value(i, ())
        if v_now == v_top:
            prefix.append(i)
            continue
        cycle = [i] + [j for j in prefix
                       if oracle.value(i, tuple(x for x in prefix if x != j)) == v_top]
        loser = min(cycle, key=lambda t: (oracle.value(t, ()), t))
        prefix.append(i)
        prefix.remove(loser)
        reserve.append(loser)
    return tuple(prefix + reserve)


def bit(n: int, coin: bool) -> ActionSeq:
    """Coin-flip sequence: ascending on heads (True), descending on tails.

    Uses no queries at all, which is what makes it impossible to game.
    """
    if n < 1:
        raise ValueError("need at least one agent")
    return tuple(range(n)) if coin else tuple(reversed(range(n)))


def arborescence_from_sequence(inst: ArborescenceInstance, seq) -> tuple:
    """Arborescence produced by a full sequence: parent[i] = target or None."""
    seq = tuple(seq)
    check_action_seq(seq, inst.n, full=True)
    out = _simulate_draws(inst, seq)
    return tuple(out.get(i) for i in range(inst.n))


def check_arborescence(parent, n: int) -> None:
    """Validate: exactly one rootless agent, n-1 edges, no directed cycle."""
    if len(parent) != n:
        raise ValueError("parent vector has wrong length")
    roots = [i for i in range(n) if parent[i] is None]
    if len(roots) != 1:
        raise ValueError("an arborescence has exactly one rootless agent")
    out = {i: parent[i] for i in range(n) if parent[i] is not None}
    for i, j in out.items():
        if not 0 <= j < n or j == i:
            raise ValueError("bad edge target")
    for i in range(n):  # every walk must end at the root
        if not _reaches(out, i, roots[0]) and i != roots[0]:
            raise ValueError("edges contain a cycle or disconnected part")


def all_arborescences(n: int, caps: Optional[Caps] = None) -> Iterator[tuple]:
    """Yield every arborescence on n labeled nodes (n^(n-1) of them)."""
    caps = caps or DEFAULT_CAPS
    if n * max(n - 1, 1) ** max(n - 1, 1) > factorial(caps.factorial):
        raise CapExceededError("arborescence enumeration over budget")
    if n == 1:
        yield (None,)
        return
    for root in range(n):
        others = [i for i in range(n) if i != root]
        for choice in product(*[[j for j in range(n) if j != i] for i in others]):
            parent = [None] * n
            for i, j in zip(others, choice):
                parent[i] = j
            out = {i: parent[i] for i in range(n) if parent[i] is not None}
            if all(_reaches(out, i, root) for i in others):
                yield tuple(parent)


def _dominates(inst: ArborescenceInstance, a, b) -> bool:
    strict = False
    for i in range(inst.n):
        ra, rb = inst.rank(i, a[i]), inst.rank(i, b[i])
        if ra > rb:
            return False
        if ra < rb:
            strict = True
    return strict


def is_pareto_optimal_arborescence(inst: ArborescenceInstance, parent,
                                   caps: Optional[Caps] = None) -> bool:
    """Brute-force dominance check over every arborescence."""
    check_arborescence(parent, inst.n)
    return not any(_dominates(inst, alt, parent)
                   for alt in all_arborescences(inst.n, caps))


def arborescence_context(inst: ArborescenceInstance) -> FeasibilityContext:
    """Feasibility wiring: directed forests; the action token is the edge
    target, or None for drawing nothing."""
    def feasible(acts) -> bool:
        out = {i: j for i, j in acts.items() if j is not None}
        for i in out:
            if _reaches(out, out[i], i):
                return False
        return True

    def best_response(agent: int, acts):
        out = {i: j for i, j in acts.items() if j is not None}
        return _best_target(inst, agent, out)

    return FeasibilityContext(inst.n, feasible, best_response)


def sequence_for_arborescence(inst: ArborescenceInstance,
                              parent) -> Optional[tuple]:
    """A sequence producing the arborescence, or None when none exists."""
    check_arborescence(parent, inst.n)
    return sequence_for_collection(arborescence_context(inst),
                                   {i: parent[i] for i in range(inst.n)})


def random_digraph_instance(n: int, seed: int,
                            weight_denominator: int = 100) -> ArborescenceInstance:
    """Uniform i.i.d. edge weights k/weight_denominator on all n(n-1) edges."""
    rng = random.Random(seed)
    weights = [[Fraction(0) if i == j
                else Fraction(rng.randint(0, weight_denominator), weight_denominator)
                for j in range(n)] for i in range(n)]
    return ArborescenceInstance.from_weights(weights)


@underlying_optimum.register
def _(inst: ArborescenceInstance, caps: Optional[Caps] = None) -> Value:
    """Max-weight arborescence by a dynamic program over node sets.

    best[mask] is the heaviest in-tree spanning the nodes in mask.  A tree on
    two or more nodes has a node no edge enters, and removing it leaves a
    tree, so every tree grows one node at a time, each new node drawing its
    heaviest edge into the set.  O(n^2 * 2^n).
    """
    caps = caps or DEFAULT_CAPS
    n = inst.n
    if n > caps.subset:
        raise CapExceededError(f"n={n} exceeds subset cap {caps.subset}")
    best = [None] * (1 << n)
    for v in range(n):
        best[1 << v] = Fraction(0)
    for mask in range(1, (1 << n) - 1):  # every submask of a mask comes first
        members = [u for u in range(n) if mask >> u & 1]
        for v in range(n):
            if not mask >> v & 1:
                row = inst.weights[v]
                cand = best[mask] + max(row[u] for u in members)
                grown = mask | 1 << v
                if best[grown] is None or cand > best[grown]:
                    best[grown] = cand
    return best[-1]


@oracle_for.register
def _(inst: ArborescenceInstance) -> ValuationOracle:
    return osa_oracle(inst)

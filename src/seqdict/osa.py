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
from functools import cached_property, lru_cache, partial
from itertools import product
from typing import Iterator, Optional, Sequence

from .core import (
    ActionSeq,
    Caps,
    DEFAULT_CAPS,
    ScaledWeights,
    Structure,
    Value,
    ValuationOracle,
    actions as arborescence_from_sequence,  # parent[i] = target or None
    as_fraction,
    oracle_for as osa_oracle,
)
from .feasibility import is_pareto_optimal, sequence_for_collection


def digraph_rows(weights: Sequence[Sequence]) -> tuple:
    """Weight rows of a digraph as Fractions, with None on the diagonal."""
    n = len(weights)
    return tuple(
        tuple(None if i == j else as_fraction(weights[i][j]) for j in range(n))
        for i in range(n)
    )


def check_digraph_row(row, i: int, n: int) -> None:
    """Row i of a digraph weight matrix: None at i, non-negative rationals elsewhere."""
    if len(row) != n or row[i] is not None:
        raise ValueError("diagonal must be None (no self-edges)")
    for j in range(n):
        if j != i and (not isinstance(row[j], Fraction) or row[j] < 0):
            raise ValueError("weights must be non-negative rationals")


@dataclass(frozen=True)
class ArborescenceInstance(ScaledWeights):
    kind = "osa"  # its name in instance files; a class attribute, not a field
    n: int
    weights: tuple  # weights[i][j]: value of edge i->j; diagonal is None
    prefs: tuple    # prefs[i]: the n-1 targets in strictly decreasing preference

    def __post_init__(self):
        if self.n < 1 or len(self.weights) != self.n or len(self.prefs) != self.n:
            raise ValueError("inconsistent instance dimensions")
        for i in range(self.n):
            check_digraph_row(self.weights[i], i, self.n)
            if sorted(self.prefs[i]) != [j for j in range(self.n) if j != i]:
                raise ValueError("prefs must order the n-1 possible targets")
        self.check_prefs()

    def rank(self, agent: int, target: Optional[int]) -> int:
        """Edge rank (0 = best); drawing no edge ranks below every edge."""
        if target is None:
            return self.n - 1
        return self.prefs[agent].index(target)

    @cached_property
    def structure(self) -> Structure:
        """v_i(S) = weight of i's best non-forbidden edge after simulating S.

        An edge i->j is forbidden when j already reaches i through drawn edges;
        if every edge is forbidden the value is 0.  The state is the walk ends
        of `draw`: the end of the walk from each node, which an agent's draw
        passes on to every node whose walk ended at her.
        """
        scale, rows = self.scaled
        targets = self.prefs

        def read(end: str, agent: int) -> int:
            target = best_addable(targets, end, agent)
            return 0 if target is None else rows[agent][target]

        return Structure(walk_start(self.n), partial(draw, targets, False),
                         partial(best_addable, targets), read, scale, True, self.n)

    def optimum(self, caps: Optional[Caps] = None) -> Value:
        """Max-weight arborescence by a dynamic program over node sets.

        best[mask] is the heaviest in-tree spanning the nodes in mask, as an int
        over the instance's common denominator.  A tree on two or more nodes has
        a node no edge enters, and removing it leaves a tree, so every tree
        grows one node at a time, each new node drawing its heaviest edge into
        the set.  O(n^2 * 2^n).
        """
        n = self.n
        (caps or DEFAULT_CAPS).check_subset(n)
        scale, weights = self.scaled
        best = [0] * (1 << n)  # weights are non-negative and every mask is filled
        for mask in range(1, (1 << n) - 1):  # every submask of a mask comes first
            members = [u for u in range(n) if mask >> u & 1]
            base = best[mask]
            for v in range(n):
                if not mask >> v & 1:
                    cand = base + max(map(weights[v].__getitem__, members))
                    grown = mask | 1 << v
                    if cand > best[grown]:
                        best[grown] = cand
        return Fraction(best[-1], scale)

    @classmethod
    def from_weights(cls, weights: Sequence[Sequence]) -> "ArborescenceInstance":
        """Derive preferences; equal weights rank the lower target first."""
        return cls.from_rows(digraph_rows(weights))


def reaches(out: dict, start: int, goal: int) -> bool:
    """Walk out-edges from `start`; True iff the walk hits `goal`.

    Every node has out-degree <= 1, so this is a single chase; the visited
    guard protects against cycles in malformed inputs.  A None target (an
    agent that drew no edge), or a None `start`, ends the walk.
    """
    seen = set()
    node = start
    while node in out and node not in seen:
        seen.add(node)
        node = out[node]
        if node == goal:
            return True
    return node == goal


def walk_start(n: int) -> str:
    """The walk ends of n nodes before any edge is drawn: each node ends its
    own walk.  Walk ends are a str of one code point per node, chr(e) for
    the end e of the walk from that node, and chr(n), which no node has,
    once the node may take no further incoming edge."""
    return "".join(map(chr, range(n)))


def best_addable(targets: tuple, end: str, agent: int) -> Optional[int]:
    """The agent's first target j in `targets[agent]` (her preference order)
    whose edge agent->j may be drawn, or None if there is none.

    end[j] is the last node of the walk from j along the drawn edges, or
    chr(len(end)) once j may take no further incoming edge (`walk_start`).
    The agent has not acted, so she ends her own path: agent->j closes a
    cycle exactly when end[j] is the agent.
    """
    own, closed = chr(agent), chr(len(end))
    for j in targets[agent]:
        e = end[j]
        if e != own and e != closed:
            return j
    return None


def draw(targets: tuple, in_degree_one: bool, end: str, agent: int) -> str:
    """The walk ends after the agent draws her `best_addable` edge (none if
    there is none): every walk that ended at her now ends where her
    target's walk does, by one `str.replace`.  With `in_degree_one`, her
    target takes no further edge."""
    target = best_addable(targets, end, agent)
    if target is None:
        return end
    end = end.replace(chr(agent), end[target])
    if in_degree_one:
        end = end[:target] + chr(len(end)) + end[target + 1:]
    return end


def greedy_osa(oracle: ValuationOracle) -> ActionSeq:
    """Cycle-evicting greedy sequence builder (O(n^2) queries).

    Agents whose current value still equals v_i(empty) join the working prefix.
    Otherwise the blocking cycle is located by probing v_i(prefix minus j) for
    each j, the cycle member with the smallest v(empty) is evicted to a reserve
    list (ties: smallest index), and i joins.  The reserve list, in eviction
    order, is appended at the end.

    The working prefix is a checked prefix of the oracle's walk: a joining
    agent grows it by `then`, and only an eviction that drops one of its
    agents walks it again from the start.
    """
    read, walk = oracle.value_scaled, oracle.prefixes
    prefix = walk.root
    reserve: list = []
    for i in range(oracle.n):
        v_now = read(i, prefix)
        v_top = read(i, ())
        if v_now == v_top:
            prefix = prefix.then(i)
            continue
        agents = prefix.agents
        cycle = [i] + [j for j in agents
                       if read(i, tuple(x for x in agents if x != j)) == v_top]
        loser = min(cycle, key=lambda t: (read(t, ()), t))
        if loser != i:
            prefix = walk.walk(tuple(x for x in agents if x != loser) + (i,))
        reserve.append(loser)
    return prefix.agents + tuple(reserve)


def bit(n: int, coin: bool) -> ActionSeq:
    """Coin-flip sequence: ascending on heads (True), descending on tails.

    Uses no queries at all, which is what makes it impossible to game.
    """
    if n < 1:
        raise ValueError("need at least one agent")
    return tuple(range(n)) if coin else tuple(reversed(range(n)))


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
        if not reaches(out, i, roots[0]) and i != roots[0]:
            raise ValueError("edges contain a cycle or disconnected part")


def all_arborescences(n: int, caps: Optional[Caps] = None) -> Iterator[tuple]:
    """An iterator over every arborescence on n labeled nodes (n^(n-1) of
    them), by root, then by the parent vectors of the others in product order.

    The caps are checked on every call, before any work.  The table is built
    once per size and kept for the most recent size only, so repeated calls
    at one n (a Pareto check per candidate) share a single enumeration.
    """
    (caps or DEFAULT_CAPS).check_work(n * max(n - 1, 1) ** max(n - 1, 1),
                                      "arborescence enumeration")
    return iter(_arborescence_table(n))


@lru_cache(maxsize=1)
def _arborescence_table(n: int) -> tuple:
    if n == 1:
        return ((None,),)
    table = []
    for root in range(n):
        others = [i for i in range(n) if i != root]
        for choice in product(*[[j for j in range(n) if j != i] for i in others]):
            parent = [None] * n
            for i, j in zip(others, choice):
                parent[i] = j
            out = {i: parent[i] for i in range(n) if parent[i] is not None}
            if all(reaches(out, i, root) for i in others):
                table.append(tuple(parent))
    return tuple(table)


def is_pareto_optimal_arborescence(inst: ArborescenceInstance, parent,
                                   caps: Optional[Caps] = None) -> bool:
    """Brute-force dominance check over every arborescence.

    The first call at a size builds that size's whole `all_arborescences`
    table before any candidate is compared, even where an early one
    dominates; later calls at the same size reuse it."""
    check_arborescence(parent, inst.n)
    return is_pareto_optimal(inst, parent, all_arborescences(inst.n, caps))


def sequence_for_arborescence(inst: ArborescenceInstance,
                              parent) -> Optional[tuple]:
    """A sequence producing the arborescence, or None when none exists."""
    check_arborescence(parent, inst.n)
    return sequence_for_collection(inst, tuple(parent))


def random_digraph_weights(n: int, seed: int, weight_denominator: int = 100) -> list:
    """Uniform i.i.d. edge weights k/weight_denominator on all n(n-1) edges."""
    rng = random.Random(seed)
    return [[Fraction(0) if i == j
             else Fraction(rng.randint(0, weight_denominator), weight_denominator)
             for j in range(n)] for i in range(n)]


def random_digraph_instance(n: int, seed: int,
                            weight_denominator: int = 100) -> ArborescenceInstance:
    """An arborescence instance on `random_digraph_weights`."""
    return ArborescenceInstance.from_weights(
        random_digraph_weights(n, seed, weight_denominator))

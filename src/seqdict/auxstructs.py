"""Two further valuation structures used as case studies.

Independent sets: an agent scores 1 while the acted set plus herself is still
independent in an undirected graph, so the best sequence fronts a maximum
independent set (and the whole graph can be learned from pair queries).

Longest paths: agents are nodes of a weighted digraph; each in turn adds her
heaviest edge that keeps the drawn edges a union of vertex-disjoint paths.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from typing import Iterable, Optional

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


@dataclass(frozen=True)
class OsiInstance:
    n: int
    adj: tuple  # symmetric boolean matrix, no self-loops

    def __post_init__(self):
        if self.n < 1 or len(self.adj) != self.n:
            raise ValueError("bad adjacency matrix")
        for i in range(self.n):
            if len(self.adj[i]) != self.n or self.adj[i][i]:
                raise ValueError("self-loops are not allowed")
            for j in range(self.n):
                if self.adj[i][j] != self.adj[j][i]:
                    raise ValueError("adjacency must be symmetric")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable) -> "OsiInstance":
        adj = [[False] * n for _ in range(n)]
        for i, j in edges:
            if i == j or not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"bad edge ({i}, {j})")
            adj[i][j] = adj[j][i] = True
        return cls(n, tuple(tuple(row) for row in adj))

    def edges(self) -> list:
        return [(i, j) for i in range(self.n) for j in range(i + 1, self.n)
                if self.adj[i][j]]


def osi_oracle(inst: OsiInstance) -> ValuationOracle:
    """v_i(S) = 1 iff the nodes of S plus i form an independent set."""
    def fn(agent: int, seq: tuple) -> Value:
        nodes = list(seq) + [agent]
        for a in range(len(nodes)):
            for b in range(a + 1, len(nodes)):
                if inst.adj[nodes[a]][nodes[b]]:
                    return Fraction(0)
        return Fraction(1)

    return ValuationOracle(inst.n, fn, monotone_claimed=True)


def _mis_from_masks(n: int, nbr: list) -> int:
    """Maximum independent set as a bitmask, given neighbor bitmasks.

    Include-first depth-first search with a size prune; the first maximum
    found is the one with the lexicographically smallest member list.
    """
    best_mask = 0
    best_size = 0

    def rec(i: int, mask: int, size: int, banned: int) -> None:
        nonlocal best_mask, best_size
        if size + (n - i) <= best_size:
            return
        if i == n:
            if size > best_size:
                best_mask, best_size = mask, size
            return
        if not banned >> i & 1:
            rec(i + 1, mask | 1 << i, size + 1, banned | nbr[i])
        rec(i + 1, mask, size, banned)

    rec(0, 0, 0, 0)
    return best_mask


def max_independent_set(inst: OsiInstance,
                        caps: Optional[Caps] = None) -> frozenset:
    """Lexicographically-smallest maximum independent set, by subset search."""
    caps = caps or DEFAULT_CAPS
    if inst.n > caps.subset:
        raise CapExceededError(f"n={inst.n} exceeds subset cap {caps.subset}")
    nbr = [sum(1 << j for j in range(inst.n) if inst.adj[i][j])
           for i in range(inst.n)]
    mask = _mis_from_masks(inst.n, nbr)
    return frozenset(i for i in range(inst.n) if mask >> i & 1)


def osi_learn_and_solve(oracle: ValuationOracle,
                        caps: Optional[Caps] = None) -> ActionSeq:
    """Learn the graph from all n(n-1) pair queries, then front a maximum
    independent set (ascending), remaining agents ascending after it."""
    caps = caps or DEFAULT_CAPS
    n = oracle.n
    if n > caps.subset:
        raise CapExceededError(f"n={n} exceeds subset cap {caps.subset}")
    nbr = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and oracle.value(i, (j,)) == 0:
                nbr[i] |= 1 << j
    mask = _mis_from_masks(n, nbr)
    members = [i for i in range(n) if mask >> i & 1]
    return tuple(members) + tuple(i for i in range(n) if not mask >> i & 1)


@underlying_optimum.register
def _(inst: OsiInstance, caps: Optional[Caps] = None) -> Value:
    return Fraction(len(max_independent_set(inst, caps)))


@oracle_for.register
def _(inst: OsiInstance) -> ValuationOracle:
    return osi_oracle(inst)


def random_osi_instance(n: int, seed: int) -> OsiInstance:
    """Each of the n(n-1)/2 edges present independently with probability 1/2."""
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.getrandbits(1)]
    return OsiInstance.from_edges(n, edges)


@dataclass(frozen=True)
class PathsInstance:
    n: int
    weights: tuple  # weights[i][j]: weight of edge i->j; diagonal is None

    def __post_init__(self):
        if self.n < 1 or len(self.weights) != self.n:
            raise ValueError("bad weight matrix")
        for i in range(self.n):
            row = self.weights[i]
            if len(row) != self.n or row[i] is not None:
                raise ValueError("diagonal must be None (no self-edges)")
            for j in range(self.n):
                if j != i and (not isinstance(row[j], Fraction) or row[j] < 0):
                    raise ValueError("weights must be non-negative rationals")

    @classmethod
    def from_weights(cls, weights) -> "PathsInstance":
        n = len(weights)
        rows = tuple(
            tuple(None if i == j else Fraction(weights[i][j]) for j in range(n))
            for i in range(n)
        )
        return cls(n, rows)


def _walk_reaches(out: dict, start: int, goal: int) -> bool:
    seen = set()
    node = start
    while node in out and node not in seen:
        seen.add(node)
        node = out[node]
        if node == goal:
            return True
    return node == goal


def _best_addable(inst: PathsInstance, agent: int, out: dict, has_in: frozenset):
    """Heaviest edge agent->j keeping a union of paths; ties pick smallest j.

    Addable means: j has no incoming edge yet and j's path does not already
    lead back to the agent (which would close a cycle).
    """
    best = None
    best_w = None
    for j in range(inst.n):
        if j == agent or j in has_in or _walk_reaches(out, j, agent):
            continue
        w = inst.weights[agent][j]
        if best_w is None or w > best_w:
            best, best_w = j, w
    return best, best_w


def _step(inst: PathsInstance, state: tuple, agent: int) -> tuple:
    out, has_in = state
    target, _ = _best_addable(inst, agent, out, has_in)
    if target is None:
        return state
    return {**out, agent: target}, has_in | {target}


def _simulate_path_edges(inst: PathsInstance, seq) -> tuple[dict, frozenset]:
    return reduce(partial(_step, inst), seq, ({}, frozenset()))


def paths_oracle(inst: PathsInstance) -> ValuationOracle:
    """v_i(S) = weight of i's heaviest still-addable edge after simulating S.

    These valuations are NOT monotone in general, despite the resemblance to
    the arborescence structure: with 4+ nodes, an extra predecessor can grab
    an agent's target node (in-degree competition), rerouting that agent's
    edge and thereby unblocking an edge that the shorter prefix forbade.
    They are monotone for n <= 3, where no such rerouting is possible.  The
    simulation resumes from the edges drawn by the longest prefix shared with
    the previous query.
    """
    states = PrefixStates(({}, frozenset()), partial(_step, inst))

    def fn(agent: int, seq: tuple) -> Value:
        _, w = _best_addable(inst, agent, *states.after(seq))
        return Fraction(0) if w is None else w

    return ValuationOracle(inst.n, fn, monotone_claimed=False)


def paths_edges_from_sequence(inst: PathsInstance, seq) -> dict:
    """Out-edge map drawn by a full sequence (used for structural checks)."""
    seq = tuple(seq)
    check_action_seq(seq, inst.n, full=True)
    out, _ = _simulate_path_edges(inst, seq)
    return out


def check_path_union(out: dict, n: int) -> None:
    """Validate out-degree <= 1 (implicit), in-degree <= 1, and no cycles."""
    targets = list(out.values())
    if len(targets) != len(set(targets)):
        raise ValueError("a node has in-degree above 1")
    for i in out:
        if _walk_reaches(out, out[i], i):
            raise ValueError("edges contain a cycle")


def posd_paths_instance(eps) -> PathsInstance:
    """Four nodes whose unique optimum path no sequence can assemble.

    The chain 0->1->2->3 weighs 3, but the tempting (1+eps)-edges derail every
    sequence to at most 2+eps.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    w = [[Fraction(0)] * 4 for _ in range(4)]
    w[0][1] = w[1][2] = w[2][3] = Fraction(1)
    w[0][3] = w[1][3] = w[2][1] = 1 + eps
    return PathsInstance.from_weights(w)


def nonmonotone_paths_instance() -> PathsInstance:
    """The four-node witness that disjoint-paths valuations are not monotone:
    agent 2's value after (1,) is 0 but after (0, 1) it is 1.

    After (1,), agent 1 draws 1->0, so node 0 is taken and 2->0 is blocked.
    After (0, 1), agent 0 has drawn 0->1, so 1->0 would close a cycle; agent
    1 draws 1->3 instead and leaves node 0 free for 2->0.
    """
    w = [[Fraction(0)] * 4 for _ in range(4)]
    w[1][0] = w[1][3] = w[2][0] = w[3][1] = w[3][2] = Fraction(1)
    return PathsInstance.from_weights(w)


def random_paths_instance(n: int, seed: int,
                          weight_denominator: int = 100) -> PathsInstance:
    rng = random.Random(seed)
    weights = [[Fraction(0) if i == j
                else Fraction(rng.randint(0, weight_denominator), weight_denominator)
                for j in range(n)] for i in range(n)]
    return PathsInstance.from_weights(weights)


def max_disjoint_paths_weight(inst: PathsInstance,
                              caps: Optional[Caps] = None) -> Value:
    """Exact max-weight union of vertex-disjoint paths.

    Dynamic program over (used-node set, open-path endpoint): either extend
    the open path with a fresh node or close it and start a new path.  Every
    disjoint-path union is built exactly this way, path by path.
    """
    caps = caps or DEFAULT_CAPS
    n = inst.n
    if n > caps.subset:
        raise CapExceededError(f"n={n} exceeds subset cap {caps.subset}")
    size = 1 << n
    open_best = [[None] * n for _ in range(size)]
    best = Fraction(0)
    closed = [None] * size
    closed[0] = Fraction(0)
    for mask in range(size):
        c = closed[mask]
        for last in range(n):
            v = open_best[mask][last]
            if v is not None and (c is None or v > c):
                c = v
        if c is None:
            continue
        closed[mask] = c
        if c > best:
            best = c
        for j in range(n):
            if mask >> j & 1:
                continue
            nm = mask | 1 << j
            row = open_best[nm]
            if row[j] is None or c > row[j]:
                row[j] = c  # close everything, start a new path at j
            for last in range(n):
                v = open_best[mask][last]
                if v is None:
                    continue
                cand = v + inst.weights[last][j]
                if row[j] is None or cand > row[j]:
                    row[j] = cand
    return best


@underlying_optimum.register
def _(inst: PathsInstance, caps: Optional[Caps] = None) -> Value:
    return max_disjoint_paths_weight(inst, caps)


@oracle_for.register
def _(inst: PathsInstance) -> ValuationOracle:
    return paths_oracle(inst)

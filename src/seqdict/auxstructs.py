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
from functools import cached_property, partial
from typing import Iterable, Optional

from .core import (
    ActionSeq,
    Caps,
    DEFAULT_CAPS,
    ScaledWeights,
    Structure,
    Value,
    ValuationOracle,
    heaviest_first,
    oracle_for as osi_oracle,
    oracle_for as paths_oracle,
)
from .osa import (
    best_addable,
    check_digraph_row,
    digraph_rows,
    draw,
    random_digraph_weights,
    walk_start,
)


@dataclass(frozen=True)
class OsiInstance:
    kind = "osi"  # its name in instance files; a class attribute, not a field
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
        for edge in edges:
            if len(edge) != 2 or edge[0] == edge[1] or not all(0 <= k < n for k in edge):
                raise ValueError(f"bad edge {tuple(edge)}")
            i, j = edge
            adj[i][j] = adj[j][i] = True
        return cls(n, tuple(tuple(row) for row in adj))

    def edges(self) -> list:
        return [(i, j) for i in range(self.n) for j in range(i + 1, self.n)
                if self.adj[i][j]]

    @cached_property
    def structure(self) -> Structure:
        """v_i(S) = 1 iff the nodes of S plus i form an independent set.

        The state is the neighbours of the acted set as a bitmask, with every
        bit set once the acted set stops being independent, so it depends only
        on the set of agents that acted.  An agent's act is her value.
        """
        nbr = _neighbour_masks(self)
        dependent = (1 << self.n) - 1

        def step(mask: int, agent: int) -> int:
            return dependent if mask >> agent & 1 else mask | nbr[agent]

        def read(mask: int, agent: int) -> int:
            return 0 if mask >> agent & 1 else 1

        return Structure(0, step, read, read, 1, True)

    def optimum(self, caps: Optional[Caps] = None) -> Value:
        """The size of a maximum independent set (`max_independent_set`)."""
        return Fraction(len(max_independent_set(self, caps)))


def _neighbour_masks(inst: OsiInstance) -> list:
    """Each node's neighbours as a bitmask."""
    return [sum(1 << j for j in range(inst.n) if inst.adj[i][j]) for i in range(inst.n)]


def _mis_from_masks(n: int, nbr: list) -> int:
    """Maximum independent set as a bitmask, given neighbor bitmasks, by
    `_grow_independent` from node 0 and the empty set."""
    return _grow_independent(n, nbr, 0, 0, 0, 0, (0, 0))[0]


def _grow_independent(n: int, nbr: list, i: int, mask: int, size: int, banned: int,
                      best: tuple) -> tuple:
    """The better (mask, size) of `best` and the independent sets that add
    nodes i..n-1 to `mask`, which has `size` nodes and neighbours `banned`.

    Include-first depth-first search with a size prune; only a strictly
    larger set replaces `best`, so the first maximum found is the one with
    the lexicographically smallest member list."""
    if size + (n - i) <= best[1]:
        return best
    if i == n:
        return mask, size
    if not banned >> i & 1:
        best = _grow_independent(n, nbr, i + 1, mask | 1 << i, size + 1, banned | nbr[i], best)
    return _grow_independent(n, nbr, i + 1, mask, size, banned, best)


def max_independent_set(inst: OsiInstance,
                        caps: Optional[Caps] = None) -> frozenset:
    """Lexicographically-smallest maximum independent set, by subset search."""
    (caps or DEFAULT_CAPS).check_subset(inst.n)
    mask = _mis_from_masks(inst.n, _neighbour_masks(inst))
    return frozenset(i for i in range(inst.n) if mask >> i & 1)


def osi_learn_and_solve(oracle: ValuationOracle,
                        caps: Optional[Caps] = None) -> ActionSeq:
    """Learn the graph from all n(n-1) pair queries, then front a maximum
    independent set (ascending), remaining agents ascending after it."""
    n = oracle.n
    (caps or DEFAULT_CAPS).check_subset(n)
    nbr = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and oracle.value_scaled(i, (j,)) == 0:
                nbr[i] |= 1 << j
    mask = _mis_from_masks(n, nbr)
    members = [i for i in range(n) if mask >> i & 1]
    return tuple(members) + tuple(i for i in range(n) if not mask >> i & 1)


def random_osi_instance(n: int, seed: int) -> OsiInstance:
    """Each of the n(n-1)/2 edges present independently with probability 1/2."""
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.getrandbits(1)]
    return OsiInstance.from_edges(n, edges)


@dataclass(frozen=True)
class PathsInstance(ScaledWeights):
    kind = "paths"  # its name in instance files; a class attribute, not a field
    n: int
    weights: tuple  # weights[i][j]: weight of edge i->j; diagonal is None

    def __post_init__(self):
        if self.n < 1 or len(self.weights) != self.n:
            raise ValueError("bad weight matrix")
        for i in range(self.n):
            check_digraph_row(self.weights[i], i, self.n)

    @classmethod
    def from_weights(cls, weights) -> "PathsInstance":
        return cls(len(weights), digraph_rows(weights))

    @cached_property
    def structure(self) -> Structure:
        """v_i(S) = weight of i's heaviest still-addable edge after simulating S.

        These valuations are NOT monotone in general, despite the resemblance to
        the arborescence structure: with 4+ nodes, an extra predecessor can grab
        an agent's target node (in-degree competition), rerouting that agent's
        edge and thereby unblocking an edge that the shorter prefix forbade.
        They are monotone for n <= 3, where no such rerouting is possible.

        The state is the walk ends of `osa.draw`, with end[j] the code point
        chr(n) once an edge enters j (`osa.walk_start`): an edge i->j is
        addable iff end[j] is neither that nor i.
        """
        scale, rows = self.scaled
        targets = heaviest_first(rows)

        def read(end: str, agent: int) -> int:
            target = best_addable(targets, end, agent)
            return 0 if target is None else rows[agent][target]

        return Structure(walk_start(self.n), partial(draw, targets, True),
                         partial(best_addable, targets), read, scale, False)

    def optimum(self, caps: Optional[Caps] = None) -> Value:
        """Exact max-weight union of vertex-disjoint paths.

        Dynamic program over (used-node set, open-path endpoint): either extend
        the open path with a fresh node or close it and start a new path.  Every
        disjoint-path union is built exactly this way, path by path.  Weights
        are added as ints over the instance's common denominator, and -1 marks
        an endpoint outside the set.  Starting a new path adds nothing, so the
        best union over the full set is the best over any set.
        """
        n = self.n
        (caps or DEFAULT_CAPS).check_subset(n)
        scale, weights = self.scaled
        open_best = [[-1] * n for _ in range(1 << n)]
        for mask in range(1 << n):
            ends = open_best[mask]
            closed = max(ends) if mask else 0
            open_paths = [(weights[last], v) for last, v in enumerate(ends) if v >= 0]
            for j in range(n):
                if mask >> j & 1:
                    continue
                cand = closed  # close everything, start a new path at j
                for row, v in open_paths:
                    v += row[j]
                    if v > cand:
                        cand = v
                grown = open_best[mask | 1 << j]
                if cand > grown[j]:
                    grown[j] = cand
        return Fraction(max(open_best[-1]), scale)


max_disjoint_paths_weight = PathsInstance.optimum


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
    """The weights `osa.random_digraph_instance` draws for the same arguments."""
    return PathsInstance.from_weights(
        random_digraph_weights(n, seed, weight_denominator))

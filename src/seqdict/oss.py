"""Clause-satisfaction valuations: each agent controls one Boolean variable
and, on her turn, sets it to whichever value satisfies the larger weight of
still-unsatisfied clauses (ties go to her predefined default).

Literals are DIMACS-style signed integers: +(v+1) for variable v, -(v+1) for
its negation.  Weights are exact rationals.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import getitem
from typing import Iterable, Optional, Sequence

from .core import (
    Caps,
    DEFAULT_CAPS,
    Structure,
    Value,
    actions as assignment_from_sequence,  # the Boolean assignment
    common_denominator,
    decode_rational,
    encode_rational,
    oracle_for as oss_oracle,
)
from .feasibility import producing_sequence


@dataclass(frozen=True)
class SatInstance:
    kind = "oss"  # its name in instance files; a class attribute, not a field
    n: int
    clauses: tuple  # ((frozenset of literals, weight), ...)
    tie_default: tuple  # per-agent value chosen when the two sides tie

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one variable")
        if len(self.tie_default) != self.n:
            raise ValueError("tie_default must cover every agent")
        for lits, weight in self.clauses:
            if not lits:
                raise ValueError("empty clause")
            if not isinstance(weight, Fraction) or weight < 0:
                raise ValueError("clause weights must be non-negative rationals")
            for lit in lits:
                if lit == 0 or not 1 <= abs(lit) <= self.n:
                    raise ValueError(f"literal {lit} out of range")
                if -lit in lits:
                    raise ValueError("clause contains a variable and its negation")

    @property
    def total_weight(self) -> Value:
        return sum((w for _, w in self.clauses), Fraction(0))

    @cached_property
    def scale(self) -> int:
        """The common denominator D of the clause weights."""
        return common_denominator(w for _, w in self.clauses)

    @cached_property
    def clause_masks(self) -> tuple:
        """Per variable, (the bitmask of the clause indices that setting it
        True satisfies, the one that setting it False satisfies)."""
        sides = [[0, 0] for _ in range(self.n)]
        for k, (lits, _) in enumerate(self.clauses):
            for lit in lits:
                sides[abs(lit) - 1][lit < 0] |= 1 << k
        return tuple(map(tuple, sides))

    @cached_property
    def scaled_weights(self) -> tuple:
        """The clause weights as ints over `scale`."""
        return tuple(int(w * self.scale) for _, w in self.clauses)

    @cached_property
    def structure(self) -> Structure:
        """v_i(S) = larger of the unsatisfied weights on x_i's two sides after S.
        The state is the bitmask of the clauses still open, which fixes later
        choices.  An agent's turn depends only on her own open clauses, so
        each agent's turns are kept per such sub-mask in her `_Turns`, which
        all sum weights by one set of `_byte_sums` tables."""
        own = tuple(pos | neg for pos, neg in self.clause_masks)
        sums = _byte_sums(self.scaled_weights)
        turns = tuple(_Turns(pos, neg, sums, tie)
                      for (pos, neg), tie in zip(self.clause_masks, self.tie_default))

        def step(unsat: int, agent: int) -> int:
            return unsat & turns[agent][unsat & own[agent]][2]

        def act(unsat: int, agent: int) -> bool:
            return turns[agent][unsat & own[agent]][1]

        def read(unsat: int, agent: int) -> int:
            return turns[agent][unsat & own[agent]][0]

        return Structure((1 << len(self.clauses)) - 1, step, act, read, self.scale, False)

    def optimum(self, caps: Optional[Caps] = None) -> Value:
        """MAX-SAT: the total weight less the least weight that one of the 2^n
        assignments leaves open.  An assignment leaves open the clauses that
        both its first n//2 variables and its others leave open, so each half's
        open-clause masks are built once (2^(n/2) of them) and ANDed in pairs."""
        n = self.n
        (caps or DEFAULT_CAPS).check_subset(n)
        masks, weights = self.clause_masks, self.scaled_weights
        every = (1 << len(weights)) - 1
        low, high = _open_after(masks[:n // 2], every), _open_after(masks[n // 2:], every)
        sums = _byte_sums(weights)
        width = len(sums)
        least = min(sum(map(getitem, sums, (u & v).to_bytes(width, "little")))
                    for u in low for v in high)
        return Fraction(sum(weights) - least, self.scale)


class _Turns(dict):
    """One agent's turn per set of her own open clauses (a bitmask): (her
    value, the value she sets her variable to, the mask of the clauses that
    stay open), worked out on first use by `_clause_weight` over the
    `_byte_sums` tables `sums`.  It holds at most 2^(her clause count)
    entries, and never more than the states it was asked about."""

    def __init__(self, pos: int, neg: int, sums: list, tie):
        super().__init__()
        self.pos, self.neg, self.sums, self.tie = pos, neg, sums, tie

    def __missing__(self, own: int) -> tuple:
        w_true = _clause_weight(own & self.pos, self.sums)
        w_false = _clause_weight(own & self.neg, self.sums)
        up = w_true > w_false or (w_true == w_false and self.tie)
        turn = self[own] = (max(w_true, w_false), up, ~(self.pos if up else self.neg))
        return turn


def sat_instance(n: int, clauses: Iterable, tie_default=None) -> SatInstance:
    """Convenience constructor from (literal list, weight) pairs.

    Duplicate literals inside a clause collapse; weights coerce to Fraction.
    """
    built = tuple((frozenset(int(l) for l in lits), Fraction(w))
                  for lits, w in clauses)
    if tie_default is None:
        tie = (True,) * n
    else:
        tie = tuple(bool(b) for b in tie_default)
    return SatInstance(n, built, tie)


def sat_as_decide(inst: SatInstance, target,
                  caps: Optional[Caps] = None) -> Optional[tuple]:
    """The lexicographically smallest sequence producing `target`, or None.

    Equivalent to scanning the n! sequences, but the search backtracks over
    the 2^n acted sets instead (still exponential, but desk-scale fast).
    """
    n = inst.n
    (caps or DEFAULT_CAPS).check_subset(n)
    target = tuple(bool(b) for b in target)
    if len(target) != n:
        raise ValueError("target assignment has wrong length")
    return producing_sequence(inst, target, commit_first=False)


def x3c_reduce(universe_size: int, sets: Sequence) -> SatInstance:
    """Encode an exact-3-cover question as a clause instance whose all-True
    assignment is producible by some sequence iff the cover exists.

    Variables: one per universe element, one per set, then one gate variable
    that may only fire after every element.  Weights use thirds, so they stay
    exact.  An element contained in no set gets a zero-weight clause and a
    False tie default, which keeps it pinned to False (it can never be
    covered, so all-True must stay unreachable).
    """
    if universe_size < 3 or universe_size % 3 != 0:
        raise ValueError("universe size must be a positive multiple of 3")
    q, t = universe_size // 3, len(sets)
    norm = []
    for s in sets:
        s = tuple(sorted(set(s)))
        if len(s) != 3 or any(not 0 <= x < universe_size for x in s):
            raise ValueError("each set must contain exactly 3 universe elements")
        norm.append(s)
    if t < q:
        raise ValueError(f"need at least {q} sets to possibly cover {universe_size} "
                         "elements; fewer would force negative clause weights")
    freq = [0] * universe_size
    for s in norm:
        for x in s:
            freq[x] += 1

    set_lit = lambda k: 3 * q + k + 1  # literal for set variable k
    gate_lit = 3 * q + t + 1
    n = 3 * q + t + 1
    clauses: list = []
    for a in range(t):  # pairs of set variables
        for b in range(a + 1, t):
            clauses.append(([set_lit(a), set_lit(b)], Fraction(1)))
    for k, s in enumerate(norm):  # a set vouches for each of its elements
        for x in s:
            clauses.append(([set_lit(k), -(x + 1)], Fraction(1)))
    for x in range(universe_size):  # elements must precede the gate
        w = Fraction(freq[x]) - Fraction(1, 3)
        clauses.append(([x + 1, -gate_lit], max(w, Fraction(0))))
    w_gate = Fraction(t - q) + Fraction(7, 3)
    for k in range(t):  # the gate must precede all but q sets
        clauses.append(([gate_lit, -set_lit(k)], w_gate))
    w_pen = Fraction(t * t - q * t) + Fraction(7 * t, 3) - Fraction(1, 3)
    clauses.append(([-gate_lit], w_pen))

    tie = tuple(not (v < universe_size and freq[v] == 0) for v in range(n))
    return sat_instance(n, clauses, tie)


def posd_sat_instance(eps) -> SatInstance:
    """Three variables whose forced greedy play leaves one unit clause behind.

    Every sequence sets its first two variables False and the third True; the
    all-True assignment does strictly better, and the gap approaches 3/2 as
    eps shrinks.
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("eps out of range (need 0 < eps < 1)")
    unit = 1 - eps
    return sat_instance(3, [
        ([1, -2, -3], Fraction(1)),
        ([-1, 2, -3], Fraction(1)),
        ([-1, -2, 3], Fraction(1)),
        ([1], unit),
        ([2], unit),
        ([3], unit),
    ])


def nonmonotone_sat_instance() -> SatInstance:
    """The four-clause, three-variable witness that these valuations are not
    monotone: agent 2's value after (1,) is 1 but after (0, 1) it is 2."""
    return sat_instance(3, [
        ([1, 2], Fraction(6)),
        ([-1, 2, 3], Fraction(2)),
        ([-1, -2, 3], Fraction(1)),
        ([-1, -2], Fraction(2)),
    ])


def random_sat_instance(n: int, m: int, max_clause_len: int, seed: int,
                        weight_denominator: int = 100) -> SatInstance:
    """m uniform clauses (distinct variables, random signs, rational weights)."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(m):
        k = rng.randint(1, min(max_clause_len, n))
        chosen = rng.sample(range(n), k)
        lits = [(v + 1) if rng.getrandbits(1) else -(v + 1) for v in chosen]
        w = Fraction(rng.randint(0, weight_denominator), weight_denominator)
        clauses.append((lits, w))
    return sat_instance(n, clauses)


def _open_after(masks: Sequence, every: int) -> list:
    """The open clauses after each assignment of the variables whose clause
    masks are `masks`: entry a sets the k-th of them True iff bit k of a is
    set."""
    out = [every]
    for pos, neg in masks:
        out = [u & ~neg for u in out] + [u & ~pos for u in out]
    return out


def _byte_sums(weights: tuple) -> list:
    """Per byte k of a clause mask, the weight of the clauses 8k..8k+7 that
    each value of that byte picks."""
    sums = []
    for base in range(0, len(weights), 8):
        table = [0]
        for w in weights[base:base + 8]:
            table += [t + w for t in table]
        sums.append(table)
    return sums


def _clause_weight(mask: int, sums: list) -> int:
    """The weight of the clauses in `mask`, read a byte at a time from the
    `_byte_sums` tables `sums`."""
    return sum(map(getitem, sums, mask.to_bytes(len(sums), "little")))


# --- weighted-CNF text format ------------------------------------------------
#
#   c <comment>
#   p wcnf <variables> <clauses>
#   t <0/1 per agent>            (tie defaults; omitted means all True)
#   <weight> <lit> <lit> ... 0   (weight is "p/q" or an integer)

def sorted_literals(lits) -> list:
    """A clause's literals in file order: by variable, positive first."""
    return sorted(lits, key=lambda l: (abs(l), l < 0))


def to_wcnf(inst: SatInstance) -> str:
    lines = [f"p wcnf {inst.n} {len(inst.clauses)}"]
    lines.append("t " + " ".join("1" if b else "0" for b in inst.tie_default))
    for lits, w in inst.clauses:
        body = " ".join(map(str, sorted_literals(lits)))
        lines.append(f"{encode_rational(w)} {body} 0")
    return "\n".join(lines) + "\n"


def _wcnf_int(tok: str, field: str) -> int:
    """An integer token of the text format: `-?[0-9]+`, ASCII digits only."""
    if not re.fullmatch(r"-?[0-9]+", tok):
        raise ValueError(f"malformed oss instance: {field} must be an integer, got {tok!r}")
    return int(tok)


def from_wcnf(text: str) -> SatInstance:
    n = expected = None
    tie = None
    clauses: list = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "wcnf":
                raise ValueError(f"bad header: {line!r}")
            n = _wcnf_int(parts[2], "variable count")
            expected = _wcnf_int(parts[3], "clause count")
            continue
        if line.startswith("t"):
            bits = line.split()[1:]
            if any(tok not in ("0", "1") for tok in bits):
                raise ValueError(f"oss tie defaults must be 0 or 1: {line!r}")
            tie = tuple(tok == "1" for tok in bits)
            continue
        if n is None:
            raise ValueError("clause before header")
        toks = line.split()
        if toks[-1] != "0":
            raise ValueError(f"clause line must end in 0: {line!r}")
        weight = decode_rational(toks[0])
        lits = [_wcnf_int(tok, "literal") for tok in toks[1:-1]]
        clauses.append((lits, weight))
    if n is None:
        raise ValueError("missing wcnf header")
    if expected != len(clauses):
        raise ValueError(f"header promises {expected} clauses, found {len(clauses)}")
    return sat_instance(n, clauses, tie)

"""Clause-satisfaction valuations: each agent controls one Boolean variable
and, on her turn, sets it to whichever value satisfies the larger weight of
still-unsatisfied clauses (ties go to her predefined default).

Literals are DIMACS-style signed integers: +(v+1) for variable v, -(v+1) for
its negation.  Weights are exact rationals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from typing import Iterable, Optional, Sequence

from .core import (
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
class SatInstance:
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


def _tally(inst: SatInstance, agent: int, unsat) -> tuple[Value, Value]:
    """Weights of the clauses in `unsat` that x_agent or its negation satisfies."""
    pos = neg = Fraction(0)
    for idx in unsat:
        lits, w = inst.clauses[idx]
        if agent + 1 in lits:
            pos += w
        if -(agent + 1) in lits:
            neg += w
    return pos, neg


def _choice(inst: SatInstance, agent: int, unsat) -> bool:
    """The value the agent sets x_agent to while the clauses in `unsat` are open."""
    pos, neg = _tally(inst, agent, unsat)
    return pos > neg or (pos == neg and inst.tie_default[agent])


def _start(inst: SatInstance) -> tuple:
    return {}, frozenset(range(len(inst.clauses)))


def _step(inst: SatInstance, state: tuple, agent: int) -> tuple:
    assign, unsat = state
    value = _choice(inst, agent, unsat)
    hit = (agent + 1) if value else -(agent + 1)
    return ({**assign, agent: value},
            frozenset(idx for idx in unsat if hit not in inst.clauses[idx][0]))


def _simulate(inst: SatInstance, seq) -> tuple[dict, frozenset]:
    """Run the agents in `seq`; return (assignment, unsatisfied clause indices)."""
    return reduce(partial(_step, inst), seq, _start(inst))


def oss_oracle(inst: SatInstance) -> ValuationOracle:
    """v_i(S) = larger of the unsatisfied weights on x_i's two sides after S.

    The simulation resumes from the state after the longest prefix shared
    with the previous query.
    """
    states = PrefixStates(_start(inst), partial(_step, inst))

    def fn(agent: int, seq: tuple) -> Value:
        _, unsat = states.after(seq)
        return max(_tally(inst, agent, unsat))

    return ValuationOracle(inst.n, fn, monotone_claimed=False)


def assignment_from_sequence(inst: SatInstance, seq) -> tuple:
    """The Boolean assignment produced by simulating a full sequence."""
    seq = tuple(seq)
    check_action_seq(seq, inst.n, full=True)
    assign, _ = _simulate(inst, seq)
    return tuple(assign[i] for i in range(inst.n))


def sat_as_decide(inst: SatInstance, target,
                  caps: Optional[Caps] = None) -> Optional[tuple]:
    """Search all sequences for one producing `target`; None when none exists.

    Equivalent to scanning the n! sequences: an agent's choice is final, so a
    sequence produces `target` iff every prefix keeps all acted agents at
    their target values, and whether agent i can act next depends only on the
    *set* of agents already acted.  The search therefore memoizes over the 2^n
    acted-sets (still exponential, but desk-scale fast) and reconstructs the
    lexicographically smallest producing sequence.
    """
    caps = caps or DEFAULT_CAPS
    n = inst.n
    if n > caps.subset:
        raise CapExceededError(f"n={n} exceeds subset cap {caps.subset}")
    target = tuple(bool(b) for b in target)
    if len(target) != n:
        raise ValueError("target assignment has wrong length")

    unsat_memo: dict = {}

    def unsat(state: frozenset) -> tuple:
        cached = unsat_memo.get(state)
        if cached is None:
            keep = []
            for idx, (lits, _) in enumerate(inst.clauses):
                for lit in lits:
                    var = abs(lit) - 1
                    if var in state and (lit > 0) == target[var]:
                        break
                else:
                    keep.append(idx)
            cached = unsat_memo[state] = tuple(keep)
        return cached

    def acts_target(state: frozenset, agent: int) -> bool:
        return _choice(inst, agent, unsat(state)) == target[agent]

    comp_memo: dict = {}

    def completable(state: frozenset) -> bool:
        if len(state) == n:
            return True
        cached = comp_memo.get(state)
        if cached is None:
            cached = comp_memo[state] = any(
                acts_target(state, i) and completable(state | {i})
                for i in range(n) if i not in state)
        return cached

    if not completable(frozenset()):
        return None
    seq: list = []
    state: frozenset = frozenset()
    while len(seq) < n:
        for i in range(n):
            if i not in state and acts_target(state, i) and completable(state | {i}):
                seq.append(i)
                state = state | {i}
                break
    return tuple(seq)


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


def _satisfied_weight(inst: SatInstance, bits: int) -> Value:
    total = Fraction(0)
    for lits, w in inst.clauses:
        for lit in lits:
            var = abs(lit) - 1
            if (bits >> var & 1) == (lit > 0):
                total += w
                break
    return total


@underlying_optimum.register
def _(inst: SatInstance, caps: Optional[Caps] = None) -> Value:
    """MAX-SAT by scanning all 2^n assignments."""
    caps = caps or DEFAULT_CAPS
    if inst.n > caps.subset:
        raise CapExceededError(f"n={inst.n} exceeds subset cap {caps.subset}")
    return max(_satisfied_weight(inst, bits) for bits in range(1 << inst.n))


@oracle_for.register
def _(inst: SatInstance) -> ValuationOracle:
    return oss_oracle(inst)


# --- weighted-CNF text format ------------------------------------------------
#
#   c <comment>
#   p wcnf <variables> <clauses>
#   t <0/1 per agent>            (tie defaults; omitted means all True)
#   <weight> <lit> <lit> ... 0   (weight is "p/q" or an integer)

def to_wcnf(inst: SatInstance) -> str:
    lines = [f"p wcnf {inst.n} {len(inst.clauses)}"]
    lines.append("t " + " ".join("1" if b else "0" for b in inst.tie_default))
    for lits, w in inst.clauses:
        body = " ".join(str(l) for l in sorted(lits, key=lambda l: (abs(l), l < 0)))
        lines.append(f"{w.numerator}/{w.denominator} {body} 0")
    return "\n".join(lines) + "\n"


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
            n, expected = int(parts[2]), int(parts[3])
            continue
        if line.startswith("t"):
            tie = tuple(tok == "1" for tok in line.split()[1:])
            continue
        if n is None:
            raise ValueError("clause before header")
        toks = line.split()
        if toks[-1] != "0":
            raise ValueError(f"clause line must end in 0: {line!r}")
        weight = Fraction(toks[0])
        lits = [int(tok) for tok in toks[1:-1]]
        clauses.append((lits, weight))
    if n is None:
        raise ValueError("missing wcnf header")
    if expected != len(clauses):
        raise ValueError(f"header promises {expected} clauses, found {len(clauses)}")
    return sat_instance(n, clauses, tie)

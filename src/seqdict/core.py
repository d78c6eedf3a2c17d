"""Core model: action sequences, counted valuation oracles, social welfare,
and exact optima over serial dictatorships.

Agents are the integers 0..n-1.  An action (sub)sequence is a duplicate-free
tuple of agents; a full sequence is a permutation of all n agents.  All values
are exact rationals (fractions.Fraction), never floats.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import singledispatch
from itertools import permutations
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

ActionSeq = tuple  # tuple[int, ...]
Value = Fraction

#: Returned by price_of_serial_dictatorship when the underlying optimum is
#: positive but no action sequence attains positive welfare.
INFINITE_POSD = math.inf


class CapExceededError(ValueError):
    """An exhaustive enumeration would exceed the configured work cap."""


@dataclass(frozen=True)
class Caps:
    """Work limits for brute-force enumerations.

    `factorial` bounds loops doing up to factorial! units of work (an n! loop
    needs n <= factorial; mixed loops such as n!/(n-c)! must fit in the same
    budget).  `subset` bounds 2^k-style loops at k <= subset.  Exceeding a cap
    raises CapExceededError; results are never silently truncated.
    """

    factorial: int = 10
    subset: int = 20

    @classmethod
    def from_env(cls, var: str = "SEQDICT_CAPS") -> "Caps":
        """Parse caps from an env var formatted like "factorial=8,subset=16"."""
        raw = os.environ.get(var, "").strip()
        if not raw:
            return cls()
        values = {}
        for part in raw.split(","):
            key, _, num = part.partition("=")
            key, num = key.strip(), num.strip()
            if key not in ("factorial", "subset") or not num.isdigit():
                raise ValueError(f"cannot parse {var}={raw!r}")
            values[key] = int(num)
        return cls(**values)


DEFAULT_CAPS = Caps()


def check_action_seq(seq: Sequence[int], n: int, *, full: bool = False) -> None:
    """Validate a (sub)sequence over agents 0..n-1; raise ValueError if bad."""
    seen = set()
    for a in seq:
        if not isinstance(a, int) or not 0 <= a < n:
            raise ValueError(f"agent {a!r} out of range for n={n}")
        if a in seen:
            raise ValueError(f"duplicate agent {a} in sequence")
        seen.add(a)
    if full and len(seq) != n:
        raise ValueError(f"expected a full sequence of {n} agents, got {len(seq)}")


def prefix_of(seq: ActionSeq, agent: int) -> ActionSeq:
    """The ordered agents strictly before `agent` in `seq`."""
    try:
        k = seq.index(agent)
    except ValueError:
        raise ValueError("agent not in sequence") from None
    return tuple(seq[:k])


def is_subsequence(small: Iterable[int], big: Iterable[int]) -> bool:
    """True iff `small` appears inside `big` with the same relative order."""
    it = iter(big)
    return all(x in it for x in small)  # `in` advances the iterator


@dataclass
class QueryLedger:
    """Counts oracle queries: every call, and distinct (agent, prefix) pairs."""

    total_calls: int = 0
    _seen: set = field(default_factory=set, repr=False)

    @property
    def distinct_calls(self) -> int:
        return len(self._seen)

    def record(self, agent: int, seq: ActionSeq) -> None:
        self.total_calls += 1
        self._seen.add((agent, seq))


class PrefixStates:
    """A structure's state after each prefix of the last sequence asked for.

    `after(seq)` replays with `step(state, agent)` only the agents past the
    longest common prefix of `seq` and the previous call, so queries that walk
    a prefix tree cost O(1) steps each.  The cache is one immutable snapshot
    (sequence, states), replaced by a single assignment and never mutated in
    place, so oracle copies sharing it may query it from several threads.
    `step` must return a new state and never change the one it is given.
    """

    __slots__ = ("_step", "_snap")

    def __init__(self, start, step: Callable):
        self._step = step
        self._snap = ((), (start,))

    def after(self, seq: ActionSeq):
        last, states = self._snap
        if seq == last[:len(seq)]:  # keep `last`: a later query may extend it
            return states[len(seq)]
        k = len(last)
        if seq[:k] != last:  # neither is a prefix of the other: find where they part
            k = 0
            while seq[k] == last[k]:
                k += 1
        grown = states[:k + 1]
        for agent in seq[k:]:
            grown += (self._step(grown[-1], agent),)
        self._snap = (seq, grown)
        return grown[-1]


class ValuationOracle:
    """Query-counted access to per-agent valuations v_i(S).

    The only way to read an instance's valuations.  `value(i, S)` returns the
    value agent i obtains when acting immediately after the agents in S; the
    attached ledger records every call.  `monotone_claimed` is metadata: it
    records whether the instance promises v_i(S') >= v_i(S) for S' <= S, which
    the prefix-search guarantees rely on.
    """

    def __init__(self, n: int, fn: Callable[[int, ActionSeq], Value],
                 monotone_claimed: bool = False):
        if n < 1:
            raise ValueError("need at least one agent")
        self.n = n
        self._fn = fn
        self.monotone_claimed = monotone_claimed
        self.ledger = QueryLedger()

    def value(self, agent: int, seq: Iterable[int] = ()) -> Value:
        seq = tuple(seq)
        if not 0 <= agent < self.n:
            raise ValueError(f"agent {agent} out of range")
        if agent in seq:
            raise ValueError("query subsequence contains the queried agent")
        check_action_seq(seq, self.n)
        self.ledger.record(agent, seq)
        return self._fn(agent, seq)

    def fresh(self) -> "ValuationOracle":
        """A copy with a zeroed ledger, for an independent algorithm run."""
        return ValuationOracle(self.n, self._fn, self.monotone_claimed)


def social_welfare(oracle: ValuationOracle, seq: Sequence[int]) -> Value:
    """Sum of v_i(prefix of i) over a full sequence; makes exactly n queries."""
    seq = tuple(seq)
    check_action_seq(seq, oracle.n, full=True)
    total = Fraction(0)
    for k, agent in enumerate(seq):
        total += oracle.value(agent, seq[:k])
    return total


def brute_force_optimal_sequence(oracle: ValuationOracle,
                                 caps: Optional[Caps] = None) -> tuple[ActionSeq, Value]:
    """Welfare-maximizing full sequence, by depth-first search of the prefix tree.

    Each tree edge (prefix S, next agent i) is one query v_i(S), and the
    welfare of a prefix is carried down to its children, so the search makes
    sum_k n!/(n-k-1)! queries, each (agent, prefix) pair once, rather than
    n * n!.  Leaves are reached in lexicographic order and only a strictly
    better one replaces the best, so ties break to the lexicographically
    smallest sequence.
    """
    caps = caps or DEFAULT_CAPS
    if oracle.n > caps.factorial:
        raise CapExceededError(
            f"enumeration cap exceeded: n={oracle.n} > factorial cap {caps.factorial}")
    return _best_completion(oracle, (), tuple(range(oracle.n)), Fraction(0))


def _best_completion(oracle: ValuationOracle, prefix: ActionSeq, rest: tuple,
                     welfare: Value) -> tuple[ActionSeq, Value]:
    """Best (sequence, welfare) below `prefix`, whose welfare is `welfare`."""
    if not rest:
        return prefix, welfare
    best = None
    for k, agent in enumerate(rest):
        cand = _best_completion(oracle, prefix + (agent,), rest[:k] + rest[k + 1:],
                                welfare + oracle.value(agent, prefix))
        if best is None or cand[1] > best[1]:
            best = cand
    return best


def ordered_subsequences(pool: Sequence[int]) -> Iterator[tuple]:
    """Every action subsequence over `pool`: all k-permutations, k=0..len."""
    for k in range(len(pool) + 1):
        yield from permutations(pool, k)


class MonotonicityViolation(NamedTuple):
    agent: int
    smaller: ActionSeq
    larger: ActionSeq
    value_smaller: Value
    value_larger: Value


def find_monotonicity_violation(oracle: ValuationOracle,
                                max_n: int = 6) -> Optional[MonotonicityViolation]:
    """First (agent, S' <= S) pair with v(S') < v(S), or None if monotone.

    Exhausts all ordered-subset pairs, so it is limited to small n.
    """
    if oracle.n > max_n:
        raise CapExceededError(f"monotonicity check capped at n={max_n}")
    for agent in range(oracle.n):
        others = [j for j in range(oracle.n) if j != agent]
        vals = {s: oracle.value(agent, s) for s in ordered_subsequences(others)}
        for s, v_s in vals.items():
            for mask in range(1 << len(s)):
                sub = tuple(s[b] for b in range(len(s)) if mask >> b & 1)
                if vals[sub] < v_s:
                    return MonotonicityViolation(agent, sub, s, vals[sub], v_s)
    return None


def check_monotone_exhaustive(oracle: ValuationOracle, max_n: int = 6) -> bool:
    """True iff v_i(S') >= v_i(S) for every agent and every pair S' <= S."""
    return find_monotonicity_violation(oracle, max_n) is None


@singledispatch
def underlying_optimum(instance, caps: Optional[Caps] = None) -> Value:
    """Exact optimum of the combinatorial problem beneath a structured instance.

    Structure modules register implementations: max-weight perfect matching
    and max-weight arborescence by dynamic programs over subsets, MAX-SAT by
    scanning assignments, maximum independent set by subset search, and
    max-weight disjoint-path union by a dynamic program.
    """
    raise TypeError(f"no underlying optimum registered for {type(instance).__name__}")


@singledispatch
def oracle_for(instance) -> ValuationOracle:
    """A fresh valuation oracle for a structured instance (dispatch per type)."""
    raise TypeError(f"no oracle constructor registered for {type(instance).__name__}")


def price_of_serial_dictatorship(instance, caps: Optional[Caps] = None):
    """underlying_optimum / best-sequence welfare (1 if both are zero).

    Returns INFINITE_POSD when the optimum is positive but every sequence has
    zero welfare.
    """
    opt = underlying_optimum(instance, caps)
    _, best = brute_force_optimal_sequence(oracle_for(instance), caps)
    if opt == 0 and best == 0:
        return Fraction(1)
    if best == 0:
        return INFINITE_POSD
    return opt / best

"""Core model: action sequences, counted valuation oracles, social welfare,
and exact optima over serial dictatorships.

Agents are the integers 0..n-1.  An action (sub)sequence is a duplicate-free
tuple of agents; a full sequence is a permutation of all n agents.  All values
are exact rationals (fractions.Fraction), never floats.  A structured
oracle also serves each value as an exact integer over its instance's common
denominator, so the algorithms that add values up add integers.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import accumulate, chain, permutations
from operator import itemgetter
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
    def from_env(cls) -> "Caps":
        """Parse caps from SEQDICT_CAPS, formatted like "factorial=8,subset=16"."""
        raw = os.environ.get("SEQDICT_CAPS", "").strip()
        if not raw:
            return cls()
        values = {}
        for part in raw.split(","):
            key, _, num = part.partition("=")
            key, num = key.strip(), num.strip()
            if key not in ("factorial", "subset") or key in values \
                    or not re.fullmatch(r"[0-9]+", num):
                raise ValueError(f"cannot parse SEQDICT_CAPS={raw!r}")
            values[key] = int(num)
        return cls(**values)

    def check_subset(self, n: int) -> None:
        """Raise unless a 2^n loop fits the subset cap."""
        if n > self.subset:
            raise CapExceededError(f"n={n} exceeds subset cap {self.subset}")

    def check_sequences(self, n: int) -> None:
        """Raise unless a search over the n! sequences fits the factorial cap."""
        if n > self.factorial:
            raise CapExceededError(
                f"enumeration cap exceeded: n={n} > factorial cap {self.factorial}")

    def check_work(self, units: int, what: str) -> None:
        """Raise unless `units` of work fit the budget of `factorial`! units."""
        if units > math.factorial(self.factorial):
            raise CapExceededError(f"enumeration cap exceeded: {what} over budget")


DEFAULT_CAPS = Caps()


def encode_rational(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


#: A "p/q" or integer string: the numerator and the denominator (or None).
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def decode_rational(s) -> Fraction:
    """A "p/q" (or integer) string as a Fraction; anything else is a
    ValueError.  One match of `_RATIONAL` gives both integers."""
    match = _RATIONAL.fullmatch(s) if isinstance(s, str) else None
    if match is None:
        raise ValueError(f"rationals must be 'p/q' strings, got {s!r}")
    p, q = match.groups()
    try:
        return Fraction(int(p), int(q or 1))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {s!r}") from None


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
    """Counts oracle queries: every call, and distinct (agent, prefix) pairs.

    A pair is kept as one int, code * n + agent, where code is the prefix's
    `CheckedPrefix` code; the map is one-to-one, so `distinct_calls` counts
    exactly the distinct pairs.
    """

    total_calls: int = 0
    _seen: set = field(default_factory=set, repr=False)

    @property
    def distinct_calls(self) -> int:
        return len(self._seen)


class CheckedPrefix:
    """A prefix that a `Structure`'s walk has checked and stepped: the
    structure it walks, its agents, the acted bitmask, its code (the agents
    read as base-(n+1) digits a+1, so distinct prefixes get distinct codes)
    and the state after it.  Only a structure's `root` starts one, and
    `then` grows it into a new one (`Structure.walk` is a fold of `then`);
    nothing changes one once it is made.  Iterating it gives its agents."""

    __slots__ = ("walk", "agents", "mask", "code", "state")

    def __init__(self, walk: "Structure", agents: ActionSeq, mask: int, code: int, state):
        self.walk, self.agents, self.mask, self.code, self.state = \
            walk, agents, mask, code, state

    def __iter__(self):
        return iter(self.agents)

    def then(self, agent: int) -> "CheckedPrefix":
        """This prefix followed by `agent`, stepped once and made by
        `stepped`.  An agent out of range or already in the prefix raises
        through `check_action_seq`."""
        walk = self.walk
        if not (isinstance(agent, int) and 0 <= agent < walk.n) or self.mask >> agent & 1:
            check_action_seq(self.agents + (agent,), walk.n)
        return self.stepped(agent, walk.step(self.state, agent))

    def stepped(self, agent: int, state) -> "CheckedPrefix":
        """This prefix followed by `agent`, at `state`, the state the walk's
        step gives after her: the one place that grows a prefix's agents,
        mask and code by one agent.  It checks and steps nothing; `then`
        checks the agent and steps first, and `_best_completion`, whose
        children are valid and already stepped for their memo keys, calls
        it only for a child it expands."""
        walk = self.walk
        return CheckedPrefix(walk, self.agents + (agent,), self.mask | 1 << agent,
                             self.code * (walk.n + 1) + agent + 1, state)


class Structure(NamedTuple):
    """How an instance plays out as agents act, and the one walk over a
    counted query's prefix.  Each kind's instance class builds it once per
    instance, as the cached property `structure`, which all its oracles walk.

    `start` is the state before anyone acts and `step(state, agent)` the new
    state after `agent` acts, neither changing the state it is given.  A
    state is hashable and holds only what, with the set of agents that
    acted, fixes every later value and step, so it is its own memo key.
    `act(state, agent)` is what the agent does in `state` and `read(state,
    agent)` her value there as an int over `scale`, a positive common
    denominator of every value; `monotone_claimed` says whether the kind
    promises monotone valuations, and `n` is its number of agents.

    The walk keeps no state of its own: a caller that reads along a tree of
    prefixes grows `root` by `CheckedPrefix.then`, one agent per tree edge,
    and `walk(seq)` grows a plain sequence from the root the same way.
    Replaying states is bookkeeping, not a counted query.
    """

    start: object
    step: Callable
    act: Callable
    read: Callable
    scale: int
    monotone_claimed: bool
    n: int

    @property
    def root(self) -> CheckedPrefix:
        """The empty prefix, at `start`."""
        return CheckedPrefix(self, (), 0, 0, self.start)

    def walk(self, seq: ActionSeq) -> CheckedPrefix:
        """The tuple `seq` as a checked prefix: `root` grown by each of its
        agents in turn, by `then`.  A bad agent raises through
        `check_action_seq`."""
        return reduce(CheckedPrefix.then, seq, self.root)


def appended(prefix: tuple, agent: int) -> tuple:
    """The step of a bare oracle's walk, whose state is the prefix itself."""
    return prefix + (agent,)


class ValuationOracle:
    """Query-counted access to per-agent valuations v_i(S).

    The only way to read an instance's valuations.  `value(i, S)` returns the
    value agent i obtains when acting immediately after the agents in S; the
    attached ledger records every call.  `monotone_claimed` is metadata: it
    records whether the instance promises v_i(S') >= v_i(S) for S' <= S, which
    the prefix-search guarantees rely on.

    `prefixes` is the `Structure` whose walk checks each query's prefix,
    names it for the ledger and reaches a state after it; `fn(state, agent)`
    reads v_i(S) * `scale` at the state S leaves, and `value_scaled(i, S)`
    returns that read.  A bare oracle walks `Structure((), appended, fn, fn,
    1, monotone_claimed, n)`, whose state is the prefix tuple itself, so its
    `fn(S, agent)` gives v_i(S) itself.  `oracle_for` sets the instance's
    `structure`, and its scale, a positive common denominator of every value.
    """

    def __init__(self, n: int, fn: Callable, monotone_claimed: bool = False):
        if n < 1:
            raise ValueError("need at least one agent")
        self.n = n
        self._fn = fn
        self.monotone_claimed = monotone_claimed
        self.ledger = QueryLedger()
        self.scale = 1
        self.prefixes = Structure((), appended, fn, fn, 1, monotone_claimed, n)

    def value(self, agent: int, seq: Iterable[int] = (), scaled: bool = False):
        """v_agent(seq); with `scaled`, as `value_scaled` reads it.

        `seq` is a `CheckedPrefix` of this oracle's walk (every oracle of
        its instance shares it), read as it stands, or any other sequence of
        agents, a checked prefix of another walk included, which is walked
        from the start.  Either way one call is one counted query."""
        n = self.n
        if not (isinstance(agent, int) and 0 <= agent < n):
            raise ValueError(f"agent {agent} out of range")
        if type(seq) is CheckedPrefix and seq.walk is self.prefixes:
            if seq.mask >> agent & 1:
                raise ValueError("query subsequence contains the queried agent")
        else:
            seq = tuple(seq)
            if agent in seq:
                raise ValueError("query subsequence contains the queried agent")
            seq = self.prefixes.walk(seq)
        ledger = self.ledger
        ledger.total_calls += 1
        ledger._seen.add(seq.code * n + agent)
        v = self._fn(seq.state, agent)
        return v if scaled else Fraction(v, self.scale)

    def value_scaled(self, agent: int, seq: Iterable[int] = ()):
        """`value(agent, seq)` times `scale`, as `fn` reads it: one counted
        query."""
        return self.value(agent, seq, True)

    def fresh(self) -> "ValuationOracle":
        """A copy with a zeroed ledger, for an independent algorithm run."""
        copy = ValuationOracle(self.n, self._fn, self.monotone_claimed)
        copy.scale = self.scale
        copy.prefixes = self.prefixes
        return copy


def common_denominator(values: Iterable) -> int:
    """The lcm of the denominators of `values`, None entries skipped; 1 if
    there are none."""
    return math.lcm(*(v.denominator for v in values if v is not None))


def scaled_rows(rows: Sequence[Sequence]) -> tuple:
    """(D, the rows as ints over D) for rows of Fractions (None entries
    kept), where D is their `common_denominator`."""
    scale = common_denominator(chain.from_iterable(rows))
    return scale, tuple(tuple(None if w is None else w.numerator * (scale // w.denominator)
                              for w in row) for row in rows)


def as_fraction(w) -> Fraction:
    """`w` itself if it is a Fraction (not copied), else Fraction(w)."""
    return w if isinstance(w, Fraction) else Fraction(w)


def heaviest_first(rows: Sequence[Sequence]) -> tuple:
    """Each row's indices of non-None entries, heaviest first; equal entries
    put the lower index first (a reversed sort is stable)."""
    return tuple(tuple(sorted((j for j, w in enumerate(row) if w is not None),
                              key=row.__getitem__, reverse=True)) for row in rows)


class ScaledWeights:
    """For instances with a `weights` matrix of Fractions (None entries
    allowed): `scaled` is `scaled_rows` of the weights, worked out once per
    instance."""

    @cached_property
    def scaled(self) -> tuple:
        return scaled_rows(self.weights)

    @classmethod
    def from_rows(cls, rows: tuple):
        """The instance `cls(n, rows, prefs)` whose prefs list each row's
        weights heaviest first (equal weights: the lower index first).  The
        `scaled_rows` that sort them are put in its `scaled` cache before
        `__init__` runs, so they are worked out once."""
        scaled = scaled_rows(rows)
        inst = object.__new__(cls)
        inst.__dict__["scaled"] = scaled
        inst.__init__(len(rows), rows, heaviest_first(scaled[1]))
        return inst

    def check_prefs(self) -> None:
        """Raise unless each agent's `prefs` lists her weights heaviest first,
        compared as the integers of `scaled`; call it once every row's types
        and signs are checked."""
        for row, pref in zip(self.scaled[1], self.prefs):
            if any(row[a] < row[b] for a, b in zip(pref, pref[1:])):
                raise ValueError("prefs inconsistent with weights")


def social_welfare(oracle: ValuationOracle, seq: Sequence[int]) -> Value:
    """Sum of v_i(prefix of i) over a full sequence; makes exactly n queries,
    along one checked prefix, grown from the root by `then`."""
    seq = tuple(seq)
    check_action_seq(seq, oracle.n, full=True)
    prefixes = accumulate(seq[:-1], CheckedPrefix.then, initial=oracle.prefixes.root)
    return Fraction(sum(map(oracle.value_scaled, seq, prefixes)), oracle.scale)


def prefix_paths(root: CheckedPrefix, pool: Sequence[int], k: int) -> Iterator[tuple]:
    """(order, prefixes, d) for every ordering `order` of k agents of
    `pool`, in lexicographic order over `pool`'s order, by one depth-first
    pass over the ordering tree from the checked prefix `root`.

    `prefixes[j]` is what `order[j]` acts after: `root` grown by
    order[:j].  It is one list, updated in place for each order, and d is
    the first position where `order` parts from the order before it (0 for
    the first), so prefixes[:d + 1] carry over.  Each tree edge above the
    leaves is grown once, by `then`; nothing is read.
    """
    prefixes = [root] * k
    last = (None,) * k
    for order in permutations(pool, k):
        d = 0
        while d < k and order[d] == last[d]:
            d += 1
        for j in range(d + 1, k):
            prefixes[j] = prefixes[j - 1].then(order[j - 1])
        last = order
        yield order, prefixes, d


def sequence_welfares(oracle: ValuationOracle,
                      caps: Optional[Caps] = None) -> Iterator[tuple[ActionSeq, object]]:
    """An iterator over (sequence, welfare) for all n! full sequences in
    lexicographic order, by one depth-first pass over the prefix tree.

    Each tree edge (prefix S, next agent i) is one query v_i(S), so the pass
    makes sum_k n!/(n-k-1)! queries, each (agent, prefix) pair once, rather
    than n * n!.  A welfare is the sum of `value_scaled` reads over `scale`:
    an int for a structured oracle, a Fraction for a bare one whose `fn`
    gives Fractions.  The caps are checked on the call, before any query."""
    (caps or DEFAULT_CAPS).check_sequences(oracle.n)
    return _sequence_welfares(oracle)


def _sequence_welfares(oracle: ValuationOracle) -> Iterator[tuple[ActionSeq, object]]:
    n, read = oracle.n, oracle.value_scaled
    sums = [0] * (n + 1)  # sums[k]: the welfare of the current sequence's first k agents
    for seq, prefixes, d in prefix_paths(oracle.prefixes.root, range(n), n):
        for j in range(d, n):  # the edges it shares with the last sequence are read
            sums[j + 1] = sums[j] + read(seq[j], prefixes[j])
        yield seq, sums[n]


def brute_force_optimal_sequence(oracle: ValuationOracle,
                                 caps: Optional[Caps] = None) -> tuple[ActionSeq, Value]:
    """Welfare-maximizing full sequence: the first maximum of `sequence_welfares`,
    so ties break to the lexicographically smallest sequence."""
    seq, welfare = max(sequence_welfares(oracle, caps), key=itemgetter(1))
    return seq, Fraction(welfare, oracle.scale)


def ordered_subsequences(pool: Sequence[int]) -> Iterator[tuple]:
    """Every action subsequence over `pool`: all k-permutations, k=0..len."""
    for k in range(len(pool) + 1):
        yield from permutations(pool, k)


def prefix_table(root: CheckedPrefix, agent: int, value_of: Callable) -> dict:
    """`value_of(s)` for every prefix `s` the agent can act after, keyed by
    its agents: every `ordered_subsequences` of the other agents of the
    walk's n, in that order.  Each `s` is the checked prefix `root` grown
    by its agents, by `then`."""
    pool = [j for j in range(root.walk.n) if j != agent]
    table, layer = {}, [root]
    for _ in range(len(pool) + 1):  # the prefixes of each length, in lexicographic order
        for s in layer:
            table[s.agents] = value_of(s)
        layer = [s.then(a) for s in layer for a in pool if not s.mask >> a & 1]
    return table


class MonotonicityViolation(NamedTuple):
    agent: int
    smaller: ActionSeq
    larger: ActionSeq
    value_smaller: Value
    value_larger: Value


#: The most agents the exhaustive monotonicity check accepts.
MONOTONICITY_MAX_N = 6


def find_monotonicity_violation(oracle: ValuationOracle) -> Optional[MonotonicityViolation]:
    """First (agent, S' <= S) pair with v(S') < v(S), or None if monotone.

    Reads every value, so it is limited to small n.  Values are compared as
    `value_scaled` reads them; the witness carries them back as Fractions.
    Only the first S with a violating single deletion has its subsequences
    scanned: a violating S' <= S is reached from S by single deletions, and
    a violating link below S would be a violation at an earlier, shorter
    prefix.
    """
    if oracle.n > MONOTONICITY_MAX_N:
        raise CapExceededError(f"monotonicity check capped at n={MONOTONICITY_MAX_N}")
    scale = oracle.scale
    for agent in range(oracle.n):
        vals = prefix_table(oracle.prefixes.root, agent, partial(oracle.value_scaled, agent))
        for s, v_s in vals.items():
            if all(vals[s[:i] + s[i + 1:]] >= v_s for i in range(len(s))):
                continue  # then s has no violation either (see above)
            for mask in range(1 << len(s)):
                sub = tuple(s[b] for b in range(len(s)) if mask >> b & 1)
                if vals[sub] < v_s:
                    return MonotonicityViolation(agent, sub, s, Fraction(vals[sub], scale),
                                                 Fraction(v_s, scale))
    return None


def check_monotone_exhaustive(oracle: ValuationOracle) -> bool:
    """True iff v_i(S') >= v_i(S) for every agent and every pair S' <= S."""
    return find_monotonicity_violation(oracle) is None


def underlying_optimum(instance, caps: Optional[Caps] = None) -> Value:
    """Exact optimum of the combinatorial problem beneath a structured
    instance, from its `optimum(caps)` method.

    `MatchingInstance`, `ArborescenceInstance`, `SatInstance`, `OsiInstance`
    and `PathsInstance` have the method; a kind without it has no optimum.
    """
    optimum = getattr(instance, "optimum", None)
    if optimum is None:
        raise TypeError(f"no underlying optimum registered for {type(instance).__name__}")
    return optimum(caps)


def oracle_for(instance) -> ValuationOracle:
    """A fresh counted oracle for a structured instance: it walks the
    instance's one `Structure` and reads its `read` at each query's state."""
    structure = instance.structure
    oracle = ValuationOracle(structure.n, structure.read, structure.monotone_claimed)
    oracle.scale = structure.scale
    oracle.prefixes = structure
    return oracle


def actions(instance, seq: Sequence[int]) -> tuple:
    """What each agent does when a full sequence plays out, indexed by
    agent: the `act` of each agent at the state her prefix leaves."""
    seq = tuple(seq)
    check_action_seq(seq, instance.n, full=True)
    state, step, act, *_ = instance.structure
    done = [None] * instance.n
    for agent in seq:
        done[agent] = act(state, agent)
        state = step(state, agent)
    return tuple(done)


def best_sequence(instance, caps: Optional[Caps] = None) -> tuple[ActionSeq, Value]:
    """The (sequence, welfare) of `brute_force_optimal_sequence` on the
    instance's oracle: the `_best_completion` of its root, on a fresh
    `oracle_for(instance)`.  The memo never outgrows the tree, so the tree
    search's cap holds."""
    oracle = oracle_for(instance)
    (caps or DEFAULT_CAPS).check_sequences(oracle.n)
    seq, welfare = _best_completion(oracle.prefixes.root, oracle.value_scaled,
                                    (1 << oracle.n) - 1, {})
    return seq, Fraction(welfare, oracle.scale)


def _best_completion(prefix: CheckedPrefix, read: Callable, full: int,
                     memo: dict) -> tuple[ActionSeq, int]:
    """The best (completion, its welfare as an int) after `prefix`, by a
    prefix-tree search: `read(agent, prefix)` is one counted query, `full`
    the bitmask of all agents, and `memo` maps (acted bitmask, state) to
    the completion found there.

    Prefixes over the same acted set that reach equal states have the same
    best completion, so the first is expanded and the rest reuse its result;
    each expanded prefix reads every next agent once, so no pair is read
    twice.  A child is stepped once, by the walk's `step`, which gives both
    its memo key and the state its reads are taken at; only a child that
    misses the memo, and so is expanded, is made a `CheckedPrefix`, by
    `stepped`.  Children go in ascending agent order and only a strictly
    better completion replaces the best, so ties break to the
    lexicographically smallest, as in the tree search."""
    best = None
    acted, state, step = prefix.mask, prefix.state, prefix.walk.step
    for agent in range(prefix.walk.n):
        if not acted >> agent & 1:
            value = read(agent, prefix)
            mask = acted | 1 << agent
            if mask == full:  # the last agent: her state is never read
                rest, welfare = (), 0
            else:
                child = step(state, agent)
                at = (mask, child)
                found = memo.get(at)
                if found is None:
                    found = memo[at] = _best_completion(prefix.stepped(agent, child),
                                                        read, full, memo)
                rest, welfare = found
            welfare += value
            if best is None or welfare > best[1]:
                best = ((agent,) + rest, welfare)
    return best


def welfare_ratio(optimum: Value, welfare: Value):
    """optimum / welfare: 1 if both are zero, INFINITE_POSD if only the welfare is.

    The one rule behind both the price of serial dictatorship and an
    algorithm's ratio against the best sequence.
    """
    if welfare == 0:
        return Fraction(1) if optimum == 0 else INFINITE_POSD
    return optimum / welfare


def price_of_serial_dictatorship(instance, caps: Optional[Caps] = None):
    """underlying_optimum / best-sequence welfare, by `welfare_ratio`."""
    opt = underlying_optimum(instance, caps)
    _, best = best_sequence(instance, caps)
    return welfare_ratio(opt, best)

"""Externality payments for the prefix-search mechanisms, a two-point
truthfulness probe, and the standard counterexample profiles showing that the
unpaid greedy algorithms can be gamed.

Profiles here are explicit tables (agent -> prefix -> value) so that
misreports can be arbitrary, not just structure-shaped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import perm
from typing import Callable, Mapping, Sequence

from .core import (
    DEFAULT_CAPS,
    Value,
    ValuationOracle,
    oracle_for,
    ordered_subsequences,
    prefix_of,
    prefix_table,
)
from .osa import ArborescenceInstance, bit, greedy_osa
from .osm import MatchingInstance, greedy_osm
from .seqopt import det, det_plus, rand, subset_sequence


@dataclass(frozen=True)
class MechanismOutcome:
    sequence: tuple
    payments: tuple  # per-agent charges, non-negative for the schemes here


def _prefixes(n: int, agent: int):
    """Every prefix `agent` can act after: the `ordered_subsequences` of the
    other agents."""
    return ordered_subsequences([j for j in range(n) if j != agent])


def _check_table(n: int, agent: int, table: dict) -> None:
    """Refuse a table that misses or adds a prefix, or has a value that is not
    a non-negative Fraction."""
    if table.keys() != set(_prefixes(n, agent)):
        raise ValueError(f"table for agent {agent} must cover every prefix")
    for v in table.values():
        if not isinstance(v, Fraction) or v < 0:
            raise ValueError("table values must be non-negative rationals")


class ValuationProfile:
    """Explicit valuation tables, one entry per (agent, prefix) pair."""

    def __init__(self, tables: Sequence[Mapping]):
        self.n = len(tables)
        self.tables = tuple(dict(t) for t in tables)
        for i, table in enumerate(self.tables):
            _check_table(self.n, i, table)

    @classmethod
    def from_oracle(cls, oracle: ValuationOracle) -> "ValuationProfile":
        """Every agent's table, read through the oracle: n times the
        sum_k (n-1)!/(n-1-k)! prefixes, checked against the default cap first."""
        n = oracle.n
        DEFAULT_CAPS.check_work(n * sum(perm(n - 1, k) for k in range(n)),
                                f"n={n} valuation tables")
        return cls([prefix_table(oracle.prefixes.root, i, partial(oracle.value, i))
                    for i in range(n)])

    def value(self, agent: int, prefix: tuple) -> Value:
        return self.tables[agent][tuple(prefix)]

    def oracle(self) -> ValuationOracle:
        """A bare counted oracle over the tables: it reads `tables[i][S]`."""
        tables = self.tables
        return ValuationOracle(self.n, lambda s, i: tables[i][s])

    def with_table(self, agent: int, table: Mapping) -> "ValuationProfile":
        """A copy with `agent`'s table replaced; only the new table is checked."""
        tables = list(self.tables)
        tables[agent] = dict(table)
        _check_table(self.n, agent, tables[agent])
        copy = object.__new__(ValuationProfile)
        copy.n, copy.tables = self.n, tuple(tables)
        return copy

    def zeroed(self, agent: int) -> "ValuationProfile":
        zero = Fraction(0)
        return self.with_table(agent, {s: zero for s in self.tables[agent]})


def _paid_outcome(profile: ValuationProfile, payers, sequence: tuple,
                  run: Callable[[ValuationProfile], tuple]) -> MechanismOutcome:
    """`sequence` with each payer charged the other payers' value in `run` on
    the profile with the payer's report zeroed, minus theirs in `sequence`;
    non-payers pay 0."""
    def others_value(seq: tuple, i: int) -> Value:
        return sum((profile.value(k, prefix_of(seq, k)) for k in payers if k != i),
                   Fraction(0))

    return MechanismOutcome(sequence, tuple(
        others_value(run(profile.zeroed(i)), i) - others_value(sequence, i)
        if i in payers else Fraction(0) for i in range(profile.n)))


def _vcg_rand_outcome(profile: ValuationProfile, subset) -> MechanismOutcome:
    """The drawn subset's sequence with payments: what the others lose, under
    the same draw, because agent i reported a non-zero valuation."""
    subset = frozenset(subset)
    run = lambda p: subset_sequence(p.oracle(), subset)
    return _paid_outcome(profile, subset, run(profile), run)


def vcg_rand(profile: ValuationProfile, c: int, seed: int) -> MechanismOutcome:
    """One seeded run of the random-subset search plus its payments.

    Agents outside the drawn subset pay nothing; the draw itself ignores the
    reports, so both terms of each payment share the same drawn subset.
    """
    return _vcg_rand_outcome(profile, rand(profile.oracle(), c, seed)[:c])


def vcg_det_plus(profile: ValuationProfile, c: int) -> MechanismOutcome:
    """Full-welfare prefix search plus externality payments over all agents."""
    sequence = det_plus(profile.oracle(), c)
    return _paid_outcome(profile, range(profile.n), sequence,
                         lambda p: det_plus(p.oracle(), c))


def cycle_mon_violation(run: Callable[[ValuationOracle], tuple],
                        profile: ValuationProfile, agent: int,
                        alt_table: Mapping) -> bool:
    """Two-point necessary condition for truthful implementability.

    Runs the algorithm on the profile and on the profile with `agent`'s table
    swapped for `alt_table`; True means the pair certifies that no payment
    scheme can make the algorithm truthful.
    """
    alt_profile = profile.with_table(agent, alt_table)
    pre_true = prefix_of(run(profile.oracle()), agent)
    pre_alt = prefix_of(run(alt_profile.oracle()), agent)
    true_tab = profile.tables[agent]
    alt_tab = alt_profile.tables[agent]
    lhs = true_tab[pre_true] + alt_tab[pre_alt]
    rhs = true_tab[pre_alt] + alt_tab[pre_true]
    return lhs < rhs


# --- mechanism wrappers with exact outcome distributions ----------------------

@dataclass(frozen=True)
class VcgRandMechanism:
    """Random-subset search with payments, as an exact distribution over all
    C(n,c) equally likely draws."""

    c: int

    def distribution(self, profile: ValuationProfile):
        if not 1 <= self.c <= profile.n:  # as `rand` refuses it
            raise ValueError("c out of range")
        subsets = list(combinations(range(profile.n), self.c))
        p = Fraction(1, len(subsets))
        return [(p, _vcg_rand_outcome(profile, frozenset(s))) for s in subsets]


@dataclass(frozen=True)
class VcgDetPlusMechanism:
    c: int

    def distribution(self, profile: ValuationProfile):
        return [(Fraction(1), vcg_det_plus(profile, self.c))]


@dataclass(frozen=True)
class BitMechanism:
    """Fair coin between the ascending and descending sequences; no queries,
    no payments, nothing for a misreport to influence."""

    def distribution(self, profile: ValuationProfile):
        zero = (Fraction(0),) * profile.n
        return [(Fraction(1, 2), MechanismOutcome(bit(profile.n, coin), zero))
                for coin in (True, False)]


class UnpaidAlgorithm:
    """A payment-free wrapper around any sequence algorithm."""

    def __init__(self, run: Callable[[ValuationOracle], tuple]):
        self.run = run

    def distribution(self, profile: ValuationProfile):
        seq = self.run(profile.oracle())
        return [(Fraction(1), MechanismOutcome(seq, (Fraction(0),) * profile.n))]


@dataclass(frozen=True)
class SpotcheckEntry:
    agent: int
    misreport_index: int
    truthful_utility: Value
    misreport_utility: Value

    @property
    def violated(self) -> bool:
        return self.misreport_utility > self.truthful_utility


@dataclass(frozen=True)
class SpotcheckReport:
    entries: tuple

    @property
    def violations(self) -> tuple:
        return tuple(e for e in self.entries if e.violated)

    @property
    def ok(self) -> bool:
        return not self.violations


def expected_utility(distribution, agent: int, true_table: Mapping) -> Value:
    """The agent's expected utility over (probability, outcome) pairs: her
    value in `true_table` after her prefix, minus her payment."""
    return sum((p * (true_table[prefix_of(outcome.sequence, agent)]
                     - outcome.payments[agent]) for p, outcome in distribution),
               Fraction(0))


def truthfulness_spotcheck(mechanism, profile: ValuationProfile,
                           misreports: Mapping[int, Sequence[Mapping]]) -> SpotcheckReport:
    """Compare each agent's truthful expected utility against every listed
    misreport (utilities always measured with the true table).

    Expectations are exact: randomized mechanisms enumerate their draws.
    """
    entries = []
    truthful = mechanism.distribution(profile)
    for agent in sorted(misreports):
        true_table = profile.tables[agent]
        truth = expected_utility(truthful, agent, true_table)
        for k, table in enumerate(misreports[agent]):
            mis = expected_utility(mechanism.distribution(profile.with_table(agent, table)),
                                   agent, true_table)
            entries.append(SpotcheckEntry(agent, k, truth, mis))
    return SpotcheckReport(tuple(entries))


# --- the three counterexample pairs -------------------------------------------

@dataclass(frozen=True)
class Counterexample:
    name: str
    profile: ValuationProfile
    agent: int
    alt_table: dict
    run: Callable[[ValuationOracle], tuple]


def counterexample_matching_instance(eps) -> MatchingInstance:
    eps = Fraction(eps)
    return MatchingInstance.from_weights([[1 + eps, 1], [1, 1 - eps]])


def _counterexample_matching_alt(eps) -> MatchingInstance:
    eps = Fraction(eps)
    return MatchingInstance.from_weights([[1 - eps, 0], [1, 1 - eps]])


def _counterexample_digraph(eps: Fraction, w01, w03) -> ArborescenceInstance:
    """The 4-node digraph of the arborescence pair; only agent 0's edges
    0->1 and 0->3 (weights `w01` and `w03`) differ between its two sides."""
    w = [[Fraction(0)] * 4 for _ in range(4)]
    w[0][1], w[0][3] = w01, w03
    w[1][0] = w[3][2] = Fraction(1)
    w[2][3] = 1 - eps
    return ArborescenceInstance.from_weights(w)


def counterexample_digraph_instance(eps) -> ArborescenceInstance:
    eps = Fraction(eps)
    return _counterexample_digraph(eps, 1 - eps, eps)


def det_family_profile(n: int, c: int) -> ValuationProfile:
    """Monotone family: agents 0..c-1 value early slots at 10 (8 after the
    first c positions fill); everyone else is a constant 9."""
    return ValuationProfile([{s: Fraction(9) if i >= c else Fraction(10) if len(s) < c
                              else Fraction(8) for s in _prefixes(n, i)} for i in range(n)])


def det_family_misreport(n: int, c: int, agent: int = 0) -> dict:
    """The deflating misreport for an agent in the favored group."""
    return {s: Fraction(8) if len(s) < c else Fraction(0) for s in _prefixes(n, agent)}


def counterexample_profiles(eps=Fraction(1, 10)) -> tuple:
    """The three (profile, misreport) pairs on which the unpaid algorithms
    fail the two-point truthfulness condition; the prefix-search pair is the
    det family at n=5, c=2."""
    eps = Fraction(eps)
    greedy = [
        Counterexample(name, ValuationProfile.from_oracle(oracle_for(truth)), 0,
                       prefix_table(alt.prefixes.root, 0, partial(alt.value, 0)), run)
        for name, truth, alt, run in [
            ("greedy-matching", counterexample_matching_instance(eps),
             oracle_for(_counterexample_matching_alt(eps)), greedy_osm),
            ("greedy-arborescence", counterexample_digraph_instance(eps),
             oracle_for(_counterexample_digraph(eps, 1 + eps, Fraction(1))), greedy_osa)]]
    return (*greedy, Counterexample("prefix-search", det_family_profile(5, 2), 0,
                                    det_family_misreport(5, 2), lambda oracle: det(oracle, 2)))

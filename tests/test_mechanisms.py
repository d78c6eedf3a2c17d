from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

import pytest

from seqdict import mechanisms
from seqdict.core import CapExceededError, ValuationOracle, ordered_subsequences, prefix_of
from seqdict.mechanisms import (
    MechanismOutcome,
    ValuationProfile,
    VcgDetPlusMechanism,
    VcgRandMechanism,
    counterexample_profiles,
    cycle_mon_violation,
    det_family_misreport,
    det_family_profile,
    truthfulness_spotcheck,
    vcg_det_plus,
    vcg_rand,
)
from seqdict.osa import bit
from seqdict.osm import osm_oracle, random_matching_instance
from seqdict.seqopt import det_plus

EPS = Fraction(1, 10)


def zero_table(n, agent):
    others = [j for j in range(n) if j != agent]
    return {s: Fraction(0) for s in ordered_subsequences(others)}


class BitMechanism:
    """Fair coin between the ascending and descending sequences; no queries,
    no payments, nothing for a misreport to influence."""

    def distribution(self, profile):
        zero = (Fraction(0),) * profile.n
        return [(Fraction(1, 2), MechanismOutcome(bit(profile.n, coin), zero))
                for coin in (True, False)]


class UnpaidAlgorithm:
    """A payment-free wrapper around any sequence algorithm."""

    def __init__(self, run):
        self.run = run

    def distribution(self, profile):
        seq = self.run(profile.oracle())
        return [(Fraction(1), MechanismOutcome(seq, (Fraction(0),) * profile.n))]


def expected_utilities(mech, profile):
    utils = []
    for i in range(profile.n):
        utils.append(sum(
            (p * (profile.value(i, prefix_of(out.sequence, i)) - out.payments[i])
             for p, out in mech.distribution(profile)), Fraction(0)))
    return utils


class TestValuationProfile:
    def test_from_oracle_round_trip(self):
        oracle = osm_oracle(random_matching_instance(3, seed=1))
        profile = ValuationProfile.from_oracle(oracle)
        rebuilt = profile.oracle()
        for i in range(3):
            others = [j for j in range(3) if j != i]
            for s in ordered_subsequences(others):
                assert rebuilt.value(i, s) == oracle.fresh().value(i, s)

    def test_from_oracle_cap_raises_before_any_query(self):
        # n=10 would read 9,864,100 table entries, over the default budget of 10!
        oracle = ValuationOracle(10, lambda i, s: Fraction(0))
        with pytest.raises(CapExceededError,
                           match="enumeration cap exceeded: n=10 valuation tables"):
            ValuationProfile.from_oracle(oracle)
        assert oracle.ledger.total_calls == 0

    def test_incomplete_table_rejected(self):
        with pytest.raises(ValueError, match="every prefix"):
            ValuationProfile([{(): Fraction(1)}, {(): Fraction(1)}])

    def test_extra_prefix_rejected(self):
        full = {(): Fraction(1), (0,): Fraction(1)}
        with pytest.raises(ValueError, match="every prefix"):
            ValuationProfile([{(): Fraction(1), (1,): Fraction(1)},
                              {**full, (0, 1): Fraction(1)}])
        with pytest.raises(ValueError, match="every prefix"):
            ValuationProfile([{(): Fraction(1), (1,): Fraction(1)}, {**full, (1,): Fraction(1)}])

    def test_zeroed(self):
        profile = det_family_profile(3, 1)
        z = profile.zeroed(0)
        assert all(v == 0 for v in z.tables[0].values())
        assert z.tables[1] == profile.tables[1]

    @pytest.mark.parametrize("copy", ["with_table", "zeroed"])
    def test_copy_checks_only_the_replaced_table(self, monkeypatch, copy):
        profile = det_family_profile(4, 2)
        calls = []
        check = mechanisms._check_table

        def counted(n, agent, table):
            calls.append(agent)
            return check(n, agent, table)

        monkeypatch.setattr(mechanisms, "_check_table", counted)
        replaced = (profile.with_table(2, zero_table(4, 2)) if copy == "with_table"
                    else profile.zeroed(2))
        assert calls == [2]
        assert replaced.tables[2] == zero_table(4, 2)
        assert replaced.tables[:2] + replaced.tables[3:] == profile.tables[:2] + profile.tables[3:]
        assert profile.tables[2] != zero_table(4, 2)

    @pytest.mark.parametrize("table,message", [
        ({(): Fraction(0)}, "table for agent 1 must cover every prefix"),
        ({**zero_table(3, 1), (1,): Fraction(0)}, "table for agent 1 must cover every prefix"),
        ({**zero_table(3, 1), (0,): Fraction(-1)}, "table values must be non-negative rationals"),
        ({**zero_table(3, 1), (2,): 1}, "table values must be non-negative rationals"),
    ], ids=["missing", "extra", "negative", "not-a-fraction"])
    def test_bad_replacement_table_rejected(self, table, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            det_family_profile(3, 1).with_table(1, table)


class TestVcgPayments:
    def test_zero_valuation_agent_pays_nothing(self):
        profile = det_family_profile(4, 2).with_table(2, zero_table(4, 2))
        out = vcg_det_plus(profile, 2)
        assert out.payments[2] == 0
        for seed in range(5):
            out = vcg_rand(profile, 2, seed)
            assert out.payments[2] == 0

    def test_single_agent_pays_nothing(self):
        profile = ValuationProfile([{(): Fraction(5)}])
        assert vcg_rand(profile, 1, 0).payments == (Fraction(0),)
        assert vcg_det_plus(profile, 1).payments == (Fraction(0),)

    def test_rand_agents_outside_subset_pay_nothing(self):
        profile = det_family_profile(4, 2)
        out = vcg_rand(profile, 2, seed=3)
        chosen = set(out.sequence[:2])
        for i in range(4):
            if i not in chosen:
                assert out.payments[i] == 0

    def test_matching_counterexample_nonnegative_and_agent0_prefers_truth(self):
        ce = counterexample_profiles(EPS)[0]
        profile = ce.profile
        mech = VcgRandMechanism(2)
        for _, out in mech.distribution(profile):
            assert all(p >= 0 for p in out.payments)
        report = truthfulness_spotcheck(mech, profile, {0: [ce.alt_table]})
        assert report.ok

    def test_det_plus_payment_can_be_positive(self):
        ce = counterexample_profiles(EPS)[0]
        out = vcg_det_plus(ce.profile, 1)
        assert out.payments[0] == EPS  # agent 0 displaces agent 1 from item 0


class TestCycleMonotonicity:
    def test_all_three_counterexamples_violate(self):
        for eps in (Fraction(1, 10), Fraction(1, 100)):
            for ce in counterexample_profiles(eps):
                assert cycle_mon_violation(ce.run, ce.profile, ce.agent, ce.alt_table)

    def test_matching_violation_values(self):
        # (1+eps) + 0 < 1 + (1-eps) for the greedy matching pair
        ce = counterexample_profiles(EPS)[0]
        run = ce.run
        seq_v = run(ce.profile.oracle())
        alt_profile = ce.profile.with_table(0, ce.alt_table)
        seq_alt = run(alt_profile.oracle())
        v, v_alt = ce.profile.tables[0], ce.alt_table
        assert v[prefix_of(seq_v, 0)] == 1 + EPS
        assert v_alt[prefix_of(seq_alt, 0)] == 0
        assert v[prefix_of(seq_alt, 0)] == 1
        assert v_alt[prefix_of(seq_v, 0)] == 1 - EPS

    def test_identical_report_never_violates(self):
        for ce in counterexample_profiles(EPS):
            assert not cycle_mon_violation(ce.run, ce.profile, ce.agent,
                                           ce.profile.tables[ce.agent])


class TestSpotcheck:
    def test_det_plus_on_det_family_truthful(self):
        profile = det_family_profile(4, 2)
        misreports = {i: [det_family_misreport(4, 2, i), zero_table(4, i)]
                      for i in range(4)}
        report = truthfulness_spotcheck(VcgDetPlusMechanism(2), profile, misreports)
        assert report.ok

    def test_rand_on_det_family_truthful_in_expectation(self):
        profile = det_family_profile(4, 2)
        misreports = {i: [det_family_misreport(4, 2, i), zero_table(4, i)]
                      for i in range(4)}
        report = truthfulness_spotcheck(VcgRandMechanism(2), profile, misreports)
        assert report.ok

    def test_bit_immune_to_any_misreport(self):
        profile = det_family_profile(4, 2)
        misreports = {i: [det_family_misreport(4, 2, i), zero_table(4, i)]
                      for i in range(4)}
        report = truthfulness_spotcheck(BitMechanism(), profile, misreports)
        assert report.ok

    def test_unpaid_greedy_matching_gameable(self):
        # the agent whose true valuation is the deflated table profits by
        # reporting the inflated one (the other direction of the same pair)
        ce = counterexample_profiles(EPS)[0]
        truth = ce.profile.with_table(0, ce.alt_table)
        mech = UnpaidAlgorithm(ce.run)
        report = truthfulness_spotcheck(mech, truth, {0: [ce.profile.tables[0]]})
        assert not report.ok
        (entry,) = report.violations
        assert entry.truthful_utility == 0
        assert entry.misreport_utility == 1 - EPS

    def test_individual_rationality(self):
        profile = det_family_profile(4, 2)
        for mech in (VcgDetPlusMechanism(2), VcgRandMechanism(2), BitMechanism()):
            assert all(u >= 0 for u in expected_utilities(mech, profile))


def _welfare_of_others(profile, sequence, agents, agent):
    return sum((profile.value(k, prefix_of(sequence, k)) for k in agents if k != agent),
               Fraction(0))


def _best_subset_sequence(profile, subset):
    """The random-subset search's output for one draw, written out: the best
    ordering of the subset (ties lexicographic), then the rest ascending."""
    best = max(permutations(sorted(subset)),
               key=lambda order: (sum((profile.value(a, order[:k])
                                       for k, a in enumerate(order)), Fraction(0)),
                                  [-a for a in order]))
    return best + tuple(i for i in range(profile.n) if i not in subset)


PINNED_PROFILES = [("det-family", det_family_profile(4, 2))] + [
    (ce.name, ce.profile) for ce in counterexample_profiles(EPS)]


class TestVcgPaymentFormula:
    """Each payment is the others' value in the run with the payer's report
    zeroed, minus their value in the real run."""

    @pytest.mark.parametrize("name,profile", PINNED_PROFILES,
                             ids=[name for name, _ in PINNED_PROFILES])
    @pytest.mark.parametrize("c", [1, 2])
    def test_det_plus(self, name, profile, c):
        out = vcg_det_plus(profile, c)
        assert out.sequence == det_plus(profile.oracle(), c)
        everyone = range(profile.n)
        expected = tuple(
            _welfare_of_others(profile, det_plus(profile.zeroed(i).oracle(), c), everyone, i)
            - _welfare_of_others(profile, out.sequence, everyone, i)
            for i in everyone)
        assert out.payments == expected

    @pytest.mark.parametrize("name,profile", PINNED_PROFILES,
                             ids=[name for name, _ in PINNED_PROFILES])
    def test_every_rand_draw(self, name, profile):
        dist = VcgRandMechanism(2).distribution(profile)
        subsets = list(combinations(range(profile.n), 2))
        assert len(dist) == len(subsets)
        for (p, out), subset in zip(dist, subsets):
            assert p == Fraction(1, len(subsets))
            assert out.sequence == _best_subset_sequence(profile, subset)
            expected = tuple(
                _welfare_of_others(profile, _best_subset_sequence(profile.zeroed(i), subset),
                                   subset, i)
                - _welfare_of_others(profile, out.sequence, subset, i)
                if i in subset else Fraction(0)
                for i in range(profile.n))
            assert out.payments == expected


class TestVcgRandMatchesItsDistribution:
    """One seeded `vcg_rand` run is the distribution's outcome for the set it drew."""

    @pytest.mark.parametrize("name,profile", PINNED_PROFILES,
                             ids=[name for name, _ in PINNED_PROFILES])
    def test_seeds_and_every_c(self, name, profile):
        for c in range(1, profile.n + 1):
            by_draw = {frozenset(out.sequence[:c]): out
                       for _, out in VcgRandMechanism(c).distribution(profile)}
            for seed in range(20):
                out = vcg_rand(profile, c, seed)
                assert out == by_draw[frozenset(out.sequence[:c])], (c, seed)


class TestVcgRandReads:
    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_every_search_reads_a_counted_oracle(self, monkeypatch, c):
        """The draw, the real run and the c runs with a payer zeroed each
        read a fresh `profile.oracle()`, c * c! reads apiece."""
        built = []
        make = ValuationProfile.oracle

        def recorded(profile):
            built.append(make(profile))
            return built[-1]

        monkeypatch.setattr(ValuationProfile, "oracle", recorded)
        for seed in range(3):
            built.clear()
            vcg_rand(det_family_profile(5, c), c, seed)
            assert len(built) == c + 2
            assert sum(o.ledger.total_calls for o in built) == (c + 2) * c * factorial(c)


class TestVcgRandMechanismRange:
    @pytest.mark.parametrize("c", [-1, 0, 5])
    def test_c_outside_one_to_n_refused(self, c):
        with pytest.raises(ValueError, match="^c out of range$"):
            VcgRandMechanism(c).distribution(det_family_profile(4, 2))


class TestSpotcheckBuildsTheTruthOnce:
    def test_one_truthful_distribution_per_call(self):
        profile = det_family_profile(4, 2)
        misreports = {i: [det_family_misreport(4, 2, i), zero_table(4, i)]
                      for i in range(4)}
        asked = []

        class Counting(VcgDetPlusMechanism):
            def distribution(self, p):
                asked.append(p)
                return super().distribution(p)

        report = truthfulness_spotcheck(Counting(2), profile, misreports)
        assert report.ok and len(report.entries) == 8
        assert sum(p is profile for p in asked) == 1
        assert len(asked) == 1 + 8  # the truth, then one per misreport

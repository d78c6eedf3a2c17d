from itertools import permutations
from math import comb, factorial

import pytest

from seqdict import mechanisms, osm
from seqdict.core import (
    CapExceededError,
    Caps,
    brute_force_optimal_sequence,
    check_monotone_exhaustive,
    is_subsequence,
    social_welfare,
)
from seqdict.seqopt import (
    LowerBoundInstance,
    det,
    det_plus,
    make_lower_bound_oracle,
    rand,
    random_lower_bound_instance,
)


class TestLowerBoundOracle:
    def test_subsequence_of_hidden_scores_one(self):
        inst = LowerBoundInstance(3, 1, (1, 0, 2))
        assert make_lower_bound_oracle(inst).value(2, (1, 0)) == 1

    def test_non_subsequence_scores_zero(self):
        inst = LowerBoundInstance(3, 1, (1, 0, 2))
        assert make_lower_bound_oracle(inst).value(2, (0, 1)) == 0

    def test_short_prefix_scores_one(self):
        inst = LowerBoundInstance(4, 2, (3, 2, 1, 0))
        oracle = make_lower_bound_oracle(inst)
        assert oracle.value(0, ()) == 1
        assert oracle.value(0, (1,)) == 1  # |S| = 1 < c

    def test_monotone(self):
        for n, c in [(4, 1), (4, 2), (5, 2), (5, 3)]:
            inst = random_lower_bound_instance(n, c, seed=n * 10 + c)
            assert check_monotone_exhaustive(make_lower_bound_oracle(inst))

    def test_hidden_sequence_is_optimal(self):
        inst = random_lower_bound_instance(5, 2, seed=3)
        oracle = make_lower_bound_oracle(inst)
        assert social_welfare(oracle, inst.hidden_pi) == 5
        _, best = brute_force_optimal_sequence(oracle.fresh())
        assert best == 5

    def test_non_hitting_sequences_score_exactly_c(self):
        inst = random_lower_bound_instance(5, 2, seed=8)
        oracle = make_lower_bound_oracle(inst)
        for s in permutations(range(5)):
            if not is_subsequence(s[:2], inst.hidden_pi):
                assert social_welfare(oracle.fresh(), s) == 2


class TestDet:
    def test_c_equals_n_matches_brute_force(self):
        inst = osm.random_matching_instance(4, seed=5)
        oracle = osm.osm_oracle(inst)
        seq = det(oracle, 4)
        _, best = brute_force_optimal_sequence(oracle.fresh())
        assert social_welfare(oracle.fresh(), seq) == best

    def test_all_ties_resolve_to_ascending(self):
        inst = LowerBoundInstance(3, 1, (1, 2, 0))
        assert det(make_lower_bound_oracle(inst), 1) == (0, 1, 2)

    def test_counterexample_family_prefix(self):
        profile = mechanisms.det_family_profile(5, 2)
        seq = det(profile.oracle(monotone_claimed=True), 2)
        assert set(seq[:2]) == {0, 1}

    def test_query_count_exact(self):
        for n in (3, 5, 6):
            inst = random_lower_bound_instance(n, 2, seed=n)
            for c in range(1, n + 1):
                oracle = make_lower_bound_oracle(inst)
                det(oracle, c)
                assert oracle.ledger.total_calls == comb(n, c) * c * factorial(c)

    def test_ratio_bound_on_monotone_instances(self):
        for seed in range(10):
            inst = osm.random_matching_instance(4 + seed % 3, seed)
            oracle = osm.osm_oracle(inst)
            _, opt = brute_force_optimal_sequence(oracle.fresh())
            n = inst.n
            for c in range(1, n + 1):
                sw = social_welfare(oracle.fresh(), det(oracle.fresh(), c))
                assert n * sw >= c * opt

    def test_c_out_of_range(self):
        oracle = make_lower_bound_oracle(LowerBoundInstance(3, 1, (0, 1, 2)))
        with pytest.raises(ValueError, match="c out of range"):
            det(oracle, 0)
        with pytest.raises(ValueError, match="c out of range"):
            det(oracle, 4)

    def test_cap_before_first_query(self):
        oracle = make_lower_bound_oracle(random_lower_bound_instance(6, 2, seed=1))
        with pytest.raises(CapExceededError):
            det(oracle, 3, Caps(factorial=4))  # 6!/3! = 120 prefixes > 4!
        assert oracle.ledger.total_calls == 0
        det(oracle, 1, Caps(factorial=4))  # 6 prefixes fit the budget
        assert oracle.ledger.total_calls == 6


class TestRand:
    def test_c_equals_n_matches_brute_force_any_seed(self):
        inst = osm.random_matching_instance(4, seed=1)
        oracle = osm.osm_oracle(inst)
        _, best = brute_force_optimal_sequence(oracle.fresh())
        for seed in range(5):
            seq = rand(oracle.fresh(), 4, seed)
            assert social_welfare(oracle.fresh(), seq) == best

    def test_c_one_prefix_value(self):
        inst = osm.random_matching_instance(5, seed=2)
        oracle = osm.osm_oracle(inst)
        for seed in range(10):
            seq = rand(oracle.fresh(), 1, seed)
            sw = social_welfare(oracle.fresh(), seq)
            assert sw >= oracle.fresh().value(seq[0], ())

    def test_query_count_exact(self):
        inst = random_lower_bound_instance(6, 2, seed=0)
        for c in range(1, 7):
            oracle = make_lower_bound_oracle(inst)
            rand(oracle, c, seed=c)
            assert oracle.ledger.total_calls == c * factorial(c)

    def test_cap_before_first_query(self):
        oracle = make_lower_bound_oracle(random_lower_bound_instance(6, 2, seed=1))
        with pytest.raises(CapExceededError):
            rand(oracle, 5, 0, Caps(factorial=4))
        assert oracle.ledger.total_calls == 0
        rand(oracle, 4, 0, Caps(factorial=4))
        assert oracle.ledger.total_calls == 4 * factorial(4)

    def test_subset_draw_roughly_uniform(self):
        # partial Fisher-Yates must hit all C(4,2)=6 subsets evenly
        inst = random_lower_bound_instance(4, 2, seed=0)
        oracle = make_lower_bound_oracle(inst)
        counts = {}
        trials = 3000
        for seed in range(trials):
            seq = rand(oracle.fresh(), 2, seed)
            key = frozenset(seq[:2])
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        for v in counts.values():
            assert 0.12 < v / trials < 0.22  # p = 1/6, generous 5-sigma band

    def test_deterministic_per_seed(self):
        inst = random_lower_bound_instance(6, 3, seed=4)
        oracle = make_lower_bound_oracle(inst)
        assert rand(oracle.fresh(), 3, 99) == rand(oracle.fresh(), 3, 99)


class TestDetPlus:
    def test_c_equals_n_matches_brute_force(self):
        inst = osm.random_matching_instance(4, seed=7)
        oracle = osm.osm_oracle(inst)
        seq = det_plus(oracle, 4)
        _, best = brute_force_optimal_sequence(oracle.fresh())
        assert social_welfare(oracle.fresh(), seq) == best

    def test_c_zero_gives_ascending(self):
        inst = osm.random_matching_instance(4, seed=3)
        assert det_plus(osm.osm_oracle(inst), 0) == (0, 1, 2, 3)

    def test_never_below_det(self):
        for seed in range(8):
            inst = osm.random_matching_instance(5, seed)
            oracle = osm.osm_oracle(inst)
            for c in range(1, 6):
                sw_det = social_welfare(oracle.fresh(), det(oracle.fresh(), c))
                sw_plus = social_welfare(oracle.fresh(), det_plus(oracle.fresh(), c))
                assert sw_plus >= sw_det

    def test_counterexample_prefix(self):
        profile = mechanisms.det_family_profile(5, 2)
        seq = det_plus(profile.oracle(monotone_claimed=True), 2)
        assert set(seq[:2]) == {0, 1}

    def test_cap(self):
        inst = random_lower_bound_instance(6, 2, seed=1)
        with pytest.raises(CapExceededError):
            det_plus(make_lower_bound_oracle(inst), 5, Caps(factorial=4))


class TestInstanceValidation:
    def test_bad_c(self):
        with pytest.raises(ValueError):
            LowerBoundInstance(3, 4, (0, 1, 2))

    def test_bad_permutation(self):
        with pytest.raises(ValueError):
            LowerBoundInstance(3, 1, (0, 1, 1))

    def test_generator_deterministic(self):
        a = random_lower_bound_instance(6, 2, seed=42)
        b = random_lower_bound_instance(6, 2, seed=42)
        assert a == b

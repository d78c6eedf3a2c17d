from fractions import Fraction
from itertools import permutations

import pytest

from seqdict.core import (
    brute_force_optimal_sequence,
    social_welfare,
    underlying_optimum,
)
from seqdict.oss import (
    assignment_from_sequence,
    from_wcnf,
    nonmonotone_sat_instance,
    oss_oracle,
    posd_sat_instance,
    random_sat_instance,
    sat_as_decide,
    sat_instance,
    to_wcnf,
    x3c_reduce,
)
from seqdict.suites import suite_x3c, uncoverable_x3c

EPS = Fraction(1, 10)


class TestOracle:
    def test_lemma_value_after_two_agents(self):
        oracle = oss_oracle(nonmonotone_sat_instance())
        assert oracle.value(2, (0, 1)) == 2

    def test_lemma_value_after_one_agent(self):
        oracle = oss_oracle(nonmonotone_sat_instance())
        assert oracle.value(2, (1,)) == 1

    def test_single_positive_unit_clause(self):
        inst = sat_instance(1, [([1], Fraction(3, 7))])
        assert oss_oracle(inst).value(0, ()) == Fraction(3, 7)


class TestAssignment:
    def test_posd_instance_first_two_false(self):
        inst = posd_sat_instance(EPS)
        for s in permutations(range(3)):
            assign = assignment_from_sequence(inst, s)
            assert assign[s[0]] is False
            assert assign[s[1]] is False
            assert assign[s[2]] is True

    def test_positive_units_all_true(self):
        inst = sat_instance(3, [([1], 1), ([2], 1), ([3], 1)])
        for s in permutations(range(3)):
            assert assignment_from_sequence(inst, s) == (True, True, True)

    def test_lemma_instance_canonical_order(self):
        inst = nonmonotone_sat_instance()
        assert assignment_from_sequence(inst, (0, 1, 2)) == (True, False, True)


class TestSatAsDecide:
    def test_witnessed_targets_succeed(self):
        inst = random_sat_instance(4, 8, 3, seed=0)
        for s in permutations(range(4)):
            target = assignment_from_sequence(inst, s)
            seq = sat_as_decide(inst, target)
            assert seq is not None
            assert assignment_from_sequence(inst, seq) == target

    def test_posd_instance_all_true_unreachable(self):
        assert sat_as_decide(posd_sat_instance(EPS), (True, True, True)) is None

    def test_single_agent(self):
        inst = sat_instance(1, [([-1], 1)])
        assert sat_as_decide(inst, (False,)) == (0,)
        assert sat_as_decide(inst, (True,)) is None

    def test_lexicographically_smallest_witness(self):
        inst = random_sat_instance(4, 6, 2, seed=3)
        target = assignment_from_sequence(inst, (2, 0, 3, 1))
        seq = sat_as_decide(inst, target)
        producing = [s for s in permutations(range(4))
                     if assignment_from_sequence(inst, s) == target]
        assert seq == min(producing)

    def test_agrees_with_exhaustive_scan(self):
        for seed in range(6):
            inst = random_sat_instance(4, 7, 3, seed)
            for bits in range(16):
                target = tuple(bool(bits >> k & 1) for k in range(4))
                exhaustive = [s for s in permutations(range(4))
                              if assignment_from_sequence(inst, s) == target]
                seq = sat_as_decide(inst, target)
                assert (seq is None) == (not exhaustive)
                if exhaustive:
                    assert seq == min(exhaustive)

    @pytest.mark.parametrize("weight_denominator", [1, 2])
    def test_agrees_with_exhaustive_scan_under_ties(self, weight_denominator):
        # coarse weights make both sides of a choice tie often, and the mixed
        # defaults make those ties go either way
        for seed in range(4):
            base = random_sat_instance(5, 9, 3, seed, weight_denominator)
            tie = tuple(bool((seed >> k ^ k) & 1) for k in range(5))
            inst = sat_instance(5, [(lits, w) for lits, w in base.clauses], tie)
            first = {}  # assignment -> lexicographically smallest producing sequence
            for s in permutations(range(5)):
                first.setdefault(assignment_from_sequence(inst, s), s)
            for bits in range(32):
                target = tuple(bool(bits >> k & 1) for k in range(5))
                assert sat_as_decide(inst, target) == first.get(target)


class TestX3cReduce:
    def test_small_yes_instance_shape(self):
        inst = x3c_reduce(3, [(0, 1, 2)])
        assert inst.n == 5  # 3 elements + 1 set + gate
        assert len(inst.clauses) == 8  # (t^2+7t)/2 + 3q + 1

    def test_gate_weights_q1_t1(self):
        inst = x3c_reduce(3, [(0, 1, 2)])
        weights = sorted(w for _, w in inst.clauses)
        assert Fraction(7, 3) in weights  # gate-after-sets clause
        assert Fraction(2) in weights     # gate penalty: 1 - 1 + 7/3 - 1/3

    def test_gate_penalty_q2_t2(self):
        inst = x3c_reduce(6, [(0, 1, 2), (3, 4, 5)])
        penalty = [w for lits, w in inst.clauses if lits == frozenset({-inst.n})]
        assert penalty == [Fraction(13, 3)]  # 4 - 4 + 14/3 - 1/3

    def test_clause_count_formula(self):
        for q, t, sets in [
            (1, 1, [(0, 1, 2)]),
            (2, 2, [(0, 1, 2), (3, 4, 5)]),
            (2, 3, [(0, 1, 2), (3, 4, 5), (1, 2, 3)]),
        ]:
            inst = x3c_reduce(3 * q, sets)
            assert len(inst.clauses) == (t * t + 7 * t) // 2 + 3 * q + 1

    def test_yes_instance_reaches_all_true(self):
        inst = x3c_reduce(3, [(0, 1, 2)])
        seq = sat_as_decide(inst, (True,) * inst.n)
        assert seq is not None
        assert assignment_from_sequence(inst, seq) == (True,) * inst.n

    def test_no_instance_cannot_reach_all_true(self):
        inst = x3c_reduce(6, [(0, 1, 2), (2, 3, 4)])  # element 5 uncovered
        assert sat_as_decide(inst, (True,) * inst.n) is None

    def test_suite_draws_its_uncoverable_instance_from_the_seed(self):
        assert uncoverable_x3c(0) != uncoverable_x3c(1)
        for seed in range(50):
            rows = {name: ok for name, ok, _ in suite_x3c(seed)}
            assert rows["uncoverable universe cannot reach all-True"]

    def test_disjoint_cover_yes_instance(self):
        inst = x3c_reduce(6, [(0, 1, 2), (3, 4, 5)])
        assert sat_as_decide(inst, (True,) * inst.n) is not None

    def test_malformed_inputs(self):
        with pytest.raises(ValueError):
            x3c_reduce(4, [(0, 1, 2)])  # not a multiple of 3
        with pytest.raises(ValueError):
            x3c_reduce(3, [(0, 1)])  # set of wrong size
        with pytest.raises(ValueError):
            x3c_reduce(6, [(0, 1, 2)])  # fewer sets than any cover needs


class TestPosdInstance:
    def test_total_weight(self):
        assert posd_sat_instance(EPS).total_weight == Fraction(57, 10)

    def test_best_sequence_welfare(self):
        oracle = oss_oracle(posd_sat_instance(EPS))
        _, best = brute_force_optimal_sequence(oracle)
        assert best == Fraction(39, 10)

    def test_all_true_satisfies_everything(self):
        inst = posd_sat_instance(EPS)
        assert underlying_optimum(inst) == inst.total_weight

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            posd_sat_instance(Fraction(3, 2))


class TestTwoApproximation:
    def test_every_sequence_on_random_instances(self):
        for seed in range(12):
            n = 3 + seed % 3
            inst = random_sat_instance(n, 2 * n, 3, seed)
            oracle = oss_oracle(inst)
            for s in permutations(range(n)):
                assert 2 * social_welfare(oracle.fresh(), s) >= inst.total_weight


class TestWcnf:
    def test_round_trip(self):
        for seed in range(20):
            inst = random_sat_instance(4, 6, 3, seed)
            assert from_wcnf(to_wcnf(inst)) == inst

    def test_round_trip_with_tie_defaults(self):
        inst = x3c_reduce(6, [(0, 1, 2), (2, 3, 4)])
        assert not all(inst.tie_default)
        assert from_wcnf(to_wcnf(inst)) == inst

    def test_integer_weights_accepted(self):
        inst = from_wcnf("p wcnf 2 1\n3 1 -2 0\n")
        assert inst.clauses[0][1] == 3

    def test_bad_header(self):
        with pytest.raises(ValueError):
            from_wcnf("p cnf 2 1\n1 1 0\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(ValueError):
            from_wcnf("p wcnf 2 2\n1 1 0\n")


class TestValidation:
    def test_complementary_literals_rejected(self):
        with pytest.raises(ValueError):
            sat_instance(2, [([1, -1], 1)])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            sat_instance(2, [([1], -1)])

    def test_duplicate_literals_collapse(self):
        inst = sat_instance(2, [([1, 1, -2], 1)])
        assert inst.clauses[0][0] == frozenset({1, -2})

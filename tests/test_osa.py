from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

import pytest

from seqdict import osa, suites
from seqdict.core import (
    brute_force_optimal_sequence,
    check_monotone_exhaustive,
    social_welfare,
    underlying_optimum,
)
from seqdict.mechanisms import counterexample_digraph_instance
from seqdict.osa import (
    ArborescenceInstance,
    all_arborescences,
    arborescence_from_sequence,
    bit,
    check_arborescence,
    greedy_osa,
    has_cycle,
    is_pareto_optimal_arborescence,
    osa_oracle,
    random_digraph_instance,
    reaches,
    sequence_for_arborescence,
)

EPS = Fraction(1, 10)


def two_cycle_instance():
    return ArborescenceInstance.from_weights([[0, 1], [1, 0]])


class TestOracle:
    def test_empty_prefix_gives_top_edge(self):
        inst = random_digraph_instance(4, seed=0)
        oracle = osa_oracle(inst)
        for i in range(4):
            assert oracle.value(i, ()) == max(w for w in inst.weights[i] if w is not None)

    def test_counterexample_forbidden_top_edge(self):
        # agent 1 drew 1->0, so 0->1 closes a cycle; 0 falls back to 0->3
        oracle = osa_oracle(counterexample_digraph_instance(EPS))
        assert oracle.value(0, (1,)) == EPS

    def test_two_agents_forced_cycle(self):
        oracle = osa_oracle(two_cycle_instance())
        assert oracle.value(1, (0,)) == 0

    def test_monotone(self):
        for seed in range(5):
            inst = random_digraph_instance(4, seed)
            assert check_monotone_exhaustive(osa_oracle(inst))


class TestGreedy:
    def test_two_cycle_eviction(self):
        oracle = osa_oracle(two_cycle_instance())
        seq = greedy_osa(oracle)
        assert seq == (1, 0)
        assert social_welfare(oracle.fresh(), seq) == 1
        assert underlying_optimum(two_cycle_instance()) == 1

    def test_acyclic_top_choices_no_eviction(self):
        # chain of top edges 0->1->2->3: a forest, everyone keeps the max
        w = [[0] * 4 for _ in range(4)]
        w[0][1] = w[1][2] = w[2][3] = 1
        inst = ArborescenceInstance.from_weights(w)
        oracle = osa_oracle(inst)
        seq = greedy_osa(oracle)
        total = sum((oracle.fresh().value(i, ()) for i in range(4)), Fraction(0))
        assert social_welfare(oracle.fresh(), seq) == total

    def test_counterexample_run(self):
        # evictions: 0 loses cycle {0,1}, 2 loses cycle {2,3}; reserve order kept
        oracle = osa_oracle(counterexample_digraph_instance(EPS))
        seq = greedy_osa(oracle)
        assert seq == (1, 3, 0, 2)
        assert social_welfare(oracle.fresh(), seq) == 2 + EPS

    def test_half_of_top_value_bound(self):
        for seed in range(60):
            n = 3 + seed % 4
            denom = (1, 2, 100)[seed % 3]
            inst = random_digraph_instance(n, seed, denom)
            oracle = osa_oracle(inst)
            sw = social_welfare(oracle.fresh(), greedy_osa(oracle))
            top = sum((oracle.fresh().value(i, ()) for i in range(n)), Fraction(0))
            assert 2 * sw >= top

    def test_query_count_order(self):
        for n in (3, 5, 7):
            oracle = osa_oracle(random_digraph_instance(n, seed=n))
            greedy_osa(oracle)
            assert oracle.ledger.total_calls <= 3 * n * n


class TestBit:
    def test_heads(self):
        assert bit(3, True) == (0, 1, 2)

    def test_tails(self):
        assert bit(3, False) == (2, 1, 0)

    def test_single(self):
        assert bit(1, True) == (0,) == bit(1, False)

    def test_expected_welfare_half_of_optimum(self):
        for seed in range(30):
            n = 3 + seed % 3
            inst = random_digraph_instance(n, seed)
            oracle = osa_oracle(inst)
            expect = (social_welfare(oracle.fresh(), bit(n, True))
                      + social_welfare(oracle.fresh(), bit(n, False))) / 2
            _, opt = brute_force_optimal_sequence(oracle.fresh())
            assert 2 * expect >= opt


class TestConversions:
    def test_two_agents_forced(self):
        inst = ArborescenceInstance.from_weights([[0, 1], [0, 0]])
        assert arborescence_from_sequence(inst, (0, 1)) == (1, None)

    def test_single_agent(self):
        inst = ArborescenceInstance.from_weights([[0]])
        assert arborescence_from_sequence(inst, (0,)) == (None,)

    def test_always_n_minus_one_edges(self):
        for seed in range(5):
            inst = random_digraph_instance(4, seed)
            for s in permutations(range(4)):
                parent = arborescence_from_sequence(inst, s)
                check_arborescence(parent, 4)
                assert sum(p is not None for p in parent) == 3

    def test_root_is_last_agent(self):
        inst = random_digraph_instance(5, seed=2)
        for s in [(0, 1, 2, 3, 4), (4, 2, 0, 3, 1)]:
            parent = arborescence_from_sequence(inst, s)
            assert parent[s[-1]] is None


class TestPareto:
    def test_single_agent(self):
        inst = ArborescenceInstance.from_weights([[0]])
        assert is_pareto_optimal_arborescence(inst, (None,))

    def test_two_agents_both_pareto(self):
        inst = two_cycle_instance()
        assert is_pareto_optimal_arborescence(inst, (1, None))
        assert is_pareto_optimal_arborescence(inst, (None, 0))

    def test_produced_arborescences_are_pareto(self):
        inst = random_digraph_instance(4, seed=6)
        for s in permutations(range(4)):
            assert is_pareto_optimal_arborescence(
                inst, arborescence_from_sequence(inst, s))

    def test_three_way_agreement(self):
        for seed in range(12):
            n = 2 + seed % 3
            inst = random_digraph_instance(n, seed, 6)
            produced = {arborescence_from_sequence(inst, s)
                        for s in permutations(range(n))}
            for cand in all_arborescences(n):
                a = cand in produced
                b = sequence_for_arborescence(inst, cand) is not None
                c = is_pareto_optimal_arborescence(inst, cand)
                assert a == b == c

    def test_arborescence_count(self):
        # Cayley: n^(n-1) arborescences on n labeled nodes
        assert sum(1 for _ in all_arborescences(3)) == 9
        assert sum(1 for _ in all_arborescences(4)) == 64


def arborescences_by_product(n):
    """Every parent vector `check_arborescence` accepts, grouped by root and
    otherwise in `itertools.product` order."""
    accepted = []
    for parent in product(*[[None] + [j for j in range(n) if j != i] for i in range(n)]):
        try:
            check_arborescence(parent, n)
        except ValueError:
            continue
        accepted.append(parent)
    return sorted(accepted, key=lambda parent: parent.index(None))


class TestArborescenceTable:
    def test_table_equals_product_reference(self):
        for n in range(1, 6):
            assert tuple(all_arborescences(n)) == tuple(arborescences_by_product(n))

    def test_every_call_iterates_the_whole_table(self):
        first, second = all_arborescences(3), all_arborescences(3)
        assert next(first) == (None, 0, 0)
        assert len(list(second)) == 9
        assert len(list(first)) == 8

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_pareto_suite_builds_each_size_once(self, monkeypatch, seed):
        builds = []
        build = osa._arborescence_table.__wrapped__

        def counted(n):
            builds.append(n)
            return build(n)

        monkeypatch.setattr(osa, "_arborescence_table", lru_cache(maxsize=1)(counted))
        assert all(ok for _, ok, _ in suites.suite_pareto(seed))
        assert builds == [2, 3, 4]


class TestPosd:
    def test_optimum_equals_best_sequence_welfare(self):
        for seed in range(8):
            n = 2 + seed % 4
            inst = random_digraph_instance(n, seed)
            _, best = brute_force_optimal_sequence(osa_oracle(inst))
            assert underlying_optimum(inst) == best


class TestValidation:
    def test_check_arborescence_rejects_cycle(self):
        with pytest.raises(ValueError):
            check_arborescence((1, 0, None), 3)

    def test_check_arborescence_rejects_two_roots(self):
        with pytest.raises(ValueError):
            check_arborescence((None, None), 2)


class TestNoneTargets:
    """A None target means "drew no edge": walks end there."""

    def test_walk_meets_none_partway(self):
        out = {0: 1, 1: None, 2: 0}
        assert reaches(out, 2, 1)
        assert not reaches(out, 2, 3)
        assert not reaches(out, 0, 2)

    def test_walk_starts_at_none(self):
        out = {0: None, 1: 0}
        assert not reaches(out, None, 0)
        assert not reaches(out, None, 1)

    def test_has_cycle_ignores_none_targets(self):
        assert not has_cycle({0: 1, 1: None, 2: 1})
        assert has_cycle({0: 1, 1: 2, 2: 0, 3: None})
        assert has_cycle({0: 1, 1: 0, 2: None})

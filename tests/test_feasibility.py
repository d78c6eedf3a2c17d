from itertools import permutations

import pytest

from seqdict import osa, osm
from seqdict.feasibility import (
    FeasibilityContext,
    is_downward_closed_on,
    produce_collection,
    sequence_for_collection,
)


def matching_setup(weights):
    inst = osm.MatchingInstance.from_weights(weights)
    return inst, osm.matching_context(inst)


class TestSequenceForCollection:
    def test_both_want_item0_target_aligned(self):
        # both agents rank item 0 first; giving each their simulated pick works
        _, ctx = matching_setup([[2, 1], [2, 1]])
        assert sequence_for_collection(ctx, {0: 0, 1: 1}) == (0, 1)

    def test_both_want_item0_swapped_target(self):
        # the swap is producible too: agent 1 just acts first
        _, ctx = matching_setup([[2, 1], [2, 1]])
        assert sequence_for_collection(ctx, {0: 1, 1: 0}) == (1, 0)

    def test_dominated_target_fails(self):
        # each agent prefers her own item; the swap is Pareto-dominated
        _, ctx = matching_setup([[2, 1], [1, 2]])
        assert sequence_for_collection(ctx, {0: 1, 1: 0}) is None

    def test_single_agent(self):
        _, ctx = matching_setup([[1]])
        assert sequence_for_collection(ctx, {0: 0}) == (0,)

    def test_returned_sequence_reproduces_target(self):
        for seed in range(10):
            inst = osm.random_matching_instance(4, seed)
            ctx = osm.matching_context(inst)
            for target_perm in permutations(range(4)):
                target = dict(enumerate(target_perm))
                seq = sequence_for_collection(ctx, target)
                if seq is not None:
                    assert produce_collection(ctx, seq) == target

    def test_agrees_with_exhaustive_search(self):
        for seed in range(10):
            for n in (2, 3, 4):
                inst = osm.random_matching_instance(n, seed, 6)
                ctx = osm.matching_context(inst)
                producible = {tuple(sorted(produce_collection(ctx, s).items()))
                              for s in permutations(range(n))}
                for target_perm in permutations(range(n)):
                    target = dict(enumerate(target_perm))
                    found = sequence_for_collection(ctx, target) is not None
                    assert found == (tuple(sorted(target.items())) in producible)

    def test_partial_target_rejected(self):
        _, ctx = matching_setup([[2, 1], [1, 2]])
        with pytest.raises(ValueError, match="not full"):
            sequence_for_collection(ctx, {0: 0})

    def test_infeasible_target_rejected(self):
        _, ctx = matching_setup([[2, 1], [1, 2]])
        with pytest.raises(ValueError, match="infeasible"):
            sequence_for_collection(ctx, {0: 0, 1: 0})


class TestLexicographicallySmallest:
    """Both deciders return the first producing sequence in lexicographic
    order, as the sat decider does."""

    @staticmethod
    def first_producing(produce, n):
        first = {}  # collection -> lexicographically smallest producing sequence
        for s in permutations(range(n)):
            first.setdefault(produce(s), s)
        return first

    @pytest.mark.parametrize("weight_denominator", [1, 2, 100])
    def test_matching(self, weight_denominator):
        for n in range(1, 6):
            for seed in range(3):
                inst = osm.random_matching_instance(n, seed, weight_denominator)
                first = self.first_producing(
                    lambda s: osm.matching_from_sequence(inst, s), n)
                for target in permutations(range(n)):
                    assert osm.sequence_for_matching(inst, target) == first.get(target)

    @pytest.mark.parametrize("weight_denominator", [1, 2, 100])
    def test_arborescence(self, weight_denominator):
        for n in range(1, 6):
            for seed in range(3):
                inst = osa.random_digraph_instance(n, seed, weight_denominator)
                first = self.first_producing(
                    lambda s: osa.arborescence_from_sequence(inst, s), n)
                for target in osa.all_arborescences(n):
                    assert (osa.sequence_for_arborescence(inst, target)
                            == first.get(target))


def test_dominated_target_is_refused_in_polynomially_many_calls():
    """Under a downward-closed constraint a dead end is final: agents
    0..57 commit to their top items, then neither 58 nor 59 can take the
    other's.  A search that backtracked would try 2^58 acted sets."""
    n = 60
    inst = osm.MatchingInstance.from_weights(
        [[1 if j == i else 0 for j in range(n)] for i in range(n)])
    base = osm.matching_context(inst)
    calls = 0

    def counted(i, acts):
        nonlocal calls
        calls += 1
        return base.best_response(i, acts)

    ctx = FeasibilityContext(n, base.feasible, counted)
    target = {i: i for i in range(n)} | {58: 59, 59: 58}
    assert sequence_for_collection(ctx, target) is None
    assert calls <= n * (n + 1) // 2


class TestDownwardClosure:
    def test_matching_constraint_is_downward_closed(self):
        inst = osm.random_matching_instance(4, seed=0)
        ctx = osm.matching_context(inst)
        target = dict(enumerate(osm.matching_from_sequence(inst, (0, 1, 2, 3))))
        assert is_downward_closed_on(ctx, target)

    def test_detects_non_downward_closed(self):
        ctx = FeasibilityContext(
            2,
            feasible=lambda m: len(m) != 1,  # singletons banned: not closed
            best_response=lambda i, m: 0,
        )
        assert not is_downward_closed_on(ctx, {0: 0, 1: 0})

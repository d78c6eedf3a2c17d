from itertools import permutations

import pytest

from seqdict import auxstructs, osa, osm, oss, seqopt
from seqdict.core import actions
from seqdict.feasibility import producing_sequence, sequence_for_collection


class TestSequenceForCollection:
    def test_both_want_item0_target_aligned(self):
        # both agents rank item 0 first; giving each their simulated pick works
        inst = osm.MatchingInstance.from_weights([[2, 1], [2, 1]])
        assert osm.sequence_for_matching(inst, (0, 1)) == (0, 1)

    def test_both_want_item0_swapped_target(self):
        # the swap is producible too: agent 1 just acts first
        inst = osm.MatchingInstance.from_weights([[2, 1], [2, 1]])
        assert osm.sequence_for_matching(inst, (1, 0)) == (1, 0)

    def test_dominated_target_fails(self):
        # each agent prefers her own item; the swap is Pareto-dominated
        inst = osm.MatchingInstance.from_weights([[2, 1], [1, 2]])
        assert osm.sequence_for_matching(inst, (1, 0)) is None

    def test_single_agent(self):
        inst = osm.MatchingInstance.from_weights([[1]])
        assert osm.sequence_for_matching(inst, (0,)) == (0,)

    def test_returned_sequence_reproduces_target(self):
        for seed in range(10):
            inst = osm.random_matching_instance(4, seed)
            for target in permutations(range(4)):
                seq = osm.sequence_for_matching(inst, target)
                if seq is not None:
                    assert osm.matching_from_sequence(inst, seq) == target

    def test_agrees_with_exhaustive_search(self):
        for seed in range(10):
            for n in (2, 3, 4):
                inst = osm.random_matching_instance(n, seed, 6)
                producible = {osm.matching_from_sequence(inst, s)
                              for s in permutations(range(n))}
                for target in permutations(range(n)):
                    found = osm.sequence_for_matching(inst, target) is not None
                    assert found == (target in producible)

    def test_partial_target_rejected(self):
        inst = osm.MatchingInstance.from_weights([[2, 1], [1, 2]])
        with pytest.raises(ValueError, match="not a perfect matching"):
            osm.sequence_for_matching(inst, (0,))

    def test_infeasible_target_rejected(self):
        inst = osm.MatchingInstance.from_weights([[2, 1], [1, 2]])
        with pytest.raises(ValueError, match="not a perfect matching"):
            osm.sequence_for_matching(inst, (0, 0))


class TestDeciderInputRejection:
    """Each decider checks its target before searching, with exact messages."""

    @pytest.mark.parametrize("n, target", [(2, (0,)), (3, (0, 0, 1)), (3, (1, 1, 1))])
    def test_matching(self, n, target):
        inst = osm.random_matching_instance(n, 0)
        with pytest.raises(ValueError) as exc:
            osm.sequence_for_matching(inst, target)
        assert str(exc.value) == "not a perfect matching"

    @pytest.mark.parametrize("target, message", [
        ((None, 0), "parent vector has wrong length"),
        ((None, 0, 0, 1), "parent vector has wrong length"),
        ((None, None, 0), "an arborescence has exactly one rootless agent"),
        ((0, 0, 0), "an arborescence has exactly one rootless agent"),
        ((None, 1, 0), "bad edge target"),
        ((None, 3, 0), "bad edge target"),
        ((None, -1, 0), "bad edge target"),
        ((None, 2, 1), "edges contain a cycle or disconnected part"),
    ])
    def test_arborescence(self, target, message):
        inst = osa.random_digraph_instance(3, 0)
        with pytest.raises(ValueError) as exc:
            osa.sequence_for_arborescence(inst, target)
        assert str(exc.value) == message


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


class TestProducingSequence:
    """The backtracking search serves every structured kind, including those
    whose state the acted set and the target do not fix."""

    KINDS = {
        "osm": lambda n, seed: osm.random_matching_instance(n, seed, 3),
        "osa": lambda n, seed: osa.random_digraph_instance(n, seed, 3),
        "oss": lambda n, seed: oss.random_sat_instance(n, 2 * n, 3, seed, 3),
        "osi": lambda n, seed: auxstructs.random_osi_instance(n, seed),
        "paths": lambda n, seed: auxstructs.random_paths_instance(n, seed, 3),
        "lowerbound": lambda n, seed: seqopt.random_lower_bound_instance(n, min(2, n), seed),
    }

    def test_lowerbound_order_sensitive_state(self):
        # hidden order (3, 1, 0, 2): the acted set {0, 2} is a dead end after
        # (0, 2), which keeps to that order, but not after (2, 0)
        inst = seqopt.random_lower_bound_instance(4, 2, 0)
        target = actions(inst, (2, 0, 3, 1))
        seq = producing_sequence(inst, target, commit_first=False)
        assert seq is not None and actions(inst, seq) == target

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_every_produced_target_is_found_first(self, kind):
        for n in range(1, 6):
            for seed in range(3):
                inst = self.KINDS[kind](n, seed)
                first = {}  # target -> lexicographically smallest producing sequence
                for s in permutations(range(n)):
                    first.setdefault(actions(inst, s), s)
                for target, seq in first.items():
                    found = producing_sequence(inst, target, commit_first=False)
                    assert found == seq, (n, seed, target)
                    assert actions(inst, found) == target


def test_dominated_target_is_refused_in_polynomially_many_calls(monkeypatch):
    """Under a downward-closed constraint a dead end is final: agents
    0..57 commit to their top items, then neither 58 nor 59 can take the
    other's.  A search that backtracked would try 2^58 acted sets."""
    n = 60
    inst = osm.MatchingInstance.from_weights(
        [[1 if j == i else 0 for j in range(n)] for i in range(n)])
    calls = 0
    pick = osm._pick

    def counted(*args):
        nonlocal calls
        calls += 1
        return pick(*args)

    monkeypatch.setattr(osm, "_pick", counted)
    target = tuple(range(58)) + (59, 58)
    assert sequence_for_collection(inst, target) is None
    assert calls <= n * (n + 1) // 2

import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from seqdict.auxstructs import (
    OsiInstance,
    max_disjoint_paths_weight,
    max_independent_set,
    nonmonotone_paths_instance,
    osi_learn_and_solve,
    osi_oracle,
    paths_oracle,
    posd_paths_instance,
    random_osi_instance,
    random_paths_instance,
)
from seqdict.core import (
    actions,
    brute_force_optimal_sequence,
    check_monotone_exhaustive,
    find_monotonicity_violation,
    social_welfare,
    underlying_optimum,
)
from seqdict.osa import reaches

EPS = Fraction(1, 10)


def paths_edges_from_sequence(inst, seq) -> dict:
    """Out-edge map drawn by a full sequence (used for structural checks)."""
    return {i: j for i, j in enumerate(actions(inst, seq)) if j is not None}


def has_cycle(out: dict) -> bool:
    """True iff the out-edges close a directed cycle; None targets draw no edge."""
    return any(reaches(out, j, i) for i, j in out.items())


def check_path_union(out: dict, n: int) -> None:
    """Validate out-degree <= 1 (implicit), in-degree <= 1, and no cycles."""
    targets = list(out.values())
    if len(targets) != len(set(targets)):
        raise ValueError("a node has in-degree above 1")
    if has_cycle(out):
        raise ValueError("edges contain a cycle")


def mis_by_subset_scan(inst):
    """Independent oracle: check every vertex subset, largest first."""
    best = 0
    for size in range(inst.n, -1, -1):
        for sub in combinations(range(inst.n), size):
            if all(not inst.nbr[a] >> b & 1 for a, b in combinations(sub, 2)):
                return size
    return best


class TestOsi:
    def test_empty_graph_all_ones(self):
        inst = OsiInstance.from_edges(3, [])
        oracle = osi_oracle(inst)
        assert oracle.value(0, (1, 2)) == 1

    def test_complete_graph_zero_after_anyone(self):
        inst = OsiInstance.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        oracle = osi_oracle(inst)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert oracle.value(i, (j,)) == 0

    def test_single_edge(self):
        inst = OsiInstance.from_edges(3, [(0, 1)])
        oracle = osi_oracle(inst)
        assert oracle.value(1, (0,)) == 0
        assert oracle.value(2, (0,)) == 1

    def test_monotone(self):
        for seed in range(5):
            assert check_monotone_exhaustive(osi_oracle(random_osi_instance(4, seed)))

    def test_learner_on_empty_and_complete(self):
        empty = OsiInstance.from_edges(4, [])
        oracle = osi_oracle(empty)
        assert social_welfare(oracle.fresh(), osi_learn_and_solve(oracle)) == 4
        full = OsiInstance.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        oracle = osi_oracle(full)
        assert social_welfare(oracle.fresh(), osi_learn_and_solve(oracle)) == 1

    def test_five_cycle(self):
        c5 = OsiInstance.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        oracle = osi_oracle(c5)
        assert social_welfare(oracle.fresh(), osi_learn_and_solve(oracle)) == 2

    def test_learner_query_count(self):
        for n in (2, 4, 6):
            oracle = osi_oracle(random_osi_instance(n, seed=n))
            osi_learn_and_solve(oracle)
            assert oracle.ledger.total_calls == n * (n - 1)

    def test_learner_matches_subset_scan(self):
        for seed in range(30):
            n = 3 + seed % 5
            inst = random_osi_instance(n, seed)
            oracle = osi_oracle(inst)
            sw = social_welfare(oracle.fresh(), osi_learn_and_solve(oracle))
            assert sw == mis_by_subset_scan(inst) == underlying_optimum(inst)

    def test_max_independent_set_is_lex_smallest(self):
        inst = OsiInstance.from_edges(4, [(0, 1)])
        # {0,2,3} and {1,2,3} are both maximum; the lex-smaller wins
        assert max_independent_set(inst) == frozenset({0, 2, 3})

    def test_validation(self):
        with pytest.raises(ValueError):
            OsiInstance.from_edges(2, [(0, 0)])
        for n, nbr, message in (
                (0, (), "bad adjacency matrix"),
                (3, (0, 0), "bad adjacency matrix"),
                (3, (0b001, 0, 0), "self-loops are not allowed"),
                (3, (0b1000, 0, 0), "self-loops are not allowed"),  # a bit past n
                (3, (-2, 0, 0), "self-loops are not allowed"),
                (3, (0b010, 0, 0), "adjacency must be symmetric"),
                (3, (0b110, 0b001, 0b000), "adjacency must be symmetric")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                OsiInstance(n, nbr)
        assert OsiInstance(3, (0b110, 0b001, 0b001)).edges() == [(0, 1), (0, 2)]

    def test_from_edges_memory_is_linear_in_n(self):
        """An n x n matrix at n = 3000 would take over 100 MB."""
        tracemalloc.start()
        try:
            inst = OsiInstance.from_edges(3000, [(0, 1)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert inst.edges() == [(0, 1)]


class TestPathsOracle:
    def test_empty_prefix_is_row_max(self):
        inst = random_paths_instance(4, seed=0)
        oracle = paths_oracle(inst)
        for i in range(4):
            assert oracle.value(i, ()) == max(w for w in inst.weights[i] if w is not None)

    def test_posd_instance_top_choice(self):
        oracle = paths_oracle(posd_paths_instance(EPS))
        assert oracle.value(0, ()) == 1 + EPS  # the 0->3 shortcut

    def test_posd_instance_last_agent_starved(self):
        oracle = paths_oracle(posd_paths_instance(EPS))
        assert oracle.value(3, (0, 1, 2)) == 0

    def test_simulations_always_path_unions(self):
        for seed in range(6):
            inst = random_paths_instance(4, seed)
            for s in permutations(range(4)):
                check_path_union(paths_edges_from_sequence(inst, s), 4)

    def test_monotone_for_three_nodes(self):
        for seed in range(30):
            inst = random_paths_instance(3, seed)
            assert check_monotone_exhaustive(paths_oracle(inst))

    def test_rerouting_breaks_monotonicity_at_four_nodes(self):
        # documented deviation: an extra predecessor can steal an agent's
        # target node, rerouting her edge and unblocking a forbidden one
        hits = [find_monotonicity_violation(paths_oracle(random_paths_instance(4, s)))
                for s in range(8)]
        assert any(v is not None for v in hits)

    def test_pinned_rerouting_witness(self):
        inst = nonmonotone_paths_instance()
        assert inst == random_paths_instance(4, 2, weight_denominator=1)
        assert find_monotonicity_violation(paths_oracle(inst)) == (
            2, (1,), (0, 1), Fraction(0), Fraction(1))


class TestPathsPosdInstance:
    def test_underlying_optimum_is_chain(self):
        assert underlying_optimum(posd_paths_instance(EPS)) == 3

    def test_best_sequence_welfare(self):
        # two disjoint (1+eps) shortcuts (e.g. 0->3 and 2->1) are mutually
        # compatible, so the best sequence reaches 2 + 2*eps -- not the
        # 2 + eps sometimes quoted for this construction
        inst = posd_paths_instance(EPS)
        oracle = paths_oracle(inst)
        _, best = brute_force_optimal_sequence(oracle)
        assert best == 2 + 2 * EPS
        for s in permutations(range(4)):
            assert social_welfare(oracle.fresh(), s) <= 2 + 2 * EPS

    def test_ratio_approaches_three_halves(self):
        for eps in (Fraction(1, 10), Fraction(1, 10000)):
            inst = posd_paths_instance(eps)
            oracle = paths_oracle(inst)
            _, best = brute_force_optimal_sequence(oracle)
            ratio = underlying_optimum(inst) / best
            assert ratio == Fraction(3) / (2 + 2 * eps)
            assert ratio > Fraction(3, 2) - eps * 2

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            posd_paths_instance(0)


class TestMaxDisjointPaths:
    def test_matches_edge_subset_scan(self):
        # independent oracle: brute force over all 2^(n(n-1)) edge subsets
        for seed in range(6):
            inst = random_paths_instance(4, seed, 10)
            edges = [(i, j) for i in range(4) for j in range(4) if i != j]
            best = Fraction(0)
            for mask in range(1 << len(edges)):
                chosen = [edges[k] for k in range(len(edges)) if mask >> k & 1]
                out = dict(chosen)
                if len(out) != len(chosen):
                    continue  # out-degree clash
                targets = list(out.values())
                if len(targets) != len(set(targets)):
                    continue  # in-degree clash
                try:
                    check_path_union(out, 4)
                except ValueError:
                    continue
                best = max(best, sum((inst.weights[i][j] for i, j in chosen),
                                     Fraction(0)))
            assert max_disjoint_paths_weight(inst) == best

    def test_sequence_welfare_never_beats_optimum(self):
        for seed in range(5):
            inst = random_paths_instance(4, seed)
            oracle = paths_oracle(inst)
            opt = max_disjoint_paths_weight(inst)
            for s in permutations(range(4)):
                assert social_welfare(oracle.fresh(), s) <= opt

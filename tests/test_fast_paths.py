"""The prefix-tree search, the prefix-state oracles and the subset-DP optima,
each checked against a plain reference kept here: the n! sequence loop,
from-scratch simulations of every domain, and enumeration of the optima."""

import random
import sys
import threading
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from seqdict import auxstructs, osa, osm, oss, seqopt
from seqdict.core import (
    CapExceededError,
    Caps,
    brute_force_optimal_sequence,
    oracle_for,
    social_welfare,
    underlying_optimum,
)

# --- plain references ----------------------------------------------------------


def sequence_loop(oracle):
    """The n! loop the search replaced: ties go to the lexicographically first."""
    best_seq = best_val = None
    for cand in permutations(range(oracle.n)):
        sw = social_welfare(oracle, cand)
        if best_val is None or sw > best_val:
            best_seq, best_val = cand, sw
    return best_seq, best_val


def _free_item(inst, agent, gone):
    return next(j for j in inst.prefs[agent] if j not in gone)


def osm_value(inst, agent, seq):
    gone = set()
    for a in seq:
        gone.add(_free_item(inst, a, gone))
    return inst.weights[agent][_free_item(inst, agent, gone)]


def _walks_to(out, start, goal):
    node = start
    for _ in range(len(out) + 1):
        if node == goal:
            return True
        if node not in out:
            return False
        node = out[node]
    return False


def _arc(inst, agent, out):
    return next((j for j in inst.prefs[agent] if not _walks_to(out, j, agent)), None)


def osa_value(inst, agent, seq):
    out = {}
    for a in seq:
        target = _arc(inst, a, out)
        if target is not None:
            out[a] = target
    target = _arc(inst, agent, out)
    return Fraction(0) if target is None else inst.weights[agent][target]


def _sides(inst, agent, unsat):
    pos = sum((w for k, (lits, w) in enumerate(inst.clauses)
               if k in unsat and agent + 1 in lits), Fraction(0))
    neg = sum((w for k, (lits, w) in enumerate(inst.clauses)
               if k in unsat and -(agent + 1) in lits), Fraction(0))
    return pos, neg


def oss_value(inst, agent, seq):
    unsat = set(range(len(inst.clauses)))
    for a in seq:
        pos, neg = _sides(inst, a, unsat)
        lit = a + 1 if pos > neg or (pos == neg and inst.tie_default[a]) else -(a + 1)
        unsat = {k for k in unsat if lit not in inst.clauses[k][0]}
    return max(_sides(inst, agent, unsat))


def _heaviest_addable(inst, agent, out):
    taken = set(out.values())
    best = best_w = None
    for j in range(inst.n):
        if j == agent or j in taken or _walks_to(out, j, agent):
            continue
        if best_w is None or inst.weights[agent][j] > best_w:
            best, best_w = j, inst.weights[agent][j]
    return best, best_w


def paths_value(inst, agent, seq):
    out = {}
    for a in seq:
        target, _ = _heaviest_addable(inst, a, out)
        if target is not None:
            out[a] = target
    _, w = _heaviest_addable(inst, agent, out)
    return Fraction(0) if w is None else w


REFERENCE_VALUE = {
    "osm": osm_value,
    "osa": osa_value,
    "oss": oss_value,
    "paths": paths_value,
}


def make_instance(kind, n, seed, wd=100):
    if kind == "osm":
        return osm.random_matching_instance(n, seed, wd)
    if kind == "osa":
        return osa.random_digraph_instance(n, seed, wd)
    if kind == "oss":
        return oss.random_sat_instance(n, 2 * n, 3, seed, wd)
    if kind == "paths":
        return auxstructs.random_paths_instance(n, seed, wd)
    if kind == "osi":
        return auxstructs.random_osi_instance(n, seed)
    return seqopt.random_lower_bound_instance(n, min(2, n), seed)


ALL_KINDS = ("osm", "osa", "oss", "paths", "osi", "lowerbound")

# --- the prefix-tree search ------------------------------------------------------


class TestSearchMatchesSequenceLoop:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_random_instances(self, kind):
        for n in range(1, 7):
            for seed in range(2):
                inst = make_instance(kind, n, 100 * n + seed)
                assert (brute_force_optimal_sequence(oracle_for(inst))
                        == sequence_loop(oracle_for(inst))), (kind, n, seed)

    @pytest.mark.parametrize("kind", ("osm", "osa", "oss", "paths"))
    @pytest.mark.parametrize("wd", (1, 2, 3))
    def test_tie_heavy_instances(self, kind, wd):
        for n in range(2, 7):
            for seed in range(3):
                inst = make_instance(kind, n, 10 * n + seed, wd)
                assert (brute_force_optimal_sequence(oracle_for(inst))
                        == sequence_loop(oracle_for(inst))), (kind, n, wd, seed)

    def test_non_monotone_witnesses(self):
        for inst in (oss.nonmonotone_sat_instance(),
                     auxstructs.nonmonotone_paths_instance(),
                     auxstructs.posd_paths_instance(Fraction(1, 10))):
            assert (brute_force_optimal_sequence(oracle_for(inst))
                    == sequence_loop(oracle_for(inst)))


class TestSearchQueryCount:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_one_query_per_tree_edge(self, kind):
        for n in range(1, 7):
            oracle = oracle_for(make_instance(kind, n, n))
            brute_force_optimal_sequence(oracle)
            edges = sum(factorial(n) // factorial(n - k - 1) for k in range(n))
            assert oracle.ledger.total_calls == edges
            assert oracle.ledger.distinct_calls == edges

    def test_cap_raises_before_any_query(self):
        oracle = oracle_for(make_instance("osm", 5, 0))
        with pytest.raises(CapExceededError):
            brute_force_optimal_sequence(oracle, Caps(factorial=4))
        assert oracle.ledger.total_calls == 0


# --- prefix-state oracles ------------------------------------------------------------


def query_stream(n, seed):
    """(agent, prefix) pairs whose prefixes are shuffled, shrink and diverge."""
    rng = random.Random(seed)
    stream = []
    for _ in range(40):
        order = rng.sample(range(n), n)
        cut = rng.randrange(n)
        for k in range(cut, -1, -1):  # a prefix, then ever shorter ones
            stream.append((order[k], tuple(order[:k])))
        k = rng.randrange(n - 1) if n > 1 else 0
        rest = order[k:]
        rng.shuffle(rest)  # diverge from the last long prefix at position k
        stream += [(rest[j], tuple(order[:k]) + tuple(rest[:j])) for j in range(len(rest))]
    return stream


REPEATS = 12  # passes over each thread's query stream


@pytest.mark.parametrize("kind", sorted(REFERENCE_VALUE))
class TestOracleMatchesSimulation:
    def test_shuffled_shrinking_diverging_prefixes(self, kind):
        for n in (1, 2, 4, 6):
            inst = make_instance(kind, n, 7 * n, wd=3)
            copies = [oracle_for(inst)]
            for step, (agent, seq) in enumerate(query_stream(n, n)):
                if step % 7 == 0:
                    copies.append(copies[step % len(copies)].fresh())
                oracle = copies[step % len(copies)]
                assert oracle.value(agent, seq) == REFERENCE_VALUE[kind](inst, agent, seq)

    def test_copies_queried_from_threads(self, kind):
        inst = make_instance(kind, 6, 3, wd=3)
        root = oracle_for(inst)
        streams = [query_stream(6, 50 + t) for t in range(4)]
        want = [[REFERENCE_VALUE[kind](inst, a, s) for a, s in st] for st in streams]
        got = [None] * len(streams)

        def worker(t):
            oracle = root.fresh()
            got[t] = [oracle.value(a, s) for _ in range(REPEATS) for a, s in streams[t]]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
                assert not th.is_alive()
        finally:
            sys.setswitchinterval(old)
        assert got == [w * REPEATS for w in want]


# --- subset-DP optima --------------------------------------------------------------


def matching_by_enumeration(inst):
    return max(sum((inst.weights[i][p[i]] for i in range(inst.n)), Fraction(0))
               for p in permutations(range(inst.n)))


def arborescence_by_enumeration(inst):
    return max(sum((inst.weights[i][p[i]] for i in range(inst.n) if p[i] is not None),
                   Fraction(0))
               for p in osa.all_arborescences(inst.n))


class TestSubsetOptima:
    def test_matching_equals_enumeration(self):
        for n in range(1, 8):
            for wd in (1, 3, 100):
                inst = osm.random_matching_instance(n, 31 * n + wd, wd)
                assert underlying_optimum(inst) == matching_by_enumeration(inst)

    def test_arborescence_equals_enumeration(self):
        for n in range(1, 7):
            for wd in (1, 3, 100):
                inst = osa.random_digraph_instance(n, 37 * n + wd, wd)
                assert underlying_optimum(inst) == arborescence_by_enumeration(inst)
        inst = osa.random_digraph_instance(7, 7)
        assert underlying_optimum(inst) == arborescence_by_enumeration(inst)

    @pytest.mark.parametrize("make", (osm.random_matching_instance,
                                      osa.random_digraph_instance))
    def test_subset_cap(self, make):
        with pytest.raises(CapExceededError):
            underlying_optimum(make(5, 0), Caps(subset=4))

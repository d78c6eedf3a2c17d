"""The prefix-tree search, the memoised best-sequence search, the
prefix-state oracles and the subset-DP optima, each checked against a plain
reference: the n! sequence loop, the prefix-tree search, from-scratch
simulations of every domain, and enumeration of the optima."""

import gc
import random
import sys
import threading
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from seqdict import auxstructs, core, fileio, osa, osm, oss, seqopt
from seqdict.cli import NAMED_INSTANCES
from seqdict.suites import uncoverable_x3c
from seqdict.core import (
    CapExceededError,
    Caps,
    ValuationOracle,
    best_sequence,
    brute_force_optimal_sequence,
    is_subsequence,
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


def osm_actions(inst, seq):
    acts = {}
    for a in seq:
        acts[a] = _free_item(inst, a, set(acts.values()))
    return acts


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


def osa_actions(inst, seq):
    """Each acted agent's target; a None target draws no edge and ends walks."""
    out = {}
    for a in seq:
        out[a] = _arc(inst, a, out)
    return out


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


def oss_actions(inst, seq):
    acts, unsat = {}, set(range(len(inst.clauses)))
    for a in seq:
        pos, neg = _sides(inst, a, unsat)
        acts[a] = pos > neg or (pos == neg and inst.tie_default[a])
        lit = a + 1 if acts[a] else -(a + 1)
        unsat = {k for k in unsat if lit not in inst.clauses[k][0]}
    return acts


def _heaviest_addable(inst, agent, out):
    taken = set(out.values())
    best = best_w = None
    for j in range(inst.n):
        if j == agent or j in taken or _walks_to(out, j, agent):
            continue
        if best_w is None or inst.weights[agent][j] > best_w:
            best, best_w = j, inst.weights[agent][j]
    return best, best_w


def paths_actions(inst, seq):
    """Each acted agent's target; a None target draws no edge and ends walks."""
    out = {}
    for a in seq:
        out[a], _ = _heaviest_addable(inst, a, out)
    return out


def paths_value(inst, agent, seq):
    out = {}
    for a in seq:
        target, _ = _heaviest_addable(inst, a, out)
        if target is not None:
            out[a] = target
    _, w = _heaviest_addable(inst, agent, out)
    return Fraction(0) if w is None else w


def osi_value(inst, agent, seq):
    nodes = list(seq) + [agent]
    return Fraction(0 if any(inst.adj[a][b] for a, b in combinations(nodes, 2)) else 1)


def lowerbound_value(inst, agent, seq):
    return Fraction(1 if len(seq) < inst.c or is_subsequence(seq, inst.hidden_pi) else 0)


REFERENCE_ACTIONS = {
    "osm": osm_actions,
    "osa": osa_actions,
    "oss": oss_actions,
    "paths": paths_actions,
}

REFERENCE_VALUE = {
    "osm": osm_value,
    "osa": osa_value,
    "oss": oss_value,
    "paths": paths_value,
    "osi": osi_value,
    "lowerbound": lowerbound_value,
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


class TestSequenceWelfares:
    """`sequence_welfares` against the n! `social_welfare` loop."""

    def check(self, oracle):
        n, scale = oracle.n, oracle.scale or 1
        got = list(core.sequence_welfares(oracle))
        assert [seq for seq, _ in got] == list(permutations(range(n)))
        for seq, welfare in got:
            assert Fraction(welfare, scale) == social_welfare(oracle.fresh(), seq), seq
        assert oracle.ledger.total_calls == oracle.ledger.distinct_calls == tree_edges(n)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_every_kind(self, kind):
        for n in range(1, 7):
            for wd in (1, 100):
                self.check(oracle_for(make_instance(kind, n, 7 * n + wd, wd)))

    def test_opaque_oracle(self):
        for n in range(1, 6):
            oracle = walk_oracle("opaque", n)
            self.check(oracle)
            assert all(type(w) is Fraction for _, w in core.sequence_welfares(oracle.fresh()))

    def test_cap_raises_at_the_call(self):
        oracle = oracle_for(make_instance("osm", 5, 0))
        with pytest.raises(CapExceededError,
                           match="^enumeration cap exceeded: n=5 > factorial cap 4$"):
            core.sequence_welfares(oracle, Caps(factorial=4))  # never iterated
        assert oracle.ledger.total_calls == 0


# --- the memoised search ------------------------------------------------------------


def tree_edges(n):
    return sum(factorial(n) // factorial(n - k - 1) for k in range(n))


@pytest.fixture
def search_oracles(monkeypatch):
    """The oracles `best_sequence` builds, in the order it builds them."""
    built = []

    def spy(instance):
        built.append(oracle_for(instance))
        return built[-1]

    monkeypatch.setattr(core, "oracle_for", spy)
    return built


class TestMemoSearchMatchesTreeSearch:
    def check(self, inst, oracles):
        got = best_sequence(inst)
        assert got == brute_force_optimal_sequence(oracle_for(inst))
        ledger = oracles[-1].ledger
        assert ledger.total_calls == ledger.distinct_calls <= tree_edges(inst.n)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("wd", (1, 2, 3, 100))
    def test_random_instances(self, kind, wd, search_oracles):
        for n in range(1, 8):
            for seed in range(3 if n < 7 else 1):
                self.check(make_instance(kind, n, 1000 * n + 10 * wd + seed, wd),
                           search_oracles)

    def test_non_monotone_witnesses(self, search_oracles):
        for inst in (oss.nonmonotone_sat_instance(),
                     auxstructs.nonmonotone_paths_instance()):
            self.check(inst, search_oracles)

    def test_paths_at_eight_agents(self, search_oracles):
        # weight denominator 1: many ties, so many orders share a key
        self.check(make_instance("paths", 8, 8012, 1), search_oracles)

    @pytest.mark.parametrize("name", sorted(NAMED_INSTANCES))
    def test_named_instances(self, name, search_oracles):
        # the CLI's defaults; x3c's "no" variant has 9 agents, where the tree
        # reference alone takes seconds
        self.check(NAMED_INSTANCES[name](Fraction(1, 10), "yes"), search_oracles)

    def test_cap_raises_before_any_query(self, search_oracles):
        inst = make_instance("osm", 5, 0)
        with pytest.raises(CapExceededError) as tree:
            brute_force_optimal_sequence(oracle_for(inst), Caps(factorial=4))
        with pytest.raises(CapExceededError) as memo:
            best_sequence(inst, Caps(factorial=4))
        assert str(memo.value) == str(tree.value) == \
            "enumeration cap exceeded: n=5 > factorial cap 4"
        assert search_oracles[-1].ledger.total_calls == 0


class TestPathsKeyQueries:
    @pytest.mark.parametrize("seed, queries", [(0, 4627), (1, 3655), (2, 4675)])
    def test_search_queries_at_eight_agents(self, seed, queries, search_oracles):
        """The paths key (None where an edge enters a node, else the end of
        its walk) merges orders the drawn edges tell apart: keyed on the
        edges, the same searches make 9,760, 5,629 and 9,571 queries."""
        best_sequence(auxstructs.random_paths_instance(8, seed, 1))
        assert search_oracles[-1].ledger.total_calls == queries


class TestOsaKeyQueries:
    @pytest.mark.parametrize("seed, queries", [(0, 1128), (1, 1065), (2, 1216)])
    def test_search_queries_at_eight_agents(self, seed, queries, search_oracles):
        """The osa state (the end of the walk from each node) merges orders
        the drawn edges tell apart: keyed on the edges, the same searches
        make 1,696, 1,216 and 1,554 queries."""
        best_sequence(osa.random_digraph_instance(8, seed, 1))
        assert search_oracles[-1].ledger.total_calls == queries


class TestSearchReads:
    @staticmethod
    def plain_search_reads(inst):
        """The reads of a memoised search in order: the first prefix to reach
        each (acted set, state) reads every next agent, then descends."""
        n, (start, step, *_) = inst.n, inst.structure
        expanded, reads = set(), []

        def expand(prefix, acted, state):
            if len(prefix) == n or (acted, state) in expanded:
                return
            expanded.add((acted, state))
            for agent in range(n):
                if not acted >> agent & 1:
                    reads.append((agent, prefix))
                    expand(prefix + (agent,), acted | 1 << agent, step(state, agent))

        expand((), 0, start)
        return reads

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_reads_in_order(self, kind, monkeypatch):
        reads = []

        def recording(instance):
            oracle = oracle_for(instance)
            value = oracle.value

            def recorded(agent, seq=(), scaled=False):
                reads.append((agent, tuple(seq)))
                return value(agent, seq, scaled)

            oracle.value = recorded
            return oracle

        monkeypatch.setattr(core, "oracle_for", recording)
        for n in range(1, 7):
            for wd in (1, 100):
                inst = make_instance(kind, n, 3 * n + wd, wd)
                reads.clear()
                best_sequence(inst)
                assert reads == self.plain_search_reads(inst), (n, wd)


class TestSearchFreesItsMemo:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_no_garbage_cycles_left(self, kind):
        """The search's memo is freed when it returns, not left in a
        reference cycle for the garbage collector to find."""
        inst = make_instance(kind, 6, 1)
        gc.collect()
        gc.disable()
        try:
            best_sequence(inst)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestReadsLeaveNoCycles:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_no_garbage_cycles_left(self, kind):
        """The searches that read along grown prefixes leave nothing for the
        garbage collector, as `best_sequence` leaves nothing."""
        inst = make_instance(kind, 6, 1)
        runs = (lambda o: seqopt.det(o, 3),
                lambda o: seqopt.rand(o, 4, seed=1),
                lambda o: seqopt.max_welfare_ordering(o.value_scaled, range(5), o.prefixes.root),
                lambda o: list(core.sequence_welfares(o)),
                core.find_monotonicity_violation)
        gc.collect()
        gc.disable()
        try:
            for run in runs:
                run(oracle_for(inst))
                assert gc.collect() == 0
        finally:
            gc.enable()


# --- det: one prefix-tree pass against the per-subset searches ---------------------


def det_by_subsets(oracle, c):
    """`det` as a search of each c-subset in turn: every ordering of the subset
    read position by position, the subset's first maximum kept, and the best
    over the subsets taken with ties to the smaller ordering."""
    n = oracle.n
    best = None  # (total, order)
    for subset in combinations(range(n), c):
        order = total = None
        for cand in permutations(subset):
            t = 0
            for k, a in enumerate(cand):
                t += oracle.value_scaled(a, cand[:k])
            if total is None or t > total:
                order, total = cand, t
        if best is None or total > best[0] or (total == best[0] and order < best[1]):
            best = (total, order)
    return seqopt.fill_ascending(best[1], n)


class TestDetMatchesSubsetSearches:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_same_sequence_and_reads(self, kind):
        """Lowerbound's values are 0 or 1, so its orderings tie often."""
        for n in range(1, 8):
            for seed in range(3):
                inst = make_instance(kind, n, 50 * n + seed)
                for c in range(1, n + 1):
                    got, want = oracle_for(inst), oracle_for(inst)
                    assert seqopt.det(got, c) == det_by_subsets(want, c), (n, seed, c)
                    assert (got.ledger.total_calls, got.ledger.distinct_calls) == \
                        (want.ledger.total_calls, want.ledger.distinct_calls), (n, seed, c)


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


# --- properties over drawn instances ----------------------------------------------

drawn = settings(max_examples=150, deadline=None)


def draw_instance(data, kinds):
    """A drawn (kind, instance): n <= 6, any seed, weight denominator 1, 2, 3 or 100."""
    kind = data.draw(st.sampled_from(kinds), label="kind")
    n = data.draw(st.integers(1, 6), label="n")
    seed = data.draw(st.integers(0, 10 ** 6), label="seed")
    wd = data.draw(st.sampled_from((1, 2, 3, 100)), label="wd")
    return kind, make_instance(kind, n, seed, wd)


class TestDrawnInstances:
    @drawn
    @given(st.data())
    def test_oracle_equals_reference(self, data):
        kind, inst = draw_instance(data, sorted(REFERENCE_VALUE))
        reference = REFERENCE_VALUE[kind]
        oracle = oracle_for(inst)
        queries = st.tuples(st.permutations(range(inst.n)), st.integers(0, inst.n - 1))
        for order, k in data.draw(st.lists(queries, min_size=1, max_size=5), label="queries"):
            agent, seq = order[k], tuple(order[:k])
            assert oracle.value(agent, seq) == reference(inst, agent, seq)

    @drawn
    @given(st.data())
    def test_memo_search_equals_tree_search(self, data):
        _, inst = draw_instance(data, ALL_KINDS)
        assert best_sequence(inst) == brute_force_optimal_sequence(oracle_for(inst))


class TestStructureStates:
    @drawn
    @given(st.data())
    def test_actions_equal_reference(self, data):
        """`core.actions` gives each agent the action the reference
        simulation of a full sequence gives her."""
        kind, inst = draw_instance(data, sorted(REFERENCE_ACTIONS))
        seq = data.draw(st.permutations(range(inst.n)), label="seq")
        acts = REFERENCE_ACTIONS[kind](inst, seq)
        assert core.actions(inst, seq) == tuple(acts[i] for i in range(inst.n))

    @drawn
    @given(st.data())
    def test_every_state_reached_is_hashable(self, data):
        """The search memoises on (acted set, state), so states are keys."""
        _, inst = draw_instance(data, ALL_KINDS)
        start, step, *_ = inst.structure
        state = start
        hash(state)
        for agent in data.draw(st.permutations(range(inst.n)), label="seq"):
            state = step(state, agent)
            hash(state)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_prefixes_sharing_a_key_play_alike(self, kind):
        """The searches memoise on (acted set, state), which is sound only if
        every two prefixes with the same key give each next agent the same
        read, act and next state.  The reads and acts are taken both from the
        structure and from the plain reference simulation of the whole prefix,
        which would tell the prefixes apart under a key too coarse.  Every
        prefix is walked; sat at m = 2n and paths at weight denominator 1
        have ties, so many orders meet in one key."""
        reference_value = REFERENCE_VALUE[kind]
        reference_actions = REFERENCE_ACTIONS.get(kind)
        shared = 0
        for n in range(2, 7):
            for seed in range(3):
                inst = make_instance(kind, n, seed, 1 if kind == "paths" else 100)
                start, step, act, read, *_ = inst.structure
                plays = {}
                stack = [((), 0, start)]
                while stack:
                    prefix, acted, state = stack.pop()
                    nexts = [a for a in range(n) if not acted >> a & 1]
                    play = []
                    for a in nexts:
                        value = reference_value(inst, a, prefix)
                        done = (reference_actions(inst, prefix + (a,))[a]
                                if reference_actions else value)  # osi, lowerbound
                        play.append((read(state, a), act(state, a), step(state, a),
                                     value, done))
                    seen = plays.setdefault((acted, state), play)
                    shared += seen is not play
                    assert seen == play, (n, seed, prefix)
                    stack.extend((prefix + (a,), acted | 1 << a, after)
                                 for a, (_, _, after, _, _) in zip(nexts, play))
        assert shared > 0


class TestMonotoneClaims:
    @pytest.mark.parametrize("kind", ("osm", "osa", "osi", "lowerbound"))
    def test_claimed_kinds_have_no_violation(self, kind):
        for n in range(1, 6):
            for seed in range(10):
                inst = make_instance(kind, n, seed, (1, 2, 3, 100)[seed % 4])
                assert inst.structure.monotone_claimed
                assert core.find_monotonicity_violation(oracle_for(inst)) is None, (n, seed)

    @pytest.mark.parametrize("witness", (oss.nonmonotone_sat_instance,
                                         auxstructs.nonmonotone_paths_instance))
    def test_unclaimed_kinds_have_witnesses(self, witness):
        inst = witness()
        assert not inst.structure.monotone_claimed
        assert core.find_monotonicity_violation(oracle_for(inst)) is not None


# --- the prefix walk: checks and ledger keys --------------------------------------

WALK_KINDS = ALL_KINDS + ("opaque",)


def walk_oracle(kind, n, seed=0):
    """An oracle of `kind`; "opaque" is a table-free `ValuationOracle`."""
    if kind == "opaque":
        return ValuationOracle(n, lambda agent, seq: Fraction(sum(seq) + agent, len(seq) + 1))
    return oracle_for(make_instance(kind, n, seed, wd=3))


def value_error(call):
    """The text of the ValueError `call()` raises; None if it raises none."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("kind", WALK_KINDS)
class TestPrefixWalkChecks:
    """A query that shares a walked prefix is checked as a fresh one would be."""

    @pytest.mark.parametrize("seq, message", [
        ((1.0,), "agent 1.0 out of range for n=4"),
        ((Fraction(1), 2), "agent Fraction(1, 1) out of range for n=4"),
        ((1, Decimal(2)), "agent Decimal('2') out of range for n=4"),
        ((1, 2.0, 3), "agent 2.0 out of range for n=4"),
    ])
    def test_equal_non_ints_after_a_walked_prefix(self, kind, seq, message):
        oracle = walk_oracle(kind, 4)
        want = oracle.fresh().value(0, (1, 2))
        assert oracle.value(0, (1, 2)) == want
        assert value_error(lambda: core.check_action_seq(seq, 4)) == message
        assert value_error(lambda: oracle.value(0, seq)) == message
        assert oracle.ledger.total_calls == 1
        assert oracle.value(0, (1, 2)) == want

    @pytest.mark.parametrize("agent", [1.5, 1.0, Fraction(3, 2), None])
    def test_non_int_queried_agent(self, kind, agent):
        oracle = walk_oracle(kind, 4)
        assert value_error(lambda: oracle.value(agent, (0,))) == f"agent {agent} out of range"
        assert value_error(lambda: oracle.value_scaled(agent, (0,))) == \
            f"agent {agent} out of range"
        assert oracle.ledger.total_calls == 0

    def test_bool_agents_are_accepted(self, kind):
        oracle = walk_oracle(kind, 4)
        want = oracle.fresh().value(0, (1, 2))
        assert oracle.value(0, (1, 2)) == want
        assert oracle.value(0, (True, 2)) == want
        assert oracle.value(3, (2, True)) == oracle.fresh().value(3, (2, 1))
        assert (oracle.ledger.total_calls, oracle.ledger.distinct_calls) == (3, 2)

    @pytest.mark.parametrize("seq", [
        (1, 2, 7), (1, 2, -1), (1, 2, "x"), (1, 2, None), (1, 2, 1), (1, 2, 2),
        (1, 3, 3), (1, 3, 9), (3, 1, 3), (2, 1, 5, 1), (2, 2), (4,), (1, 2, 3, 3),
    ])
    def test_bad_suffix_or_diverging_query(self, kind, seq):
        oracle = walk_oracle(kind, 4)
        oracle.value(0, (1, 2, 3))
        oracle.value(0, (1, 2))
        want = value_error(lambda: core.check_action_seq(seq, 4))
        assert want is not None
        assert value_error(lambda: oracle.value(0, seq)) == want
        assert oracle.ledger.total_calls == 2
        assert oracle.value(0, (1, 3)) == oracle.fresh().value(0, (1, 3))

    def test_queried_agent_is_reported_before_a_bad_prefix(self, kind):
        oracle = walk_oracle(kind, 4)
        oracle.value(0, (1, 2))
        for seq in ((1, 2, 3, 9), (3, 2, 2), (1.0, 3)):
            assert value_error(lambda: oracle.value(3, seq)) == \
                "query subsequence contains the queried agent"

    def test_copies_share_the_walk(self, kind):
        oracle = walk_oracle(kind, 4)
        assert oracle.fresh().prefixes is oracle.prefixes


class TestPrefixWalkLedger:
    @drawn
    @given(st.data())
    def test_counts_equal_a_plain_pair_set(self, data):
        kind = data.draw(st.sampled_from(WALK_KINDS), label="kind")
        n = data.draw(st.integers(1, 6), label="n")
        seed = data.draw(st.integers(0, 10 ** 6), label="seed")
        oracle, reference = walk_oracle(kind, n, seed), walk_oracle(kind, n, seed)
        orders = data.draw(st.lists(st.permutations(range(n)), min_size=1, max_size=4),
                           label="orders")
        picks = st.tuples(st.integers(0, len(orders) - 1), st.integers(0, n - 1),
                          st.booleans())
        pairs = []
        for i, k, as_bools in data.draw(st.lists(picks, min_size=1, max_size=30),
                                        label="queries"):
            agent, seq = orders[i][k], orders[i][:k]
            if as_bools:  # 0 and 1 as False and True: equal agents, other objects
                seq = tuple(bool(a) if a < 2 else a for a in seq)
            pairs.append((agent, tuple(seq)))
            assert oracle.value(agent, seq) == reference.value(agent, orders[i][:k])
        assert oracle.ledger.total_calls == len(pairs)
        assert oracle.ledger.distinct_calls == len(set(pairs))


# --- checked prefixes: reads along grown prefixes ----------------------------------


def count_steps(inst):
    """Give `inst` a `structure` whose `step` records each agent it steps;
    return the record."""
    structure, steps = inst.structure, []

    def step(state, agent):
        steps.append(agent)
        return structure.step(state, agent)

    inst.__dict__["structure"] = structure._replace(step=step)
    return steps


def stepping_oracle(kind, n, seed):
    """`walk_oracle(kind, n, seed)` and the list of agents its structure has
    stepped so far (an opaque oracle steps nothing)."""
    if kind == "opaque":
        return walk_oracle(kind, n, seed), []
    inst = make_instance(kind, n, seed, wd=3)
    steps = count_steps(inst)
    return oracle_for(inst), steps


def outcome(call):
    """("value", what `call()` returns), or ("error", its ValueError's text)."""
    try:
        return "value", call()
    except ValueError as exc:
        return "error", str(exc)


def counts(oracle):
    return oracle.ledger.total_calls, oracle.ledger.distinct_calls


class TestCheckedPrefixes:
    @drawn
    @given(st.data())
    def test_reads_equal_plain_reads(self, data):
        """Along a drawn growth path, a checked prefix's read equals the read
        of its agents as a plain tuple (value, error text and ledger counts)
        and steps nothing; a growth step checks its agent as
        `check_action_seq` does, steps once and counts nothing; a checked
        prefix of another instance's walk is read as its plain agents; and
        `fresh` copies read their source's prefixes."""
        kind = data.draw(st.sampled_from(WALK_KINDS), label="kind")
        n = data.draw(st.integers(1, 6), label="n")
        seed = data.draw(st.integers(0, 10 ** 6), label="seed")
        oracle, steps = stepping_oracle(kind, n, seed)
        plain = walk_oracle(kind, n, seed)
        copy, plain_copy = oracle.fresh(), plain.fresh()
        other = walk_oracle(kind, data.draw(st.integers(1, n), label="other n"), seed + 1)
        prefix = oracle.prefixes.root
        agents = st.one_of(st.integers(-1, n), st.sampled_from((1.0, None, True)))
        ops = st.tuples(st.sampled_from(("grow", "read", "fresh", "foreign")), agents,
                        st.permutations(range(other.n)), st.integers(0, other.n))
        for op, agent, order, k in data.draw(st.lists(ops, max_size=25), label="ops"):
            stepped, before = len(steps), counts(oracle)
            if op == "grow":
                want = value_error(lambda: core.check_action_seq(prefix.agents + (agent,), n))
                if want is None:
                    prefix = prefix.then(agent)
                    assert len(steps) == stepped + (kind != "opaque")
                    assert prefix.agents[-1] is agent
                else:
                    assert value_error(lambda: prefix.then(agent)) == want
                assert counts(oracle) == before
            elif op == "read":
                assert outcome(lambda: oracle.value(agent, prefix)) == \
                    outcome(lambda: plain.value(agent, prefix.agents))
                assert len(steps) == stepped
                assert counts(oracle) == counts(plain)
            elif op == "fresh":
                assert outcome(lambda: copy.value_scaled(agent, prefix)) == \
                    outcome(lambda: plain_copy.value_scaled(agent, prefix.agents))
                assert len(steps) == stepped
                assert counts(copy) == counts(plain_copy)
            else:
                foreign = other.prefixes.walk(tuple(order[:k]))
                assert outcome(lambda: oracle.value(agent, foreign)) == \
                    outcome(lambda: plain.value(agent, foreign.agents))
                assert counts(oracle) == counts(plain)


class TestSearchStepsEachChildOnce:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_one_step_per_read_that_leaves_two_agents(self, kind, monkeypatch):
        """`best_sequence` steps a child once, for its memo key and its own
        reads both: one `step` per read whose prefix has fewer than n - 1
        agents (the last agent's state is never read)."""
        reads = []

        def recording(instance):
            oracle = oracle_for(instance)
            value = oracle.value

            def recorded(agent, seq=(), scaled=False):
                reads.append(len(tuple(seq)))
                return value(agent, seq, scaled)

            oracle.value = recorded
            return oracle

        monkeypatch.setattr(core, "oracle_for", recording)
        for n in range(1, 7):
            for wd in (1, 100):
                inst = make_instance(kind, n, 5 * n + wd, wd)
                want = best_sequence(inst)
                steps = count_steps(inst)
                reads.clear()
                assert best_sequence(inst) == want
                assert len(steps) == sum(k < n - 1 for k in reads), (n, wd)


# --- subset-DP optima --------------------------------------------------------------


def matching_by_enumeration(inst):
    return max(sum((inst.weights[i][p[i]] for i in range(inst.n)), Fraction(0))
               for p in permutations(range(inst.n)))


def arborescence_by_enumeration(inst):
    return max(sum((inst.weights[i][p[i]] for i in range(inst.n) if p[i] is not None),
                   Fraction(0))
               for p in osa.all_arborescences(inst.n))


def path_unions(n):
    """Every union of vertex-disjoint paths on n nodes, as an out-edge map."""
    for choice in product(*[[None] + [j for j in range(n) if j != i] for i in range(n)]):
        out = {i: j for i, j in enumerate(choice) if j is not None}
        if (len(set(out.values())) == len(out)
                and not any(_walks_to(out, j, i) for i, j in out.items())):
            yield out


def paths_by_enumeration(inst):
    return max(sum((inst.weights[i][j] for i, j in out.items()), Fraction(0))
               for out in path_unions(inst.n))


#: kind -> (brute-force optimum adding Fractions, the largest n it runs at)
OPTIMUM_REFERENCES = {
    "osm": (matching_by_enumeration, 6),
    "osa": (arborescence_by_enumeration, 5),
    "paths": (paths_by_enumeration, 5),
}

FROM_WEIGHTS = {
    "osm": osm.MatchingInstance.from_weights,
    "osa": osa.ArborescenceInstance.from_weights,
    "paths": auxstructs.PathsInstance.from_weights,
}


def max_sat_by_fraction_sums(inst):
    """The best satisfied weight over all 2^n assignments, adding Fractions."""
    def satisfied(bits):
        return sum((w for lits, w in inst.clauses
                    if any((bits >> (abs(l) - 1) & 1) == (l > 0) for l in lits)),
                   Fraction(0))
    return max(satisfied(bits) for bits in range(1 << inst.n))


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

    def test_max_sat_equals_fraction_sums(self):
        for n in range(1, 9):
            for wd in (1, 3, 100):
                for seed in range(3):
                    inst = oss.random_sat_instance(n, 2 * n, 3, 41 * n + seed, wd)
                    assert underlying_optimum(inst) == max_sat_by_fraction_sums(inst)
        inst = oss.from_wcnf("p wcnf 3 4\n1/3 1 -2 0\n2/7 2 3 0\n5 -1 0\n3/2 -3 0\n")
        assert inst.scale == 42
        assert underlying_optimum(inst) == max_sat_by_fraction_sums(inst)

    @drawn
    @given(st.data())
    def test_max_sat_equals_fraction_sums_on_loaded_files(self, data):
        n = data.draw(st.integers(1, 6), label="n")
        weights = data.draw(st.lists(st.sampled_from(MIXED_POOL), min_size=n * n,
                                     max_size=n * n), label="weights")
        inst = mixed_instance("oss", weights)
        assert underlying_optimum(inst) == max_sat_by_fraction_sums(inst)

    @pytest.mark.parametrize("kind", sorted(OPTIMUM_REFERENCES))
    def test_thirds_and_sevenths(self, kind):
        """The DPs add ints over the common denominator (a divisor of 21
        here) and return the Fraction the enumeration adds up."""
        reference, top = OPTIMUM_REFERENCES[kind]
        for n in range(1, top + 1):
            for seed in range(3):
                rng = random.Random(43 * n + seed)
                rows = [[Fraction(rng.randint(0, 6), rng.choice((3, 7))) for _ in range(n)]
                        for _ in range(n)]
                inst = FROM_WEIGHTS[kind](rows)
                got = underlying_optimum(inst)
                assert type(got) is Fraction and got == reference(inst), (kind, n, seed)

    @drawn
    @given(st.data())
    def test_optima_equal_enumeration_on_loaded_files(self, data):
        kind = data.draw(st.sampled_from(sorted(OPTIMUM_REFERENCES)), label="kind")
        reference, top = OPTIMUM_REFERENCES[kind]
        n = data.draw(st.integers(1, top), label="n")
        weights = data.draw(st.lists(st.sampled_from(MIXED_POOL), min_size=n * n,
                                     max_size=n * n), label="weights")
        inst = mixed_instance(kind, weights)
        got = underlying_optimum(inst)
        assert type(got) is Fraction and got == reference(inst)

    @pytest.mark.parametrize("make", (osm.random_matching_instance,
                                      osa.random_digraph_instance))
    def test_subset_cap(self, make):
        with pytest.raises(CapExceededError):
            underlying_optimum(make(5, 0), Caps(subset=4))


# --- sat on clause bitmasks ------------------------------------------------------------


def x3c_reductions():
    """Coverable and uncoverable universes; each variable sits in many clauses."""
    return [oss.x3c_reduce(3, [(0, 1, 2)]),
            oss.x3c_reduce(6, [(0, 1, 2), (3, 4, 5)]),
            oss.x3c_reduce(6, [(0, 1, 2), (2, 3, 4)]),
            oss.x3c_reduce(6, [(0, 1, 2), (2, 3, 4), (3, 4, 5)]),
            uncoverable_x3c(1)]


def wide_sat_instances():
    """80 clauses: masks wider than a machine word."""
    return [oss.random_sat_instance(n, 80, 3, 10 * n + seed, wd)
            for n in (1, 4, 7) for seed, wd in ((0, 1), (1, 100))]


class TestSatBitmasks:
    @pytest.mark.parametrize("family", (wide_sat_instances, x3c_reductions))
    def test_values_acts_and_optimum_equal_reference(self, family):
        for inst in family():
            n = inst.n
            oracle = oracle_for(inst)
            for agent, seq in query_stream(n, n):
                assert oracle.value(agent, seq) == oss_value(inst, agent, seq)
            rng = random.Random(n)
            for _ in range(20):
                seq = tuple(rng.sample(range(n), n))
                acts = oss_actions(inst, seq)
                assert core.actions(inst, seq) == tuple(acts[i] for i in range(n))
            assert underlying_optimum(inst) == max_sat_by_fraction_sums(inst)

    def test_wide_search_equals_tree_search(self):
        for inst in wide_sat_instances():
            if inst.n <= 5:
                assert best_sequence(inst) == brute_force_optimal_sequence(oracle_for(inst))

    def test_sat_as_decide_on_x3c_reductions(self):
        """All-True is producible iff the universe has an exact cover; every
        answer found produces its target under the reference simulation."""
        covers = [True, True, False, True, False]
        for inst, cover in zip(x3c_reductions(), covers):
            seq = oss.sat_as_decide(inst, (True,) * inst.n)
            assert (seq is not None) == cover
            if cover:
                assert all(oss_actions(inst, seq).values())
        inst = x3c_reductions()[0]
        first = {}
        for seq in permutations(range(inst.n)):
            first.setdefault(oss.assignment_from_sequence(inst, seq), seq)
        for target in product((False, True), repeat=inst.n):
            assert oss.sat_as_decide(inst, target) == first.get(target)

    def test_max_sat_refuses_past_the_subset_cap_before_any_work(self):
        for caps, n in ((Caps(subset=4), 5), (None, 21)):
            inst = oss.random_sat_instance(n, 2 * n, 3, 0)
            with pytest.raises(CapExceededError) as exc:
                underlying_optimum(inst, caps)
            assert str(exc.value) == f"n={n} exceeds subset cap {n - 1}"
            assert not {"clause_masks", "scaled_weights"} & set(inst.__dict__)

    def test_max_sat_memory_stays_below_two_halves(self):
        """A list of all 2^16 open-clause masks would take about 3 MB."""
        inst = oss.random_sat_instance(16, 32, 3, 5)
        tracemalloc.start()
        try:
            underlying_optimum(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


# --- integer reads over the common denominator ---------------------------------------

MIXED_POOL = tuple(Fraction(w) for w in ("0", "1/3", "2/7", "5/6", "1", "3/2"))


def mixed_instance(kind, weights):
    """A `kind` instance whose weights are drawn from `weights`, read back
    through the file loader."""
    n = int(len(weights) ** 0.5)
    rows = [[weights[n * i + j] for j in range(n)] for i in range(n)]
    if kind in FROM_WEIGHTS:
        inst = FROM_WEIGHTS[kind](rows)
    else:
        inst = oss.sat_instance(n, [([i + 1, -(j + 1)] if i != j else [i + 1], rows[i][j])
                                    for i in range(n) for j in range(n)])
    return fileio.parse_instance(fileio.serialize_instance(inst))


def draw_scaled_instance(data):
    """A drawn instance: a generated one of any kind (n <= 7, weight
    denominator 1, 2, 3 or 100), or a loaded one with mixed denominators."""
    if data.draw(st.booleans(), label="loaded"):
        kind = data.draw(st.sampled_from(("osm", "osa", "paths", "oss")), label="kind")
        n = data.draw(st.integers(1, 7), label="n")
        weights = data.draw(st.lists(st.sampled_from(MIXED_POOL), min_size=n * n,
                                     max_size=n * n), label="weights")
        return mixed_instance(kind, weights)
    kind = data.draw(st.sampled_from(ALL_KINDS), label="kind")
    n = data.draw(st.integers(1, 7), label="n")
    seed = data.draw(st.integers(0, 10 ** 6), label="seed")
    wd = data.draw(st.sampled_from((1, 2, 3, 100)), label="wd")
    return make_instance(kind, n, seed, wd)


def fraction_copy(oracle):
    """The same valuations behind an opaque oracle: no scale, Fraction sums."""
    return ValuationOracle(oracle.n, oracle.fresh().value, oracle.monotone_claimed)


def prefix_total(value, order):
    return sum((value(a, order[:k]) for k, a in enumerate(order)), Fraction(0))


def best_order(value, orders):
    """The order with the largest Fraction total; ties to the smallest order."""
    return min(orders, key=lambda order: (-prefix_total(value, order), order))


def det_reference(value, n, c):
    orders = [o for subset in combinations(range(n), c) for o in permutations(subset)]
    return seqopt.fill_ascending(best_order(value, orders), n)


def rand_reference(value, n, c, seed):
    rng = random.Random(seed)
    pool = list(range(n))
    for k in range(c):
        j = rng.randrange(k, n)
        pool[k], pool[j] = pool[j], pool[k]
    return seqopt.fill_ascending(best_order(value, permutations(sorted(pool[:c]))), n)


def det_plus_reference(value, n, c):
    return best_order(value, [seqopt.fill_ascending(p, n) for p in permutations(range(n), c)])


class TestScaledReads:
    @drawn
    @given(st.data())
    def test_scaled_read_is_one_counted_query(self, data):
        inst = draw_scaled_instance(data)
        oracle = oracle_for(inst)
        assert type(oracle.scale) is int and oracle.scale > 0
        queries = st.tuples(st.permutations(range(inst.n)), st.integers(0, inst.n - 1))
        for order, k in data.draw(st.lists(queries, min_size=1, max_size=5), label="queries"):
            agent, seq = order[k], tuple(order[:k])
            before = oracle.ledger.total_calls
            got = oracle.value_scaled(agent, seq)
            assert oracle.ledger.total_calls == before + 1
            assert type(got) is int
            assert got == oracle.value(agent, seq) * oracle.scale

    @pytest.mark.parametrize("kind", ("osm", "osa", "paths", "oss"))
    def test_loaded_scale_is_lcm_of_denominators(self, kind):
        thirds_sevenths = [Fraction(2, 7), Fraction(1, 3)] * 2
        assert oracle_for(mixed_instance(kind, thirds_sevenths)).scale == 21
        sixths_too = [Fraction(1, 3), Fraction(2, 7), Fraction(5, 6)] * 3
        assert oracle_for(mixed_instance(kind, sixths_too)).scale == 42

    @pytest.mark.parametrize("kind", ("osi", "lowerbound"))
    def test_unit_scale(self, kind):
        assert oracle_for(make_instance(kind, 4, 0)).scale == 1

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_fresh_keeps_scale(self, kind):
        oracle = oracle_for(make_instance(kind, 4, 1, wd=3))
        oracle.value(0)
        copy = oracle.fresh()
        assert copy.scale == oracle.scale is not None
        assert copy.fresh().scale == oracle.scale
        assert copy.ledger.total_calls == 0
        assert fraction_copy(oracle).fresh().scale is None


def equivalence_instances():
    for kind in ALL_KINDS:
        for wd in (1, 2, 3, 100):
            yield pytest.param(make_instance(kind, 6, 17 * wd + len(kind), wd),
                               id=f"{kind}-wd{wd}")
    for kind in ("osm", "osa", "paths", "oss"):
        rng = random.Random(kind)
        yield pytest.param(mixed_instance(kind, [rng.choice(MIXED_POOL) for _ in range(36)]),
                           id=f"{kind}-mixed")


@pytest.mark.parametrize("inst", list(equivalence_instances()))
class TestScaledSumsMatchFractionSums:
    def test_max_welfare_ordering(self, inst):
        oracle = oracle_for(inst)
        for agents in ((0, 2, 3), (5, 1, 4, 2), tuple(range(inst.n))[:5]):
            order, total = seqopt.max_welfare_ordering(oracle.value_scaled, agents)
            assert type(total) is int
            assert (order, Fraction(total, oracle.scale)) == \
                seqopt.max_welfare_ordering(oracle.value, agents)

    def test_social_welfare(self, inst):
        oracle = oracle_for(inst)
        for seed in range(5):
            seq = tuple(random.Random(seed).sample(range(inst.n), inst.n))
            want = prefix_total(oracle_for(inst).value, seq)
            got = social_welfare(oracle, seq)
            assert type(got) is Fraction and got == want
            assert social_welfare(fraction_copy(oracle), seq) == want
        assert oracle.ledger.total_calls == 5 * inst.n

    def test_algorithms(self, inst):
        oracle, n = oracle_for(inst), inst.n
        value = oracle_for(inst).value
        for c in (1, 2, 3):
            for run, want in ((lambda o: seqopt.det(o, c), det_reference(value, n, c)),
                              (lambda o: seqopt.det_plus(o, c), det_plus_reference(value, n, c)),
                              (lambda o: seqopt.rand(o, c + 1, seed=c),
                               rand_reference(value, n, c + 1, c))):
                scaled, plain = oracle.fresh(), fraction_copy(oracle)
                assert run(scaled) == run(plain) == want
                assert scaled.ledger.total_calls == plain.ledger.total_calls


class TestOpaqueOracle:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_fraction_valued_fn_runs_as_before(self, kind):
        inst = make_instance(kind, 6, 5, wd=3)
        table = {(a, s): oracle_for(inst).value(a, s) for a in range(6)
                 for s in core.ordered_subsequences([j for j in range(6) if j != a])
                 if len(s) < 4}
        opaque = ValuationOracle(6, lambda a, s: table[a, s])
        assert opaque.scale is None
        assert opaque.value_scaled(1, (0,)) is table[1, (0,)]
        value = lambda a, s: table[a, s]
        for c in (2, 3, 4):
            assert seqopt.det(opaque.fresh(), c) == det_reference(value, 6, c)
            assert seqopt.rand(opaque.fresh(), c, seed=c) == rand_reference(value, 6, c, c)


# --- the exhaustive monotonicity scan ------------------------------------------------


def monotonicity_violation_by_fractions(oracle):
    """The exhaustive scan reading every value through `value` and comparing
    Fractions: the reference for the integer scan."""
    for agent in range(oracle.n):
        others = [j for j in range(oracle.n) if j != agent]
        vals = {s: oracle.value(agent, s) for s in core.ordered_subsequences(others)}
        for s, v_s in vals.items():
            for mask in range(1 << len(s)):
                sub = tuple(s[b] for b in range(len(s)) if mask >> b & 1)
                if vals[sub] < v_s:
                    return core.MonotonicityViolation(agent, sub, s, vals[sub], v_s)
    return None


def scan_both_ways(oracle):
    """The scan's witness on `oracle` after checking it against the Fraction
    reference: same witness, same repr, same query count."""
    reference = oracle.fresh()
    got = core.find_monotonicity_violation(oracle)
    want = monotonicity_violation_by_fractions(reference)
    assert got == want
    assert repr(got) == repr(want)
    assert oracle.ledger.total_calls == reference.ledger.total_calls
    if got is not None:
        assert type(got.value_smaller) is type(got.value_larger) is Fraction
    return got


class TestMonotonicityScan:
    def test_every_kind_up_to_four_agents(self):
        witnesses = set()
        for kind in ALL_KINDS:
            for n in range(1, 5):
                for wd in (1, 3, 100):
                    for seed in range(4):
                        inst = make_instance(kind, n, 50 * n + seed, wd)
                        if scan_both_ways(oracle_for(inst)) is not None:
                            witnesses.add(kind)
        assert witnesses == {"oss", "paths"}

    def test_opaque_oracles(self):
        for kind in ALL_KINDS:
            for seed in range(3):
                scan_both_ways(fraction_copy(oracle_for(make_instance(kind, 4, seed, 3))))
        opaque = fraction_copy(oss.oss_oracle(oss.nonmonotone_sat_instance()))
        assert opaque.scale is None
        assert scan_both_ways(opaque) == (2, (1,), (0, 1), 1, 2)

    def test_loaded_files_with_mixed_denominators(self):
        for kind in ("osm", "osa", "paths", "oss"):
            rng = random.Random(kind)
            scales = set()
            for n in range(2, 5):
                for _ in range(4):
                    oracle = oracle_for(mixed_instance(
                        kind, [rng.choice(MIXED_POOL) for _ in range(n * n)]))
                    scales.add(oracle.scale)
                    scan_both_ways(oracle)
            assert any(scale % 21 == 0 for scale in scales)

    @pytest.mark.parametrize("inst, text", [
        (oss.nonmonotone_sat_instance(),
         "MonotonicityViolation(agent=2, smaller=(1,), larger=(0, 1), "
         "value_smaller=Fraction(1, 1), value_larger=Fraction(2, 1))"),
        (auxstructs.nonmonotone_paths_instance(),
         "MonotonicityViolation(agent=2, smaller=(1,), larger=(0, 1), "
         "value_smaller=Fraction(0, 1), value_larger=Fraction(1, 1))"),
    ], ids=["sat", "paths-n4"])
    def test_known_witnesses(self, inst, text):
        assert repr(scan_both_ways(oracle_for(inst))) == text


class TestSingleDeletionScan:
    """The scan that mask-scans only the first prefix with a violating
    single deletion gives the exhaustive scan's witness and ledger."""

    def check(self, oracle):
        reference = oracle.fresh()
        got = core.find_monotonicity_violation(oracle)
        want = monotonicity_violation_by_fractions(reference)
        assert got == want
        assert repr(got) == repr(want)
        assert oracle.ledger.total_calls == reference.ledger.total_calls
        assert oracle.ledger.distinct_calls == reference.ledger.distinct_calls
        return got

    def test_every_kind_up_to_five_agents(self):
        witnesses = set()
        for kind in ALL_KINDS:
            for n in range(1, 6):
                for seed in range(2 if n == 5 else 4):
                    wd = (1, 3, 100)[seed % 3]
                    if self.check(oracle_for(make_instance(kind, n, 60 * n + seed, wd))):
                        witnesses.add(kind)
        assert witnesses == {"oss", "paths"}

    def test_violating_random_paths_at_four_agents(self):
        found = [seed for seed in range(12) if self.check(
            oracle_for(auxstructs.random_paths_instance(4, seed)))]
        assert 1 in found  # acceptance criterion 4's witness

    @pytest.mark.parametrize("inst, values", [
        (oss.nonmonotone_sat_instance(), (1, 2)),
        (auxstructs.nonmonotone_paths_instance(), (0, 1)),
    ], ids=["sat", "paths-n4"])
    def test_named_witnesses(self, inst, values):
        assert self.check(oracle_for(inst)) == (2, (1,), (0, 1), *values)

    def test_constant_and_opaque_oracles(self):
        for n in range(1, 6):
            assert self.check(ValuationOracle(n, lambda agent, seq: Fraction(2, 3))) is None
        opaque = fraction_copy(oracle_for(auxstructs.nonmonotone_paths_instance()))
        assert self.check(opaque) == (2, (1,), (0, 1), 0, 1)


# --- preferences on integers ---------------------------------------------------------


def prefs_by_fractions(rows):
    """Each row's non-None indices sorted on (-weight, index) as Fractions:
    the order the instances derived before they sorted integers."""
    return tuple(tuple(sorted((j for j, w in enumerate(row) if w is not None),
                              key=lambda j: (-row[j], j))) for row in rows)


class TestPrefsOnIntegers:
    @drawn
    @given(st.data())
    def test_from_weights_matches_the_fraction_sort(self, data):
        n = data.draw(st.integers(1, 6), label="n")
        wd = data.draw(st.sampled_from((1, 2, 3, 100)), label="wd")
        weights = [[Fraction(data.draw(st.integers(0, wd)), wd) for _ in range(n)]
                   for _ in range(n)]
        matching = osm.MatchingInstance.from_weights(weights)
        assert matching.prefs == prefs_by_fractions(matching.weights)
        arborescence = osa.ArborescenceInstance.from_weights(weights)
        assert arborescence.prefs == prefs_by_fractions(arborescence.weights)
        paths = auxstructs.PathsInstance.from_weights(weights)
        assert core.heaviest_first(paths.scaled[1]) == prefs_by_fractions(paths.weights)

    def test_mixed_denominators_and_input_types(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 5)
            weights = [[rng.choice(MIXED_POOL + (0, 1, 2, "1/2", "2/3")) for _ in range(n)]
                       for _ in range(n)]
            for make in (osm.MatchingInstance.from_weights,
                         osa.ArborescenceInstance.from_weights):
                inst = make(weights)
                assert inst.prefs == prefs_by_fractions(inst.weights)

    def test_fractions_are_kept_not_copied(self):
        w = [[Fraction(1, 3), Fraction(1, 2)], [Fraction(2, 5), Fraction(0)]]
        assert osm.MatchingInstance.from_weights(w).weights[0][1] is w[0][1]
        assert osa.ArborescenceInstance.from_weights(w).weights[1][0] is w[1][0]
        assert auxstructs.PathsInstance.from_weights(w).weights[0][1] is w[0][1]


F = Fraction
RATIONALS = "weights must be non-negative rationals"
INCONSISTENT = "prefs inconsistent with weights"


@pytest.mark.parametrize("make, message", [
    # a non-Fraction weight in a later row, before the integers are worked out
    (lambda: osm.MatchingInstance(2, ((F(1), F(0)), (0.5, F(1))), ((0, 1), (1, 0))),
     RATIONALS),
    (lambda: osm.MatchingInstance(2, ((F(1), F(0)), ("1", F(1))), ((0, 1), (1, 0))),
     RATIONALS),
    (lambda: osa.ArborescenceInstance(3, ((None, F(1), F(0)), (F(1), None, F(0)),
                                          (0.5, F(1), None)), ((1, 2), (0, 2), (1, 0))),
     RATIONALS),
    # a negative weight
    (lambda: osm.MatchingInstance(2, ((F(1), F(0)), (F(-1), F(1))), ((0, 1), (1, 0))),
     RATIONALS),
    (lambda: osa.ArborescenceInstance(2, ((None, F(1)), (F(-1), None)), ((1,), (0,))),
     RATIONALS),
    # prefs that disagree with the weights
    (lambda: osm.MatchingInstance(2, ((F(1), F(2)), (F(1), F(1))), ((0, 1), (0, 1))),
     INCONSISTENT),
    (lambda: osm.MatchingInstance(2, ((F(1, 3), F(2, 7)), (F(0), F(1, 100))),
                                  ((0, 1), (0, 1))),
     INCONSISTENT),
    (lambda: osa.ArborescenceInstance(3, ((None, F(1), F(2)), (F(1), None, F(0)),
                                          (F(0), F(1), None)), ((1, 2), (0, 2), (1, 0))),
     INCONSISTENT),
    # a row of the wrong length
    (lambda: osm.MatchingInstance(2, ((F(1), F(0)), (F(1),)), ((0, 1), (1, 0))),
     RATIONALS),
    (lambda: osa.ArborescenceInstance(2, ((None, F(1)), (F(1), None, F(0))), ((1,), (0,))),
     "diagonal must be None (no self-edges)"),
])
def test_direct_constructor_messages(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message

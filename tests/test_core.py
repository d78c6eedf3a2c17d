import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from seqdict import auxstructs, osa, osm, oss, seqopt
from seqdict.core import (
    CapExceededError,
    Caps,
    INFINITE_POSD,
    ValuationOracle,
    actions,
    brute_force_optimal_sequence,
    check_monotone_exhaustive,
    decode_rational,
    encode_rational,
    find_monotonicity_violation,
    is_subsequence,
    oracle_for,
    ordered_subsequences,
    prefix_of,
    price_of_serial_dictatorship,
    social_welfare,
    underlying_optimum,
    welfare_ratio,
)
from seqdict.feasibility import producing_sequence

EPS = Fraction(1, 10)


def constant_oracle(n, value=Fraction(1)):
    return ValuationOracle(n, lambda i, s: value, monotone_claimed=True)


class TestRationals:
    @given(st.fractions())
    def test_signed_round_trip(self, q):
        assert decode_rational(encode_rational(q)) == q

    @pytest.mark.parametrize("text, message", [
        ("1/0", "zero denominator in rational '1/0'"),
        ("+1/2", "rationals must be 'p/q' strings, got '+1/2'"),
        ("1.5", "rationals must be 'p/q' strings, got '1.5'"),
        (" 1/2", "rationals must be 'p/q' strings, got ' 1/2'"),
        ("1/-2", "rationals must be 'p/q' strings, got '1/-2'"),
        ("", "rationals must be 'p/q' strings, got ''"),
        ("\u0663/4", "rationals must be 'p/q' strings, got '\u0663/4'"),
        (1.5, "rationals must be 'p/q' strings, got 1.5"),
    ])
    def test_refusals(self, text, message):
        """Only ASCII digits, an optional leading minus and an optional
        positive-width denominator are read; a zero denominator has its own
        message."""
        with pytest.raises(ValueError) as refused:
            decode_rational(text)
        assert str(refused.value) == message


class TestPrefixOf:
    def test_middle(self):
        assert prefix_of((2, 0, 1), 0) == (2,)

    def test_first_agent_empty(self):
        assert prefix_of((0, 1, 2), 0) == ()

    def test_two_before(self):
        assert prefix_of((2, 0, 1), 1) == (2, 0)

    def test_absent_agent(self):
        with pytest.raises(ValueError, match="agent not in sequence"):
            prefix_of((0, 1), 2)


class TestIsSubsequence:
    def test_in_order(self):
        assert is_subsequence((0, 2), (0, 1, 2))

    def test_order_violated(self):
        assert not is_subsequence((2, 0), (0, 1, 2))

    def test_empty(self):
        assert is_subsequence((), (0, 1))

    @given(st.permutations(list(range(6))), st.data())
    def test_sampled_subsequence_accepted(self, seq, data):
        mask = data.draw(st.integers(0, 2 ** len(seq) - 1))
        sub = tuple(x for k, x in enumerate(seq) if mask >> k & 1)
        assert is_subsequence(sub, tuple(seq))

    @given(st.permutations(list(range(5))))
    def test_reversal_only_for_short(self, seq):
        seq = tuple(seq)
        assert is_subsequence(tuple(reversed(seq)), seq) == (len(seq) <= 1)


class TestOracleAndLedger:
    def test_rejects_self_query(self):
        with pytest.raises(ValueError, match="queried agent"):
            constant_oracle(3).value(1, (1, 2))

    def test_counts_every_call_and_distinct(self):
        o = constant_oracle(3)
        o.value(0, (1,))
        o.value(0, (1,))
        o.value(0, (2,))
        assert o.ledger.total_calls == 3
        assert o.ledger.distinct_calls == 2

    def test_fresh_resets_ledger(self):
        o = constant_oracle(3)
        o.value(0)
        assert o.fresh().ledger.total_calls == 0


class TestSocialWelfare:
    def test_single_agent(self):
        o = constant_oracle(1, Fraction(7, 3))
        assert social_welfare(o, (0,)) == Fraction(7, 3)

    def test_nonmonotone_sat_instance(self):
        # hand simulation: values 6, 3 and 2 along (0, 1, 2)
        o = oss.oss_oracle(oss.nonmonotone_sat_instance())
        assert social_welfare(o, (0, 1, 2)) == 11

    def test_sat_posd_instance(self):
        o = oss.oss_oracle(oss.posd_sat_instance(EPS))
        assert social_welfare(o, (0, 1, 2)) == Fraction(39, 10)

    def test_exactly_n_queries(self):
        o = constant_oracle(5)
        social_welfare(o, (3, 1, 4, 0, 2))
        assert o.ledger.total_calls == 5

    def test_rejects_partial_sequence(self):
        with pytest.raises(ValueError):
            social_welfare(constant_oracle(3), (0, 1))


class TestBruteForce:
    def test_single_agent(self):
        o = constant_oracle(1, Fraction(4))
        assert brute_force_optimal_sequence(o) == ((0,), Fraction(4))

    def test_sat_posd_value(self):
        o = oss.oss_oracle(oss.posd_sat_instance(EPS))
        _, best = brute_force_optimal_sequence(o)
        assert best == Fraction(39, 10)

    def test_dominates_random_sequences(self):
        import random

        inst = osm.random_matching_instance(5, seed=2)
        oracle = osm.osm_oracle(inst)
        _, best = brute_force_optimal_sequence(oracle)
        rng = random.Random(0)
        for _ in range(50):
            s = tuple(rng.sample(range(5), 5))
            assert best >= social_welfare(oracle.fresh(), s)

    def test_ties_break_lexicographically(self):
        seq, _ = brute_force_optimal_sequence(constant_oracle(3))
        assert seq == (0, 1, 2)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            brute_force_optimal_sequence(constant_oracle(5), Caps(factorial=4))


class TestCaps:
    def test_env_parsing(self, monkeypatch):
        monkeypatch.setenv("SEQDICT_CAPS", "factorial=8,subset=16")
        assert Caps.from_env() == Caps(8, 16)

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("SEQDICT_CAPS", raising=False)
        assert Caps.from_env() == Caps()

    def test_env_garbage(self, monkeypatch):
        monkeypatch.setenv("SEQDICT_CAPS", "factorial=big")
        with pytest.raises(ValueError):
            Caps.from_env()

    @pytest.mark.parametrize("raw", ["factorial=\u00b2", "subset=\u0663",
                                     "factorial=8,factorial=9", "subset=4,factorial=8,subset=4"])
    def test_env_non_ascii_digits_and_repeated_keys(self, monkeypatch, raw):
        monkeypatch.setenv("SEQDICT_CAPS", raw)
        with pytest.raises(ValueError) as exc:
            Caps.from_env()
        assert str(exc.value) == f"cannot parse SEQDICT_CAPS={raw!r}"


SMALL_CAPS = Caps(factorial=3, subset=3)
SUBSET_MSG = "n=4 exceeds subset cap 3"

# (entry point, instance, oracle the entry point reads or None, exact message)
CAPPED_ENTRY_POINTS = {
    "osm-optimum": (lambda inst, _: underlying_optimum(inst, SMALL_CAPS),
                    osm.random_matching_instance(4, 0), None, SUBSET_MSG),
    "osa-optimum": (lambda inst, _: underlying_optimum(inst, SMALL_CAPS),
                    osa.random_digraph_instance(4, 0), None, SUBSET_MSG),
    "sat-optimum": (lambda inst, _: underlying_optimum(inst, SMALL_CAPS),
                    oss.random_sat_instance(4, 8, 3, 0), None, SUBSET_MSG),
    "osi-optimum": (lambda inst, _: underlying_optimum(inst, SMALL_CAPS),
                    auxstructs.random_osi_instance(4, 0), None, SUBSET_MSG),
    "paths-optimum": (lambda inst, _: underlying_optimum(inst, SMALL_CAPS),
                      auxstructs.random_paths_instance(4, 0), None, SUBSET_MSG),
    "sat-as-decide": (lambda inst, _: oss.sat_as_decide(inst, (True,) * 4, SMALL_CAPS),
                      oss.random_sat_instance(4, 8, 3, 0), None, SUBSET_MSG),
    "max-independent-set": (lambda inst, _: auxstructs.max_independent_set(inst, SMALL_CAPS),
                            auxstructs.random_osi_instance(4, 0), None, SUBSET_MSG),
    "osi-learn-and-solve": (lambda _, oracle: auxstructs.osi_learn_and_solve(oracle, SMALL_CAPS),
                            auxstructs.random_osi_instance(4, 0), auxstructs.osi_oracle,
                            SUBSET_MSG),
    "max-disjoint-paths": (lambda inst, _: auxstructs.max_disjoint_paths_weight(inst, SMALL_CAPS),
                           auxstructs.random_paths_instance(4, 0), None, SUBSET_MSG),
    "osm-pareto": (lambda inst, _: osm.is_pareto_optimal_matching(inst, (0, 1, 2, 3),
                                                                  SMALL_CAPS),
                   osm.random_matching_instance(4, 0), None,
                   "enumeration cap exceeded: n=4 > factorial cap 3"),
    "osa-enumeration": (lambda _, __: list(osa.all_arborescences(4, SMALL_CAPS)),
                        None, None,
                        "enumeration cap exceeded: arborescence enumeration over budget"),
    "det": (lambda _, oracle: seqopt.det(oracle, 2, SMALL_CAPS),
            seqopt.random_lower_bound_instance(4, 2, 0), seqopt.make_lower_bound_oracle,
            "enumeration cap exceeded: 4!/2! prefixes over budget"),
    "rand": (lambda _, oracle: seqopt.rand(oracle, 4, 0, SMALL_CAPS),
             seqopt.random_lower_bound_instance(4, 2, 0), seqopt.make_lower_bound_oracle,
             "enumeration cap exceeded: 4! prefix orderings over budget"),
    "det-plus": (lambda _, oracle: seqopt.det_plus(oracle, 2, SMALL_CAPS),
                 seqopt.random_lower_bound_instance(4, 2, 0), seqopt.make_lower_bound_oracle,
                 "enumeration cap exceeded: 4!/2! candidates over budget"),
}


@pytest.mark.parametrize("name", sorted(CAPPED_ENTRY_POINTS))
def test_capped_entry_point_raises_before_any_work(name):
    call, inst, make_oracle, message = CAPPED_ENTRY_POINTS[name]
    oracle = make_oracle(inst) if make_oracle else None
    with pytest.raises(CapExceededError) as exc:
        call(inst, oracle)
    assert str(exc.value) == message
    if oracle is not None:
        assert oracle.ledger.total_calls == 0


def test_cached_arborescence_table_still_checks_the_cap():
    """Once the n=4 table is built, a capped call still raises when made."""
    assert len(list(osa.all_arborescences(4))) == 64
    inst = osa.random_digraph_instance(4, 0)
    parent = osa.arborescence_from_sequence(inst, (0, 1, 2, 3))
    assert osa.is_pareto_optimal_arborescence(inst, parent)
    message = "enumeration cap exceeded: arborescence enumeration over budget"
    with pytest.raises(CapExceededError, match=f"^{message}$"):
        osa.all_arborescences(4, SMALL_CAPS)  # raises before anything is iterated
    with pytest.raises(CapExceededError, match=f"^{message}$"):
        osa.is_pareto_optimal_arborescence(inst, parent, SMALL_CAPS)


def test_every_oracle_kind_has_a_sequence_structure():
    """`oracle_for` builds every kind's oracle from its `Structure`, so each
    of the six kinds needs a `structure` attribute."""
    kinds = {osm.MatchingInstance, osa.ArborescenceInstance, oss.SatInstance,
             auxstructs.OsiInstance, auxstructs.PathsInstance, seqopt.LowerBoundInstance}
    assert all(hasattr(kind, "structure") for kind in kinds)


STRUCTURED_KINDS = {
    "osm": lambda: osm.random_matching_instance(4, 0),
    "osa": lambda: osa.random_digraph_instance(4, 0),
    "oss": lambda: oss.random_sat_instance(4, 8, 3, 0),
    "osi": lambda: auxstructs.random_osi_instance(4, 0),
    "paths": lambda: auxstructs.random_paths_instance(4, 0),
    "lowerbound": lambda: seqopt.random_lower_bound_instance(4, 2, 0),
}


@pytest.mark.parametrize("kind", sorted(STRUCTURED_KINDS))
def test_instance_is_freed_without_the_cycle_collector(kind):
    """A `structure` captures fields, not the instance, so an instance whose
    structure and oracle live on dies as soon as its last reference goes."""
    inst = STRUCTURED_KINDS[kind]()
    structure = inst.structure
    oracle = oracle_for(inst)
    oracle.value(0, (1, 2))
    gc.disable()
    try:
        ref = weakref.ref(inst)
        del inst
        assert ref() is None
    finally:
        gc.enable()
    assert oracle.value(3, (1,)) == Fraction(structure.read(structure.step(structure.start, 1), 3),
                                             structure.scale)


@pytest.mark.parametrize("kind", sorted(STRUCTURED_KINDS))
def test_each_instance_builds_its_structure_once(kind):
    """The `Structure` is built on first use and then shared: every oracle
    reads through its one `read`, and `actions` and `producing_sequence`
    play the very Structure the instance holds."""
    inst = STRUCTURED_KINDS[kind]()
    structure = inst.structure
    assert inst.structure is structure
    assert oracle_for(inst)._fn is oracle_for(inst)._fn is structure.read
    acted = []

    def act(state, agent):
        acted.append(agent)
        return structure.act(state, agent)

    inst.__dict__["structure"] = structure._replace(act=act)  # the instance's cache
    seq = (2, 0, 3, 1)
    target = actions(inst, seq)
    assert acted == list(seq)
    acted.clear()
    producing_sequence(inst, target, commit_first=False)
    assert acted


class TestMonotonicity:
    def test_matching_oracles_monotone(self):
        for seed in range(3):
            inst = osm.random_matching_instance(5, seed)
            assert check_monotone_exhaustive(osm.osm_oracle(inst))

    def test_constant_zero_monotone(self):
        assert check_monotone_exhaustive(constant_oracle(4, Fraction(0)))

    def test_sat_lemma_witness(self):
        v = find_monotonicity_violation(oss.oss_oracle(oss.nonmonotone_sat_instance()))
        assert v is not None
        assert (v.agent, v.smaller, v.larger) == (2, (1,), (0, 1))
        assert (v.value_smaller, v.value_larger) == (1, 2)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            check_monotone_exhaustive(constant_oracle(7))


class TestOrderedSubsequences:
    def test_count_is_sum_of_k_permutations(self):
        # 1 + 3 + 6 + 6 = 16 ordered subsets of a 3-element pool
        assert len(list(ordered_subsequences((0, 1, 2)))) == 16


class TestUnderlyingOptimumAndPosd:
    def test_paths_posd_instance_optimum(self):
        assert underlying_optimum(auxstructs.posd_paths_instance(EPS)) == 3

    def test_sat_posd_instance_optimum(self):
        assert underlying_optimum(oss.posd_sat_instance(EPS)) == Fraction(57, 10)

    def test_all_zero_matching(self):
        inst = osm.MatchingInstance.from_weights([[0, 0], [0, 0]])
        assert underlying_optimum(inst) == 0

    @pytest.mark.parametrize("instance", [object(), seqopt.random_lower_bound_instance(4, 2, 0)],
                             ids=["object", "lowerbound"])
    def test_unregistered_type(self, instance):
        with pytest.raises(TypeError) as exc:
            underlying_optimum(instance)
        assert str(exc.value) == ("no underlying optimum registered for "
                                  f"{type(instance).__name__}")

    def test_matching_posd_is_one(self):
        for n in (2, 4, 6):
            inst = osm.random_matching_instance(n, seed=n)
            assert price_of_serial_dictatorship(inst) == 1

    def test_sat_posd_ratio(self):
        assert price_of_serial_dictatorship(oss.posd_sat_instance(EPS)) == Fraction(19, 13)

    def test_zero_over_zero_is_one(self):
        inst = osm.MatchingInstance.from_weights([[0, 0], [0, 0]])
        assert price_of_serial_dictatorship(inst) == 1

    @pytest.mark.parametrize("optimum, welfare, ratio", [
        (Fraction(0), Fraction(0), Fraction(1)),
        (Fraction(3, 2), Fraction(0), INFINITE_POSD),
        (Fraction(57, 10), Fraction(39, 10), Fraction(19, 13)),
    ])
    def test_welfare_ratio_rule(self, optimum, welfare, ratio):
        assert welfare_ratio(optimum, welfare) == ratio

    def test_posd_at_least_one_across_structures(self):
        instances = [
            osm.random_matching_instance(4, 11),
            osa.random_digraph_instance(4, 11),
            oss.random_sat_instance(4, 8, 3, 11),
            auxstructs.random_osi_instance(4, 11),
            auxstructs.random_paths_instance(4, 11),
        ]
        for inst in instances:
            ratio = price_of_serial_dictatorship(inst)
            assert ratio == INFINITE_POSD or ratio >= 1


class TestFromWeightsScalesOnce:
    @pytest.mark.parametrize("cls", [osm.MatchingInstance, osa.ArborescenceInstance])
    def test_one_scaled_rows_call(self, monkeypatch, cls):
        from seqdict import core
        real = core.scaled_rows
        calls = []

        def counting(rows):
            calls.append(rows)
            return real(rows)

        for module in (core, osm, osa):
            monkeypatch.setattr(module, "scaled_rows", counting, raising=False)
        inst = cls.from_weights([[Fraction(0), Fraction(3, 10), Fraction(1, 4)],
                                 [Fraction(1, 2), Fraction(0), Fraction(1, 2)],
                                 [Fraction(1, 6), Fraction(2), Fraction(0)]])
        assert inst.scaled == real(inst.weights)
        assert len(calls) == 1

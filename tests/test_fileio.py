import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from seqdict import auxstructs, osa, osm, oss, seqopt
from seqdict.fileio import (
    KINDS,
    decode_rational,
    encode_rational,
    instance_kind,
    load_instance_text,
    parse_instance,
    serialize_instance,
)

# kind -> draw(n, seed, weight denominator), as `seqdict gen` draws it
GENERATORS = {
    "osm": lambda n, s, wd=100: osm.random_matching_instance(n, s, wd),
    "osa": lambda n, s, wd=100: osa.random_digraph_instance(n, s, wd),
    "oss": lambda n, s, wd=100: oss.random_sat_instance(n, 2 * n, 3, s, wd),
    "osi": lambda n, s, wd=100: auxstructs.random_osi_instance(n, s),
    "paths": lambda n, s, wd=100: auxstructs.random_paths_instance(n, s, wd),
    "lowerbound": lambda n, s, wd=100: seqopt.random_lower_bound_instance(n, min(2, n), s),
}


class TestRationals:
    @given(st.integers(0, 10 ** 12), st.integers(1, 10 ** 9))
    def test_round_trip(self, p, q):
        v = Fraction(p, q)
        assert decode_rational(encode_rational(v)) == v

    def test_floats_rejected(self):
        for text in (0.5, "0.5", "1e-1", " 1/2"):
            with pytest.raises(ValueError, match="rationals must be 'p/q' strings"):
                decode_rational(text)


class TestRoundTrip:
    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_all_kinds(self, kind):
        for seed in range(25):
            inst = GENERATORS[kind](2 + seed % 4, seed)
            assert instance_kind(inst) == kind
            assert parse_instance(serialize_instance(inst)) == inst

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(GENERATORS)), st.integers(1, 8),
           st.integers(0, 10 ** 6), st.integers(1, 1000))
    def test_parse_inverts_serialize(self, kind, n, seed, wd):
        inst = GENERATORS[kind](n, seed, wd)
        assert parse_instance(serialize_instance(inst)) == inst

    def test_serialization_deterministic(self):
        inst = osm.random_matching_instance(4, seed=1)
        assert serialize_instance(inst) == serialize_instance(inst)

    def test_no_floats_in_files(self):
        inst = osm.random_matching_instance(4, seed=2)
        doc = json.loads(serialize_instance(inst))

        def walk(x):
            assert not isinstance(x, float)
            if isinstance(x, dict):
                for v in x.values():
                    walk(v)
            elif isinstance(x, list):
                for v in x:
                    walk(v)

        walk(doc)


class TestInstanceKind:
    def test_kinds_in_file_order(self):
        assert KINDS == ("osm", "osa", "oss", "osi", "paths", "lowerbound")

    def test_unknown_types_refused(self):
        class Subclass(osm.MatchingInstance):
            pass

        inst = osm.random_matching_instance(2, 0)
        for other, name in [(object(), "object"),
                            (Subclass(inst.n, inst.weights, inst.prefs), "Subclass")]:
            with pytest.raises(TypeError) as exc:
                instance_kind(other)
            assert str(exc.value) == f"unknown instance type {name}"


class TestParsing:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown instance kind"):
            parse_instance('{"schema_version": 1, "kind": "nope", "n": 1}')

    def test_wrong_schema_version_rejected(self):
        with pytest.raises(ValueError, match="schema_version"):
            parse_instance('{"schema_version": 2, "kind": "osi", "n": 1, "edges": []}')

    def test_wcnf_sniffing(self):
        inst = oss.posd_sat_instance(Fraction(1, 10))
        assert load_instance_text(oss.to_wcnf(inst)) == inst
        assert load_instance_text(serialize_instance(inst)) == inst

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            load_instance_text("<xml/>")


def _doc(kind, n, **fields):
    return json.dumps({"schema_version": 1, "kind": kind, "n": n, **fields})


OSS_CLAUSE = [{"literals": [1, -2], "weight": "1"}]
MISTYPED = {
    "float-literal": (_doc("oss", 2, clauses=[{"literals": [2.9], "weight": "1"}]),
                      "oss", "literals must be int, not float"),
    "string-literal": (_doc("oss", 2, clauses=[{"literals": ["-1"], "weight": "1"}]),
                       "oss", "literals must be int, not str"),
    "boolean-literal": (_doc("oss", 2, clauses=[{"literals": [True], "weight": "1"}]),
                        "oss", "literals must be int, not bool"),
    "string-tie-default": (_doc("oss", 3, clauses=OSS_CLAUSE, tie_default=[True, "no", False]),
                           "oss", "tie_default must be bool, not str"),
    "integer-tie-default": (_doc("oss", 2, clauses=OSS_CLAUSE, tie_default=[1, 0]),
                            "oss", "tie_default must be bool, not int"),
    "boolean-n": (_doc("osi", True, edges=[]), "osi", "n must be int, not bool"),
    "float-n": (_doc("osi", 2.0, edges=[]), "osi", "n must be int, not float"),
    "boolean-pref": (_doc("osm", 2, weights=[["1", "0"], ["1", "0"]], prefs=[[0, True], [0, 1]]),
                     "osm", "prefs must be int, not bool"),
    "float-edge": (_doc("osi", 2, edges=[[0, 1.0]]), "osi", "edges must be int, not float"),
    "string-c": (_doc("lowerbound", 2, c="1", hidden_pi=[0, 1]),
                 "lowerbound", "c must be int, not str"),
    "boolean-hidden-agent": (_doc("lowerbound", 2, c=1, hidden_pi=[False, True]),
                             "lowerbound", "hidden_pi must be int, not bool"),
}


class TestFieldTypes:
    """Integer and boolean fields must hold exactly those JSON types; nothing
    is coerced on the way in."""

    @pytest.mark.parametrize("case", sorted(MISTYPED))
    def test_mistyped_field_rejected(self, case):
        text, kind, reason = MISTYPED[case]
        with pytest.raises(ValueError) as exc:
            parse_instance(text)
        assert str(exc.value) == f"malformed {kind} instance: {reason}"

    @pytest.mark.parametrize("bits", ["1 x", "1 2", "true 0"])
    def test_wcnf_tie_defaults_are_bits(self, bits):
        with pytest.raises(ValueError, match="oss tie defaults must be 0 or 1"):
            load_instance_text(f"p wcnf 2 1\nt {bits}\n1 1 2 0\n")

    def test_library_constructor_still_coerces(self):
        inst = oss.sat_instance(2, [(["1", -2.0], "1/2")], [1, 0])
        assert inst == oss.SatInstance(2, ((frozenset({1, -2}), Fraction(1, 2)),),
                                       (True, False))

import json
import subprocess
import sys

import jsonschema
import pytest

from seqdict.cli import main
from seqdict.suites import SUITES

RATIONAL = {"type": "string", "pattern": r"^(-?\d+/\d+|inf)$"}

RUN_REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "kind", "n", "algorithm", "sequence",
                 "welfare", "welfare_decimal", "queries",
                 "optimal_sequence_welfare", "ratio", "caps"],
    "properties": {
        "schema_version": {"const": 1},
        "kind": {"enum": ["osm", "osa", "oss", "osi", "paths", "lowerbound"]},
        "n": {"type": "integer", "minimum": 1},
        "algorithm": {"type": "string"},
        "c": {"type": ["integer", "null"]},
        "seed": {"type": ["integer", "null"]},
        "sequence": {"type": "array", "items": {"type": "integer"}},
        "welfare": RATIONAL,
        "welfare_decimal": {"type": "number"},
        "queries": {"type": "integer", "minimum": 0},
        "optimal_sequence_welfare": {"anyOf": [RATIONAL, {"type": "null"}]},
        "ratio": {"anyOf": [RATIONAL, {"type": "null"}]},
        "caps": {"type": "object"},
    },
}

POSD_REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "kind", "n", "underlying_optimum",
                 "best_sequence_welfare", "best_sequence", "posd", "caps"],
    "properties": {
        "schema_version": {"const": 1},
        "underlying_optimum": RATIONAL,
        "best_sequence_welfare": RATIONAL,
        "posd": RATIONAL,
        "posd_decimal": {"type": ["number", "null"]},
        "best_sequence": {"type": "array", "items": {"type": "integer"}},
        "caps": {"type": "object"},
    },
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_deterministic_output(self, capsys):
        code1, out1, _ = run_cli(capsys, "gen", "osm", "--n", "4", "--seed", "1")
        code2, out2, _ = run_cli(capsys, "gen", "osm", "--n", "4", "--seed", "1")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_paper_instance_to_file(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        code, _, _ = run_cli(capsys, "gen", "--paper", "sat-posd",
                             "--eps", "1/10", "-o", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["kind"] == "oss" and doc["n"] == 3

    def test_missing_kind_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "gen")
        assert code == 2
        assert "kind" in err

    def test_wcnf_only_for_sat(self, capsys):
        code, _, err = run_cli(capsys, "gen", "osm", "--n", "3", "--wcnf")
        assert code == 2

    def test_bad_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2


class TestRun:
    def test_greedy_on_generated_matching(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        run_cli(capsys, "gen", "osm", "--n", "5", "--seed", "3", "-o", str(path))
        code, out, _ = run_cli(capsys, "run", str(path),
                               "--algorithm", "greedy-osm", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["queries"] == 15
        assert sorted(doc["sequence"]) == list(range(5))

    def test_det_needs_c(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        run_cli(capsys, "gen", "osm", "--n", "3", "-o", str(path))
        code, _, err = run_cli(capsys, "run", str(path), "--algorithm", "det")
        assert code == 2
        assert "--c" in err

    def test_kind_mismatch(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        run_cli(capsys, "gen", "osm", "--n", "3", "-o", str(path))
        code, _, err = run_cli(capsys, "run", str(path), "--algorithm", "greedy-osa")
        assert code == 2

    def test_rand_c_equals_n_hits_optimum(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        run_cli(capsys, "gen", "osa", "--n", "4", "--seed", "2", "-o", str(path))
        code, out, _ = run_cli(capsys, "run", str(path), "--algorithm", "rand",
                               "--c", "4", "--json")
        doc = json.loads(out)
        assert doc["welfare"] == doc["optimal_sequence_welfare"]
        assert doc["ratio"] == "1/1"

    def test_json_reports_match_documented_schema(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        run_cli(capsys, "gen", "osa", "--n", "4", "--seed", "5", "-o", str(path))
        _, out, _ = run_cli(capsys, "run", str(path), "--algorithm", "det",
                            "--c", "2", "--json")
        jsonschema.validate(json.loads(out), RUN_REPORT_SCHEMA)
        _, out, _ = run_cli(capsys, "posd", str(path), "--json")
        jsonschema.validate(json.loads(out), POSD_REPORT_SCHEMA)

    def test_run_accepts_wcnf_files(self, capsys, tmp_path):
        path = tmp_path / "inst.wcnf"
        run_cli(capsys, "gen", "--paper", "sat-posd", "--wcnf", "-o", str(path))
        code, out, _ = run_cli(capsys, "run", str(path), "--algorithm", "det",
                               "--c", "3", "--json")
        assert code == 0
        assert json.loads(out)["welfare"] == "39/10"

    def test_caps_env_degrades_gracefully(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "m.json"
        run_cli(capsys, "gen", "osm", "--n", "5", "--seed", "1", "-o", str(path))
        monkeypatch.setenv("SEQDICT_CAPS", "factorial=4,subset=20")
        code, out, _ = run_cli(capsys, "run", str(path),
                               "--algorithm", "greedy-osm", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["optimal_sequence_welfare"] is None
        assert doc["ratio"] is None

    @pytest.mark.parametrize("algorithm", ["det", "rand"])
    def test_caps_env_stops_prefix_search(self, capsys, tmp_path, monkeypatch, algorithm):
        path = tmp_path / "h.json"
        run_cli(capsys, "gen", "lowerbound", "--n", "6", "-o", str(path))
        monkeypatch.setenv("SEQDICT_CAPS", "factorial=4")
        code, out, err = run_cli(capsys, "run", str(path), "--algorithm", algorithm,
                                 "--c", "5", "--skip-optimum")
        assert code == 2
        assert out == ""
        assert "cap exceeded" in err


class TestPosd:
    def test_sat_posd_numbers(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        run_cli(capsys, "gen", "--paper", "sat-posd", "--eps", "1/10", "-o", str(path))
        code, out, _ = run_cli(capsys, "posd", str(path), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["underlying_optimum"] == "57/10"
        assert doc["best_sequence_welfare"] == "39/10"
        assert doc["posd"] == "19/13"

    def test_lowerbound_unsupported(self, capsys, tmp_path):
        path = tmp_path / "lb.json"
        run_cli(capsys, "gen", "lowerbound", "--n", "4", "--c", "2", "-o", str(path))
        code, _, err = run_cli(capsys, "posd", str(path))
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "posd", "/nonexistent/file.json")
        assert code == 2


class TestVerify:
    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_all_suites_exit_zero(self, capsys, suite):
        code, out, _ = run_cli(capsys, "verify", suite)
        assert code == 0
        assert "FAIL" not in out

    @pytest.mark.parametrize("seed", ["7000", "17100"])
    def test_monotonicity_at_formerly_failing_seeds(self, capsys, seed):
        # a random sample of 8 paths instances held no rerouting witness here
        code, out, _ = run_cli(capsys, "verify", "monotonicity", "--seed", seed)
        assert code == 0
        assert "FAIL" not in out

    def test_failing_suite_exits_one(self, capsys):
        SUITES["badsuite"] = lambda seed: [("always wrong", False, "rigged")]
        try:
            code, out, _ = run_cli(capsys, "verify", "badsuite")
            assert code == 1
            assert "FAIL" in out
        finally:
            del SUITES["badsuite"]

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "x3c", "--json")
        doc = json.loads(out)
        assert doc["ok"] is True
        assert all(c["ok"] for c in doc["checks"])


class TestBench:
    def test_header_only_when_no_trials(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--kind", "osm",
                               "--algorithm", "greedy-osm", "--n", "3",
                               "--trials", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("kind,algorithm,n,c,trials,seed")

    def test_greedy_matching_ratios_within_two(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--kind", "osm",
                               "--algorithm", "greedy-osm", "--n", "3..5",
                               "--trials", "5", "--seed", "1")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 3
        for row in rows:
            max_ratio = float(row.split(",")[7])
            assert max_ratio <= 2.0

    def test_deterministic_apart_from_timings(self, capsys):
        args = ("bench", "--kind", "general", "--algorithm", "rand",
                "--n", "4", "--c", "1..2", "--trials", "4", "--seed", "9")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        strip = lambda out: [line.rsplit(",", 1)[0] for line in out.splitlines()]
        assert strip(out1) == strip(out2)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "seqdict", "gen", "--paper", "paths-posd"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["kind"] == "paths"

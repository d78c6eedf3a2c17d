import hashlib
import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from seqdict import cli
from seqdict.cli import main
from seqdict.fileio import KINDS
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

    @pytest.mark.parametrize("doc", [
        {"schema_version": 1, "kind": "osm", "n": 2, "prefs": [[0, 1], [0, 1]]},
        {"schema_version": 1, "kind": "osi", "n": "2", "edges": []},
        {"schema_version": 1, "kind": "oss", "n": 1,
         "clauses": [{"literals": [1.9], "weight": "1"}]},
    ], ids=["osm-without-weights", "osi-with-string-n", "oss-with-float-literal"])
    def test_malformed_file_is_input_error(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "posd", str(path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert doc["kind"] in err
        assert "Traceback" not in err


ZERO_DENOMINATOR_FILES = {
    "m.json": json.dumps({"schema_version": 1, "kind": "osm", "n": 2,
                          "weights": [["1/0", "1/2"], ["1/2", "1/2"]],
                          "prefs": [[0, 1], [0, 1]]}),
    "z.wcnf": "p wcnf 2 2\n1/0 1 2 0\n1 -1 0\n",
}


NON_RATIONAL_FILES = {
    "m.json": (json.dumps({"schema_version": 1, "kind": "osm", "n": 2,
                           "weights": [["1e-1", "1/2"], ["1/2", "1/2"]],
                           "prefs": [[0, 1], [0, 1]]}), "1e-1"),
    "s.wcnf": ("p wcnf 2 2\n0.5 1 2 0\n1 -1 0\n", "0.5"),
}


class TestNonRationalWeight:
    @pytest.mark.parametrize("name", sorted(NON_RATIONAL_FILES))
    def test_is_input_error(self, capsys, tmp_path, name):
        text, weight = NON_RATIONAL_FILES[name]
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "posd", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: rationals must be 'p/q' strings, got {weight!r}\n"


class TestDeeplyNestedFile:
    @pytest.mark.parametrize("command", [("posd",), ("run", "--algorithm", "det", "--c", "1")],
                             ids=["posd", "run"])
    def test_is_input_error(self, capsys, tmp_path, command):
        depth = 100_000
        path = tmp_path / "deep.json"
        path.write_text('{"a": ' + "[" * depth + "]" * depth + "}", encoding="utf-8")
        code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
        assert (code, out) == (2, "")
        assert err == "error: instance JSON is nested too deeply\n"


class TestZeroDenominator:
    @pytest.mark.parametrize("command", [("posd",), ("run", "--algorithm", "det", "--c", "1")],
                             ids=["posd", "run"])
    @pytest.mark.parametrize("name", sorted(ZERO_DENOMINATOR_FILES))
    def test_is_input_error(self, capsys, tmp_path, name, command):
        path = tmp_path / name
        path.write_text(ZERO_DENOMINATOR_FILES[name], encoding="utf-8")
        code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
        assert code == 2
        assert out == ""
        assert err == "error: zero denominator in rational '1/0'\n"


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

    def test_lowerbound_with_c_matches_general(self, capsys):
        cell = ("--algorithm", "det", "--n", "4", "--c", "2", "--trials", "2")
        code, out, err = run_cli(capsys, "bench", "--kind", "lowerbound", *cell)
        assert code == 0, err
        _, general, _ = run_cli(capsys, "bench", "--kind", "general", *cell)
        ratios = lambda text: [line.split(",")[6:8] for line in text.splitlines()[1:]]
        assert ratios(out) == ratios(general)
        assert len(ratios(out)) == 1

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


# sha256 of stdout for `gen --paper NAME`, then `posd --json` and
# `run --json --algorithm det --c 2` on that file, with default caps.
# x3c is the yes-variant; the no-variant's posd search takes seconds.
GOLDEN_DIGESTS = {
    "sat-posd": (
        "ec5518d61a16eb6bb0b681f383bef73eceee51ff32da780aa368d6645ae1cc86",
        "3794d7ea464581115d0fe7c41338dddbf3becaf4f705d94ec97b620937c4b83d",
        "978011ed5684a7eb8c98816543e2f57b76d82fdf7312a5b4ac51baa9eacd213b",
    ),
    "paths-posd": (
        "057f82fa808d62aeece0ca55b9b82159e80d5b6cc043d1807740c54200d07200",
        "92341512a6187e9b511db488ae87e5e853397ae8f827d31e7d108462a11c8165",
        "a826d8f864c25847c73aa324262e21b7b466a11a9d92a3e1b22206c60271da7f",
    ),
    "oss-nonmono": (
        "d23737d87e53206f5796b94f2b66158c87ad401131c711dc8673c14d632a2dc2",
        "9ab326e5bf2acdc64bfa267b8aa5439719e06f0e478ead1799fa1a74d37a3063",
        "9ac00ac8a531a6c17cb737db50fc50e9f5fffe1190b610c2308fd268fdf428a2",
    ),
    "osm-counterexample": (
        "a7ec6601b12fcdbdf0d8798ef9be0e6f19c38ba9a9303741cb0289793fb13d99",
        "fd6a2a28c21167190f0d6e4577a6c13dd4be61d5a947f3f19b37c17e693a8d78",
        "e89ed8a994968f37e927790365dd51cc2f092f78ad105ae178fcf14bf520e4e4",
    ),
    "osa-counterexample": (
        "b9353e9356e43262668aeefc972cbb610693d47500194b6a8e5bc8cdb7cbeed3",
        "05c60d8f9f26321a930d34df1fd59a5528b6fc201907da913c48f80d974f6e30",
        "61be5891d9cb3d43faf411014f9928ca4e10943d9faf3f496d85cd1a70fb0132",
    ),
    "x3c": (
        "937914878f4dbd8fde76702c3b0380a3193ae55f10f3c3e31b9d30b7c36334a9",
        "96a88a390afee8c24225fd81ca37bbdf7199d0f1aceaacea9a31f6000c8327a1",
        "c56004d0800870662cdd202708b0d8fc772c944d23df214e8f6c57130323fc51",
    ),
}


class TestGoldenOutput:
    @pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
    def test_stdout_bytes_pinned(self, capsys, tmp_path, monkeypatch, name):
        monkeypatch.delenv("SEQDICT_CAPS", raising=False)
        path = str(tmp_path / "inst.json")
        runs = [("gen", "--paper", name),
                ("posd", path, "--json"),
                ("run", path, "--json", "--algorithm", "det", "--c", "2")]
        digests = []
        for argv in runs:
            code, out, err = run_cli(capsys, *argv)
            assert code == 0, err
            digests.append(hashlib.sha256(out.encode()).hexdigest())
            if argv[0] == "gen":
                Path(path).write_text(out, encoding="utf-8")
        assert tuple(digests) == GOLDEN_DIGESTS[name]


# sha256 of `verify SUITE --seed S --json` stdout; every seed 0..5 prints the
# same report.
VERIFY_DIGESTS = {
    "pareto": "53bb533c2333f9f3410e07268e019ab0ca15972a3cd7cca37f9eb76e838861a3",
    "x3c": "6689977327af9b8542c2c0e7f753c4cdf445a5ce4899912e090978fb2e496796",
    "monotonicity": "b5947aaa22fd8e98704fa21b7e82009acbe7ff03898bb8369629930910cae865",
    "approx": "9889d34a026ffff50b184e11587caaaad7e51a2dda4f087bfecc166c5156c5dc",
    "truthful": "360c0be2eb0b43e9df89db7e1adf61187945b25395a1f1d8a00459b06086bd45",
    "lowerbound": "2c7e0413dfe19270193c565b7a3f680c7ac7c3f8971b038dde5024952cc11f89",
}


class TestVerifyGoldenOutput:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("suite", sorted(VERIFY_DIGESTS))
    def test_json_bytes_pinned(self, capsys, suite, seed):
        code, out, err = run_cli(capsys, "verify", suite, "--seed", str(seed), "--json")
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[suite]


# sha256 of `run --json` stdout for each algorithm on `gen KIND --n 5 --seed 1`,
# with default caps.  `bit` runs once on a fixed coin and once seeded (seed 3
# draws tails).
DISPATCH_DIGESTS = {
    ("det", "osm", ("--c", "2")):
        "fbe6fb5545d1270cf5554d50e9846d46de75469eeeb33521e6dbcf80f6ab53df",
    ("rand", "osa", ("--c", "2", "--seed", "4")):
        "0279648fb4eb5f136b435f50724b5fcf2507e86fce9b509bec26f1309cd9bc13",
    ("det-plus", "lowerbound", ("--c", "2")):
        "cecd74bfe78c37a2cd3630a210b745092bd61c9e714ade288234f1ffb7f31a89",
    ("greedy-osm", "osm", ()):
        "d0195d1bc7dbfba2c701f0b4c64e8f7b9ea238a9d31e2ab716165ea3b8f5a35b",
    ("greedy-osa", "osa", ()):
        "499492fbb7e7f77fe878e3e15695b3346c76a4755775cfebe17775bea1bfc8e6",
    ("bit", "osa", ("--coin", "heads")):
        "3f1d18adc144527eb819a9806688989c052330ad603b0c25d61a6059dbf4b1c6",
    ("bit", "osa", ("--seed", "3")):
        "2b25a84298ed6619499f1e8c0121144fce47414ace94f392d1ff7519b33a9d40",
    ("osi-learn", "osi", ()):
        "d17983b8b09cec7f925d0326bd6d5e8324ddbd5a34e0b0f9ea4e964a94ed8bf1",
}


class TestAlgorithmDispatch:
    @pytest.mark.parametrize("case", sorted(DISPATCH_DIGESTS),
                             ids=lambda case: "-".join(case[:2] + tuple(a.lstrip("-") for a in case[2])))
    def test_run_json_pinned(self, capsys, tmp_path, monkeypatch, case):
        monkeypatch.delenv("SEQDICT_CAPS", raising=False)
        algorithm, kind, extra = case
        path = str(tmp_path / "inst.json")
        run_cli(capsys, "gen", kind, "--n", "5", "--seed", "1", "-o", path)
        code, out, err = run_cli(capsys, "run", path, "--json",
                                 "--algorithm", algorithm, *extra)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == DISPATCH_DIGESTS[case]

    @pytest.mark.parametrize("algorithm,wanted,kind", [
        ("greedy-osm", "osm", "osa"),
        ("greedy-osa", "osa", "osm"),
        ("bit", "osa", "osi"),
        ("osi-learn", "osi", "paths"),
    ])
    def test_kind_mismatch_message(self, capsys, tmp_path, algorithm, wanted, kind):
        path = str(tmp_path / "inst.json")
        run_cli(capsys, "gen", kind, "--n", "3", "-o", path)
        code, out, err = run_cli(capsys, "run", path, "--algorithm", algorithm)
        assert (code, out) == (2, "")
        assert err == f"error: algorithm {algorithm} runs on {wanted} instances, not {kind}\n"

    @pytest.mark.parametrize("algorithm", ["det", "rand", "det-plus"])
    def test_missing_c_message(self, capsys, tmp_path, algorithm):
        path = str(tmp_path / "inst.json")
        run_cli(capsys, "gen", "osm", "--n", "3", "-o", path)
        code, out, err = run_cli(capsys, "run", path, "--algorithm", algorithm)
        assert (code, out) == (2, "")
        assert err == f"error: algorithm {algorithm} needs --c\n"


# One osm file and one oss file whose weights have denominators 2, 3 and 7,
# so every structured oracle reads over a common denominator of 42.
MIXED_FILES = {
    "osm.json": json.dumps({
        "schema_version": 1, "kind": "osm", "n": 6,
        "weights": [["1/1", "1/3", "6/7", "0/1", "0/1", "13/7"],
                    ["4/3", "1/7", "1/1", "4/3", "0/1", "2/1"],
                    ["3/7", "0/1", "0/1", "6/7", "3/2", "0/1"],
                    ["1/2", "0/1", "8/7", "3/2", "0/1", "13/7"],
                    ["4/3", "1/7", "1/2", "5/3", "10/7", "2/1"],
                    ["0/1", "2/1", "4/3", "6/7", "0/1", "1/3"]],
        "prefs": [[5, 0, 2, 1, 3, 4], [5, 0, 3, 2, 1, 4], [4, 3, 0, 1, 2, 5],
                  [5, 3, 2, 0, 1, 4], [5, 3, 4, 0, 2, 1], [1, 2, 3, 5, 0, 4]]}),
    "oss.wcnf": "p wcnf 6 12\nt 1 1 0 0 1 1\n1/1 5 0\n5/3 -2 4 0\n10/7 2 -5 0\n"
                "1/2 -1 2 3 0\n5/3 2 -4 -5 0\n3/7 -3 6 0\n3/2 -1 2 3 0\n"
                "2/3 -1 3 -4 0\n11/7 -2 -4 0\n3/2 5 0\n5/3 -3 6 0\n8/7 1 -6 0\n",
}

MIXED_RUNS = {
    "posd": ("posd", "--json"),
    "det-c3": ("run", "--json", "--algorithm", "det", "--c", "3"),
    "rand-c4": ("run", "--json", "--algorithm", "rand", "--c", "4", "--seed", "5"),
    "det-plus-c2": ("run", "--json", "--algorithm", "det-plus", "--c", "2"),
}

# sha256 of stdout for each of MIXED_RUNS on each of MIXED_FILES, with
# default caps.
MIXED_DIGESTS = {
    ("osm.json", "posd"):
        "d69b907140900b1a000735d05e78d508a745c8ccbf28d0c4d91efaf35da74060",
    ("osm.json", "det-c3"):
        "95fb54e67b68eedb21aa54102513ce68dc066116adfffa79cdf6b2c620356cf4",
    ("osm.json", "rand-c4"):
        "ddedbf8b503e477cffd845662df706e06d673680955a99acaa72d4ffa3fc5f82",
    ("osm.json", "det-plus-c2"):
        "67ed84c1bc4e8854b80444c43a4f4c006aa0c2c42c19e4ca5e0ab5a0112dd7de",
    ("oss.wcnf", "posd"):
        "7443b39c96f4ccf625ed176b6c227692ec39664a2d7231d5277097e1a43800c2",
    ("oss.wcnf", "det-c3"):
        "4fe5199d8613aabcaaf050bfc21c8884b07844eed488bac59544de851dd4f08a",
    ("oss.wcnf", "rand-c4"):
        "fa0da3e813fbe759140d2c435c4f40d7e1d15dc4eb5bec72ee6f8235799c3c21",
    ("oss.wcnf", "det-plus-c2"):
        "2e0430fca3e061dfae63e2518a0998ed0fd0bf9592899084c42192b5c9b34387",
}


class TestMixedDenominatorOutput:
    @pytest.mark.parametrize("case", sorted(MIXED_DIGESTS), ids="-".join)
    def test_stdout_bytes_pinned(self, capsys, tmp_path, monkeypatch, case):
        monkeypatch.delenv("SEQDICT_CAPS", raising=False)
        name, run = case
        path = tmp_path / name
        path.write_text(MIXED_FILES[name], encoding="utf-8")
        command, *flags = MIXED_RUNS[run]
        code, out, err = run_cli(capsys, command, str(path), *flags)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == MIXED_DIGESTS[case]


class TestWcnfIntegers:
    """Header counts and literals follow `-?[0-9]+`, not Python's `int()`."""

    @pytest.mark.parametrize("token", ["1_0", "+2", "x", "\u0663"],
                             ids=["underscore", "plus", "letter", "arabic-indic-digit"])
    @pytest.mark.parametrize("where,field,text", [
        ("header", "variable count", "p wcnf {} 1\n1 1 0\n"),
        ("literal", "literal", "p wcnf 2 1\n1 1 {} 0\n"),
    ], ids=["header", "literal"])
    def test_is_input_error(self, capsys, tmp_path, token, where, field, text):
        path = tmp_path / "bad.wcnf"
        path.write_text(text.format(token), encoding="utf-8")
        code, out, err = run_cli(capsys, "posd", str(path))
        assert (code, out) == (2, "")
        assert err == (f"error: malformed oss instance: {field} must be an integer, "
                       f"got {token!r}\n")


def instance_doc(kind: str, n: int, **fields) -> str:
    return json.dumps({"schema_version": 1, "kind": kind, "n": n, **fields})


# Instance files each kind's constructor refuses, with the line `posd` prints.
MALFORMED_FILES = {
    "oss-n-zero.json": (instance_doc("oss", 0, clauses=[]), "need at least one variable"),
    "oss-short-tie-default.json": (
        instance_doc("oss", 2, clauses=[{"literals": [1], "weight": "1"}], tie_default=[True]),
        "tie_default must cover every agent"),
    "oss-empty-clause.json": (instance_doc("oss", 2, clauses=[{"literals": [], "weight": "1"}]),
                              "empty clause"),
    "oss-literal-over-n.json": (
        instance_doc("oss", 2, clauses=[{"literals": [3], "weight": "1"}]),
        "literal 3 out of range"),
    "clause-before-header.wcnf": ("c x\n1 1 0\np wcnf 1 1\n", "clause before header"),
    "clause-without-zero.wcnf": ("p wcnf 2 1\n1 1 2\n", "clause line must end in 0: '1 1 2'"),
    "no-header.wcnf": ("c x\n", "missing wcnf header"),
    "osm-one-row.json": (instance_doc("osm", 2, weights=[["1", "0"]], prefs=[[0, 1]]),
                         "inconsistent instance dimensions"),
    "osm-repeated-pref.json": (
        instance_doc("osm", 2, weights=[["1", "0"], ["1", "0"]], prefs=[[0, 0], [0, 1]]),
        "prefs must be a permutation of the items"),
    "osa-repeated-target.json": (
        instance_doc("osa", 3, weights=[[None, "1", "0"], ["1", None, "0"], ["1", "0", None]],
                     prefs=[[1, 1], [0, 2], [0, 1]]),
        "prefs must order the n-1 possible targets"),
    "paths-two-rows.json": (instance_doc("paths", 3, weights=[[None, "1", "0"], ["1", None, "0"]]),
                            "bad weight matrix"),
    "osi-triple-edge.json": (instance_doc("osi", 3, edges=[[0, 1, 2]]), "bad edge (0, 1, 2)"),
    "osi-single-node-edge.json": (instance_doc("osi", 3, edges=[[0]]), "bad edge (0,)"),
}


class TestMalformedInstanceFiles:
    """Each refusal of an instance constructor reaches `posd` as exit 2 and
    one `error:` line, with nothing on stdout."""

    @pytest.mark.parametrize("name", sorted(MALFORMED_FILES))
    def test_is_input_error(self, capsys, tmp_path, name):
        text, message = MALFORMED_FILES[name]
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "posd", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestBadDrawingFlags:
    """A bad instance-drawing flag is refused with one line, before any draw."""

    @pytest.mark.parametrize("kind,flags,message", [
        ("osm", ("--weight-denominator", "0"), "--weight-denominator must be at least 1, got 0"),
        ("osa", ("--weight-denominator", "-3"), "--weight-denominator must be at least 1, got -3"),
        ("paths", ("--weight-denominator", "0"), "--weight-denominator must be at least 1, got 0"),
        ("oss", ("--weight-denominator", "-1"), "--weight-denominator must be at least 1, got -1"),
        ("oss", ("--m", "-2"), "--m must be at least 0, got -2"),
        ("oss", ("--max-clause-len", "0"), "--max-clause-len must be at least 1, got 0"),
    ], ids=["osm-wd-zero", "osa-wd-negative", "paths-wd-zero", "oss-wd-negative",
            "oss-m-negative", "oss-clause-len-zero"])
    @pytest.mark.parametrize("command", [
        ("gen", "{kind}", "--n", "3"),
        ("bench", "--kind", "{kind}", "--algorithm", "det", "--n", "3", "--c", "1",
         "--trials", "2"),
        ("bench", "--kind", "{kind}", "--algorithm", "det", "--n", "3", "--c", "1",
         "--trials", "0"),
    ], ids=["gen", "bench", "bench-no-trials"])
    def test_is_usage_error(self, capsys, command, kind, flags, message):
        argv = [arg.format(kind=kind) for arg in command] + list(flags)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("n", ["0", "-1"])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("command", [
        ("gen", "{kind}", "--n", "{n}"),
        ("bench", "--kind", "{kind}", "--algorithm", "det", "--n", "{n}", "--c", "1",
         "--trials", "2"),
    ], ids=["gen", "bench"])
    def test_n_below_one_is_usage_error(self, capsys, command, kind, n):
        code, out, err = run_cli(capsys, *[arg.format(kind=kind, n=n) for arg in command])
        assert (code, out) == (2, "")
        assert err == f"error: --n must be at least 1, got {n}\n"

    def test_bench_range_from_zero_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--kind", "osm", "--algorithm", "det",
                                 "--n", "0..2", "--c", "1", "--trials", "2")
        assert (code, out) == (2, "")
        assert err == "error: --n must be at least 1, got 0\n"

    @pytest.mark.parametrize("kind", ["osi", "lowerbound"])
    def test_unweighted_kinds_ignore_the_denominator(self, capsys, kind):
        code, out, _ = run_cli(capsys, "gen", kind, "--n", "3", "--weight-denominator", "0")
        assert (code, out) == (0, run_cli(capsys, "gen", kind, "--n", "3")[1])

    def test_zero_clauses_still_drawn(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "oss", "--n", "3", "--m", "0")
        assert code == 0
        assert json.loads(out)["clauses"] == []


class TestBadRangesAndCounts:
    """A `bench` range that is empty or not integers, a --c out of range and a
    negative --trials are refused with one line naming the flag, before any
    draw; an algorithm on a kind it does not run on, or without the --c it
    needs, is refused before any draw (`bench`) or oracle (`run`)."""

    @pytest.mark.parametrize("flags,message", [
        (("--n", "x", "--c", "1"), "--n must be an integer or a range like 1..3, got 'x'"),
        (("--n", "3..", "--c", "1"), "--n must be an integer or a range like 1..3, got '3..'"),
        (("--n", "3", "--c", "1..x"), "--c must be an integer or a range like 1..3, got '1..x'"),
    ], ids=["n-x", "n-open", "c-x"])
    def test_range_not_integers(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "bench", "--kind", "osm", "--algorithm", "det",
                                 *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("flags,message", [
        (("--n", "4..2", "--c", "1"), "--n must be a non-empty range, got '4..2'"),
        (("--n", "3", "--c", "2..1"), "--c must be a non-empty range, got '2..1'"),
    ], ids=["n", "c"])
    def test_empty_range_names_its_flag(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "bench", "--kind", "osm", "--algorithm", "det",
                                 *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv,message", [
        (("gen", "lowerbound", "--n", "3", "--c", "0"), "--c must be at least 1, got 0"),
        (("gen", "lowerbound", "--n", "3", "--c", "5"), "--c must be at most --n, got 5 > 3"),
        (("bench", "--kind", "osm", "--algorithm", "det", "--n", "3", "--c", "5",
          "--trials", "1"), "--c must be at most --n, got 5 > 3"),
        (("bench", "--kind", "osm", "--algorithm", "det", "--n", "3", "--c", "0"),
         "--c must be at least 1, got 0"),
        (("bench", "--kind", "general", "--algorithm", "rand", "--n", "3..5", "--c", "1..4"),
         "--c must be at most --n, got 4 > 3"),
        (("bench", "--kind", "osa", "--algorithm", "det-plus", "--n", "3", "--c", "-1"),
         "--c must be at least 0, got -1"),
        (("bench", "--kind", "osm", "--algorithm", "det-plus", "--n", "2..4", "--c", "0..3",
          "--trials", "0"), "--c must be at most --n, got 3 > 2"),
        (("bench", "--kind", "osm", "--algorithm", "det", "--n", "3", "--c", "1",
          "--trials", "-2"), "--trials must be at least 0, got -2"),
    ], ids=["gen-c-zero", "gen-c-over-n", "bench-c-over-n", "bench-c-zero",
            "bench-rand-range", "bench-det-plus-negative", "bench-det-plus-no-trials",
            "bench-trials-negative"])
    def test_refused_before_any_draw(self, capsys, monkeypatch, argv, message):
        def never(*args):
            raise AssertionError("an instance was drawn")

        monkeypatch.setattr(cli, "_random_instance", never)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("trials", ["2", "0"])
    @pytest.mark.parametrize("argv,message", [
        (("--kind", "osa", "--algorithm", "greedy-osm", "--n", "3"),
         "algorithm greedy-osm runs on osm instances, not osa"),
        (("--kind", "osa", "--algorithm", "det", "--n", "3"), "algorithm det needs --c"),
        (("--kind", "general", "--algorithm", "bit", "--n", "3", "--c", "5"),
         "algorithm bit runs on osa instances, not lowerbound"),
    ], ids=["kind-mismatch", "missing-c", "kind-mismatch-before-c"])
    def test_bench_algorithm_refused_before_any_draw(self, capsys, monkeypatch, argv,
                                                     message, trials):
        def never(*args):
            raise AssertionError("an instance was drawn")

        monkeypatch.setattr(cli, "_random_instance", never)
        code, out, err = run_cli(capsys, "bench", *argv, "--trials", trials)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv,message", [
        (("--algorithm", "greedy-osa"), "algorithm greedy-osa runs on osa instances, not osm"),
        (("--algorithm", "rand"), "algorithm rand needs --c"),
    ], ids=["kind-mismatch", "missing-c"])
    def test_run_algorithm_refused_before_the_oracle(self, capsys, tmp_path, monkeypatch,
                                                     argv, message):
        def never(*args):
            raise AssertionError("an oracle was built")

        path = str(tmp_path / "inst.json")
        run_cli(capsys, "gen", "osm", "--n", "3", "-o", path)
        monkeypatch.setattr(cli, "oracle_for", never)
        code, out, err = run_cli(capsys, "run", path, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ("gen", "lowerbound", "--n", "3", "--c", "1"),
        ("gen", "lowerbound", "--n", "3", "--c", "3"),
        ("gen", "osm", "--n", "3", "--c", "9"),
        ("bench", "--kind", "osm", "--algorithm", "det-plus", "--n", "3", "--c", "0..3",
         "--trials", "1"),
        ("bench", "--kind", "general", "--algorithm", "det", "--n", "3..4", "--c", "1..3",
         "--trials", "1"),
        ("bench", "--kind", "osm", "--algorithm", "greedy-osm", "--n", "3", "--c", "9",
         "--trials", "1"),
    ], ids=["gen-c-one", "gen-c-n", "gen-osm-ignores-c", "bench-det-plus-zero",
            "bench-det-every-cell", "bench-greedy-ignores-c"])
    def test_bounds_are_accepted(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out

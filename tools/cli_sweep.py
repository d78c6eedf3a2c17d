"""Byte sweep of the `seqdict` command line, for comparing two checkouts.

Runs `seqdict.cli.main` in process over a fixed set of commands and prints
one sha256 per command family over every command's argv, exit code, stdout
and stderr.  Two checkouts whose CLI behaves the same print the same lines.

    python3 tools/cli_sweep.py            # the checkout this file sits in

Families:
  gen    random instances of all six kinds at n = 1..8, weight denominators
         1, 2, 3 and 100, seeds 0 and 1 (the files the next two families read)
  posd   `posd` on each of those files, plain and with --json
  run    `run --json` of every algorithm on each file (c = 1..3 for the
         prefix searches; runs that the CLI refuses are recorded too)
  named  every named instance (`gen --paper`), and `posd` and
         `posd --json` on it
  verify every `verify` suite at seeds 0..3, plain and with --json
  bench  `bench` of every algorithm on every bench kind (the kinds it does
         not run on are refused, and the refusals are recorded), n = 2..4,
         c = 1..2 for the prefix searches, 2 trials, seeds 0 and 1; the
         mean_runtime_ms column is blanked before hashing
  refusals
         every usage-error path of `gen` and `bench`: a missing kind or
         --n, an unknown kind or --paper, a bad --eps, --wcnf off sat,
         values argparse rejects, each bad drawing flag (--n,
         --weight-denominator, --m, --max-clause-len) on every kind, ranges
         that are empty or not integers, --c out of range (gen lowerbound;
         bench det, rand and det-plus), a negative --trials, a missing --c,
         and every algorithm on each kind it does not run on; bench commands
         at --trials 2 and 0.  The values just inside each --c and --trials
         rule are run too, as accepted neighbours of the refusals
  wide-sat
         sat instances with 80 clauses (clause masks wider than a machine
         word) at n = 4..8, weight denominators 1 and 100, seeds 0 and 1,
         each written as JSON and as weighted-CNF text; then `posd`,
         `posd --json`, `run --algorithm det --c 2 --json` and
         `run --algorithm rand --c 3 --json` on each file
  wide-prefix
         the prefix searches at the sizes where they read most: lowerbound
         (instance c = 2 and 3), osm and osa files at n = 9 and 10, seeds 0
         and 1, then `run --json --skip-optimum` of `det` c=4 and
         `det-plus` c=3 at run seed 0 and `rand` c = 5..7 at run seeds 0
         and 1 on each file
  wide-osi
         the maximum independent set search at the sizes where its prune
         matters: osi files at n = 12, 16 and 20 for `run --algorithm
         osi-learn --json`, and at n = 9 and 10 for `posd --json`, seeds 0
         and 1
  wide-walk
         osa and paths files past 255 nodes (n = 260, seed 0), where a walk
         end no longer fits in a byte, then `run --algorithm det --c 1
         --skip-optimum --json` on each file
  malformed
         `posd` on instance files that a kind's constructor refuses: an oss
         file with n 0, a short tie_default, an empty clause or a literal
         past n; WCNF text with a clause before the header, a clause line
         not ending in 0, or no header; an osm file with one row at n 2 or
         a repeated item in prefs; an osa file whose prefs repeat a target;
         a paths file with two rows at n 3

Instance files go to a temporary directory, whose path is replaced by a fixed
token before hashing.  SEQDICT_CAPS is unset, so the default caps apply.
Standard library only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from seqdict.cli import _BENCH_KINDS, ALGORITHMS, NAMED_INSTANCES, main  # noqa: E402
from seqdict.fileio import KINDS  # noqa: E402
from seqdict.suites import SUITES  # noqa: E402

NS = range(1, 9)
DENOMINATORS = (1, 2, 3, 100)
SEEDS = (0, 1)
PREFIX_CS = (1, 2, 3)
VERIFY_SEEDS = range(4)
BENCH_NS = "2..4"
BENCH_CS = "1..2"
BENCH_TRIALS = "2"
WIDE_SAT_NS = range(4, 9)
WIDE_SAT_M = "80"
WIDE_SAT_DENOMINATORS = (1, 100)
WIDE_PREFIX_NS = (9, 10)
WIDE_PREFIX_FILES = (("lowerbound", "--c", "2"), ("lowerbound", "--c", "3"), ("osm",), ("osa",))
#: (algorithm, --c, the --seed values it runs at)
WIDE_PREFIX_RUNS = (("det", "4", (0,)), ("rand", "5", SEEDS), ("rand", "6", SEEDS),
                    ("rand", "7", SEEDS), ("det-plus", "3", (0,)))
#: (the osi file sizes, the command run on each file)
WIDE_OSI = (((12, 16, 20), ["run", "--algorithm", "osi-learn", "--json"]),
            ((9, 10), ["posd", "--json"]))
WIDE_WALK_KINDS = ("osa", "paths")
WIDE_WALK_N = "260"


def refusals() -> list:
    """The argv lists of the `refusals` family."""
    bad_flags = [["--n", "0"], ["--n", "-1"], ["--weight-denominator", "0"],
                 ["--weight-denominator", "-3"], ["--m", "-1"], ["--max-clause-len", "0"]]
    gen = [["gen"], ["gen", "osm"], ["gen", "nope", "--n", "3"], ["gen", "osm", "--n", "x"],
           ["gen", "lowerbound", "--n", "3", "--c", "y"], ["gen", "--paper", "nope"],
           ["gen", "--paper", "sat-posd", "--eps", "x"], ["gen", "osm", "--n", "3", "--wcnf"]]
    gen += [["gen", kind, "--n", "3", *flags] for kind in KINDS for flags in bad_flags]
    gen += [["gen", "lowerbound", "--n", "3", "--c", c] for c in ("-1", "0", "1", "3", "4")]
    # bench commands, each run at --trials 2 and at --trials 0
    cells = [["--n", "x", "--c", "1"], ["--n", "3..", "--c", "1"], ["--n", "4..2", "--c", "1"],
             ["--n", "0..2", "--c", "1"], ["--n", "3", "--c", "1..x"], ["--n", "3", "--c", "x"],
             ["--n", "3", "--c", "2..1"]]
    cells += [["--n", "3", "--c", "1", *flags] for flags in bad_flags]
    bench = [["bench", "--kind", kind, "--algorithm", "det", *cell]
             for kind in ("osm", "oss") for cell in cells]
    bench += [["bench", "--kind", "nope", "--algorithm", "det", "--n", "3", "--c", "1"],
              ["bench", "--kind", "osm", "--n", "3"]]
    for algorithm, (wanted, needs_c, _) in ALGORITHMS.items():
        if needs_c:  # --c out of range and just inside it; a missing --c
            low = 0 if algorithm == "det-plus" else 1
            bench += [["bench", "--kind", kind, "--algorithm", algorithm, "--n", n, "--c", c]
                      for kind in ("osm", "general") for n in ("3", "3..5")
                      for c in (str(low - 1), str(low), "3", "4", f"{low}..4")]
            bench += [["bench", "--kind", "osa", "--algorithm", algorithm, "--n", "3"]]
        else:
            bench += [["bench", "--kind", kind, "--algorithm", algorithm, "--n", "3"]
                      for kind in _BENCH_KINDS if kind != wanted]
    trials = [["bench", "--kind", "osm", "--algorithm", "det", "--n", "3", "--c", "1",
               "--trials", t] for t in ("x", "-2", "-1", "0", "1")]
    return gen + [argv + ["--trials", t] for argv in bench for t in ("2", "0")] + trials


def _doc(kind: str, n: int, **fields) -> str:
    return json.dumps({"schema_version": 1, "kind": kind, "n": n, **fields})


#: file name -> text of the `malformed` family
MALFORMED = {
    "oss-n-zero.json": _doc("oss", 0, clauses=[]),
    "oss-short-tie-default.json": _doc("oss", 2, clauses=[{"literals": [1], "weight": "1"}],
                                       tie_default=[True]),
    "oss-empty-clause.json": _doc("oss", 2, clauses=[{"literals": [], "weight": "1"}]),
    "oss-literal-over-n.json": _doc("oss", 2, clauses=[{"literals": [3], "weight": "1"}]),
    "clause-before-header.wcnf": "c x\n1 1 0\np wcnf 1 1\n",
    "clause-without-zero.wcnf": "p wcnf 2 1\n1 1 2\n",
    "no-header.wcnf": "c x\n",
    "osm-one-row.json": _doc("osm", 2, weights=[["1", "0"]], prefs=[[0, 1]]),
    "osm-repeated-pref.json": _doc("osm", 2, weights=[["1", "0"], ["1", "0"]],
                                   prefs=[[0, 0], [0, 1]]),
    "osa-repeated-target.json": _doc("osa", 3, weights=[[None, "1", "0"], ["1", None, "0"],
                                                        ["1", "0", None]],
                                     prefs=[[1, 1], [0, 2], [0, 1]]),
    "paths-two-rows.json": _doc("paths", 3, weights=[[None, "1", "0"], ["1", None, "0"]]),
}


def without_runtimes(csv_text: str) -> str:
    """Bench CSV with the last field, mean_runtime_ms, blanked on every data row."""
    head, sep, rows = csv_text.partition("\n")
    return head + sep + re.sub(r"[^,\r\n]*(?=\r?\n)", "", rows)


def call(argv: list, workdir: str) -> tuple:
    """One command's record (argv, exit code, stdout and stderr) and its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # a traceback is a finding too: record and report it
            code = f"raised {type(exc).__name__}: {exc}"
    if not isinstance(code, int):
        print(f"{' '.join(argv)}: {code}", file=sys.stderr)
    stdout = without_runtimes(out.getvalue()) if argv[0] == "bench" else out.getvalue()
    record = "\0".join([" ".join(argv), str(code), stdout, err.getvalue()])
    return record.replace(workdir, "<dir>").encode() + b"\1", out.getvalue()


def sweep(workdir: str) -> dict:
    families = {name: hashlib.sha256()
                for name in ("gen", "posd", "run", "named", "verify", "bench", "refusals",
                             "wide-sat", "wide-prefix", "wide-osi", "wide-walk", "malformed")}
    counts = dict.fromkeys(families, 0)

    def record(family: str, argv: list, path=None) -> None:
        """Run and hash one command; with `path`, also save its stdout there."""
        data, out = call(argv, workdir)
        families[family].update(data)
        counts[family] += 1
        if path is not None:
            Path(path).write_text(out, encoding="utf-8")

    files = []
    for kind in KINDS:
        for n in NS:
            for wd in DENOMINATORS:
                for seed in SEEDS:
                    path = os.path.join(workdir, f"{kind}-{n}-{wd}-{seed}.json")
                    record("gen", ["gen", kind, "--n", str(n), "--seed", str(seed),
                                   "--weight-denominator", str(wd)], path)
                    files.append((path, seed))
    for path, _ in files:
        record("posd", ["posd", path])
        record("posd", ["posd", path, "--json"])
    for path, seed in files:
        for algorithm, (_, needs_c, _) in ALGORITHMS.items():
            for c in PREFIX_CS if needs_c else (None,):
                argv = ["run", path, "--json", "--algorithm", algorithm, "--seed", str(seed)]
                record("run", argv + ([] if c is None else ["--c", str(c)]))
    for name in NAMED_INSTANCES:
        for variant in ("yes", "no") if name == "x3c" else ("yes",):
            path = os.path.join(workdir, f"{name}-{variant}.json")
            record("named", ["gen", "--paper", name, "--x3c-variant", variant], path)
            record("named", ["posd", path])
            record("named", ["posd", path, "--json"])
    for suite in SUITES:
        for seed in VERIFY_SEEDS:
            record("verify", ["verify", suite, "--seed", str(seed)])
            record("verify", ["verify", suite, "--seed", str(seed), "--json"])
    for algorithm, (_, needs_c, _) in ALGORITHMS.items():
        for kind in _BENCH_KINDS:
            for seed in SEEDS:
                argv = ["bench", "--kind", kind, "--algorithm", algorithm, "--n", BENCH_NS,
                        "--trials", BENCH_TRIALS, "--seed", str(seed)]
                record("bench", argv + (["--c", BENCH_CS] if needs_c else []))
    for argv in refusals():
        record("refusals", argv)
    wide = []
    for n in WIDE_SAT_NS:
        for wd in WIDE_SAT_DENOMINATORS:
            for seed in SEEDS:
                for suffix, flags in ((".json", []), (".wcnf", ["--wcnf"])):
                    path = os.path.join(workdir, f"wide-sat-{n}-{wd}-{seed}{suffix}")
                    record("wide-sat", ["gen", "oss", "--n", str(n), "--m", WIDE_SAT_M,
                                        "--seed", str(seed), "--weight-denominator", str(wd),
                                        *flags], path)
                    wide.append((path, seed))
    for path, seed in wide:
        record("wide-sat", ["posd", path])
        record("wide-sat", ["posd", path, "--json"])
        for algorithm, c in (("det", "2"), ("rand", "3")):
            record("wide-sat", ["run", path, "--json", "--algorithm", algorithm, "--c", c,
                                "--seed", str(seed)])
    for n in WIDE_PREFIX_NS:
        for gen_args in WIDE_PREFIX_FILES:
            for seed in SEEDS:
                path = os.path.join(workdir, f"wide-prefix-{'-'.join(gen_args)}-{n}-{seed}.json")
                record("wide-prefix", ["gen", *gen_args, "--n", str(n), "--seed", str(seed)], path)
                for algorithm, c, run_seeds in WIDE_PREFIX_RUNS:
                    for run_seed in run_seeds:
                        record("wide-prefix", ["run", path, "--json", "--skip-optimum",
                                               "--algorithm", algorithm, "--c", c,
                                               "--seed", str(run_seed)])
    for ns, (command, *flags) in WIDE_OSI:
        for n in ns:
            for seed in SEEDS:
                path = os.path.join(workdir, f"wide-osi-{n}-{seed}.json")
                record("wide-osi", ["gen", "osi", "--n", str(n), "--seed", str(seed)], path)
                record("wide-osi", [command, path, *flags])
    for kind in WIDE_WALK_KINDS:
        path = os.path.join(workdir, f"wide-walk-{kind}.json")
        record("wide-walk", ["gen", kind, "--n", WIDE_WALK_N, "--seed", "0"], path)
        record("wide-walk", ["run", path, "--algorithm", "det", "--c", "1", "--skip-optimum",
                             "--json"])
    for name, text in MALFORMED.items():
        path = os.path.join(workdir, name)
        Path(path).write_text(text, encoding="utf-8")
        record("malformed", ["posd", path])
    return {name: (counts[name], h.hexdigest()) for name, h in families.items()}


def main_sweep() -> int:
    os.environ.pop("SEQDICT_CAPS", None)
    with tempfile.TemporaryDirectory(prefix="cli-sweep-") as workdir:
        for name, (count, digest) in sweep(workdir).items():
            print(f"{name:<8} {count:>5} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main_sweep())

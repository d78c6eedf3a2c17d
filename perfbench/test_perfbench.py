"""Smoke tests for the benchmark itself: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import jobs
import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(jobs.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_toy_run_prints_the_declared_metrics(workload, trace):
    proc = _bench("--workload", workload, "--seed", "0", "--seconds", "0",
                  "--trace", str(trace), "--size", "toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({k: m["unit"] for k, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})


def test_inputs_digest_follows_the_seed():
    sys.path.insert(0, str(run.SRC))
    first = run.seed_inputs_digest("exact-optimum", 3, "toy")
    assert run.seed_inputs_digest("exact-optimum", 3, "toy") == first
    assert run.seed_inputs_digest("exact-optimum", 4, "toy") != first
    assert jobs.build("verify-sweep", 3).cycle != jobs.build("verify-sweep", 4).cycle


def test_fails_without_the_program():
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=run.ROOT) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("--workload", "prefix-search", "--seed", "0", "--seconds", "1",
                      "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout == ""

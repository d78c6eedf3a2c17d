"""Start-up: `import seqdict` registers every submodule but `core` and
`cli` lazily, so a command compiles and runs only the modules it touches.

Each test runs in a fresh interpreter, since this one has loaded everything.
A module that has not run yet is still a `LazyLoader` module in
`sys.modules`, whose type is not `types.ModuleType`."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seqdict

SRC = str(Path(seqdict.__file__).resolve().parents[1])

# Runs each argv of the JSON list in argv[1] through `cli.main` (their stdout
# dropped), then prints the seqdict modules that have run.
PROBE = """
import contextlib, io, json, sys, types
from seqdict.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        if main(argv) != 0:
            sys.exit(f"{argv} failed")
print(json.dumps(sorted(k for k, m in sys.modules.items()
                        if k.startswith("seqdict.") and type(m) is types.ModuleType)))
"""

HEAVY = {"seqdict.mechanisms", "seqdict.oss", "seqdict.auxstructs"}


def _python(*args, cwd=None) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc


def _modules_run(tmp_path, *argvs) -> set:
    return set(json.loads(_python("-c", PROBE, json.dumps(argvs), cwd=tmp_path).stdout))


def test_import_runs_only_core():
    proc = _python("-c", "import sys, types, seqdict; print(sorted("
                   "k for k, m in sys.modules.items() if k.startswith('seqdict.') "
                   "and type(m) is types.ModuleType))")
    assert proc.stdout.strip() == "['seqdict.core']"


@pytest.mark.parametrize("kind", ["lowerbound", "osm", "osa"])
def test_gen_and_run_skip_unused_modules(tmp_path, kind):
    ran = _modules_run(tmp_path, ["gen", kind, "--n", "5", "-o", "inst.json"],
                       ["run", "inst.json", "--algorithm", "det", "--c", "2", "--json"])
    assert "seqdict.seqopt" in ran
    assert not ran & HEAVY


def test_posd_skips_unused_modules(tmp_path):
    ran = _modules_run(tmp_path, ["gen", "osm", "--n", "5", "-o", "inst.json"],
                       ["posd", "inst.json", "--json"])
    assert "seqdict.osm" in ran
    assert not ran & (HEAVY | {"seqdict.seqopt"})


def test_lazy_modules_load_on_use():
    proc = _python("-c", "import seqdict; a = seqdict.mechanisms.vcg_rand\n"
                   "from seqdict.mechanisms import vcg_rand\n"
                   "assert a is vcg_rand and callable(a); print('ok')")
    assert proc.stdout == "ok\n"


def test_verify_truthful_loads_mechanisms():
    doc = json.loads(_python("-m", "seqdict", "verify", "truthful", "--json").stdout)
    assert doc["ok"] and doc["checks"]


def test_cli_runs_as_a_module_without_warnings():
    proc = _python("-m", "seqdict.cli", "verify", "x3c")
    assert proc.stdout.endswith("x3c: 3/3 checks passed\n")
    assert proc.stderr == ""

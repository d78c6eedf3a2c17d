"""Start-up CPU of small `seqdict` commands, for comparing two checkouts.

Each measurement is one fresh child process, and its CPU time is user + sys
from `getrusage(RUSAGE_CHILDREN)` around it, so the figure leaves out the
time the child waits for a CPU on a loaded host.  The two checkouts run in
alternating rounds (before first in even rounds, after first in odd rounds).
Children run with PYTHONDONTWRITEBYTECODE=1, so every seqdict module they
import is compiled from source, as in a checkout that has no bytecode cache.

    python3 tools/startup_cpu.py BEFORE AFTER > out.json

BEFORE and AFTER are checkout roots, each with a src/seqdict.  The commands:
  pass        python3 -c pass
  import-cli  python3 -c "import seqdict.cli"
  posd        seqdict posd --json on an osm file, n=6
  run-det     seqdict run --algorithm det --c 2 --json on a lowerbound file, n=6
  verify-x3c  seqdict verify x3c --json
The instance files are drawn once with BEFORE's `seqdict gen` (seed 0).  The
report has each command's per-round milliseconds, median and quartiles on
each side over ROUNDS rounds, the rounds in which AFTER used less CPU, and
whether both sides printed the same stdout.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROUNDS = 15
SEQDICT = ["-m", "seqdict"]
COMMANDS = {
    "pass": ["-c", "pass"],
    "import-cli": ["-c", "import seqdict.cli"],
    "posd": SEQDICT + ["posd", "{dir}/osm6.json", "--json"],
    "run-det": SEQDICT + ["run", "{dir}/lowerbound6.json", "--algorithm", "det",
                          "--c", "2", "--json"],
    "verify-x3c": SEQDICT + ["verify", "x3c", "--json"],
}
FILES = {
    "osm6.json": ["gen", "osm", "--n", "6", "--seed", "0"],
    "lowerbound6.json": ["gen", "lowerbound", "--n", "6", "--c", "2", "--seed", "0"],
}


def child_cpu(root: Path, args: list) -> tuple:
    """(CPU milliseconds, stdout) of one `python3 ARGS` child on `root`'s src."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: {' '.join(args)} exited {proc.returncode}: {proc.stderr}")
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return cpu * 1000, proc.stdout


def summary(ms: list) -> dict:
    q1, median, q3 = statistics.quantiles(ms, n=4)
    return {"median": round(median, 2), "q1": round(q1, 2), "q3": round(q3, 2),
            "runs_ms": [round(x, 2) for x in ms]}


def measure(before: Path, after: Path, workdir: str) -> dict:
    for name, argv in FILES.items():
        child_cpu(before, SEQDICT + argv + ["-o", f"{workdir}/{name}"])
    sides = {"before": before, "after": after}
    ms = {cmd: {side: [] for side in sides} for cmd in COMMANDS}
    stdout = {cmd: {} for cmd in COMMANDS}
    for r in range(ROUNDS):
        for side in (("before", "after") if r % 2 == 0 else ("after", "before")):
            for cmd, args in COMMANDS.items():
                cpu, out = child_cpu(sides[side], [a.format(dir=workdir) for a in args])
                ms[cmd][side].append(cpu)
                stdout[cmd].setdefault(side, out)
    return {cmd: {
        "before": summary(ms[cmd]["before"]),
        "after": summary(ms[cmd]["after"]),
        "after_lower_in": f"{sum(a < b for a, b in zip(ms[cmd]['after'], ms[cmd]['before']))}"
                          f" of {ROUNDS} rounds",
        "same_stdout": stdout[cmd]["before"] == stdout[cmd]["after"],
    } for cmd in COMMANDS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    for root in (args.before, args.after):
        if not (root / "src" / "seqdict").is_dir():
            parser.error(f"no src/seqdict under {root}")
    with tempfile.TemporaryDirectory() as workdir:
        results = measure(args.before, args.after, workdir)
    report = {
        "how": "child CPU (user + sys, RUSAGE_CHILDREN) of one fresh process per "
               "command, PYTHONDONTWRITEBYTECODE=1, before and after in alternating "
               f"rounds, {ROUNDS} rounds",
        "python": platform.python_version(),
        "cpus": len(os.sched_getaffinity(0)),
        "commands": {cmd: " ".join(["python3", *args]) for cmd, args in COMMANDS.items()},
        "results": results,
    }
    sys.stdout.write(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

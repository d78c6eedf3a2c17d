"""The benchmark's three workloads: the instance files each one generates from
the seed, its warm-up jobs, the cycle of `seqdict` CLI jobs it repeats, and the
check applied to every job's output.

Job lists are plain data.  The checks import seqdict lazily, so they use the
modules the benchmark imported last (it re-imports the package during set-up).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from typing import Optional

WORKLOADS = ("exact-optimum", "prefix-search", "verify-sweep")
SIZES = ("full", "toy")
SUITES = ("monotonicity", "pareto", "approx", "truthful", "lowerbound", "x3c")


@dataclass(frozen=True)
class Job:
    """One `seqdict` invocation; an instance file appears in `args` by name."""

    args: tuple
    instance: Optional[str] = None

    def argv(self, workdir: str) -> list:
        return [f"{workdir}/{a}" if a == self.instance else a for a in self.args]


@dataclass
class Workload:
    name: str
    files: dict = field(default_factory=dict)  # file name -> `seqdict gen` argv
    warmup: list = field(default_factory=list)
    cycle: list = field(default_factory=list)

    def add_file(self, name: str, gen_args: list) -> str:
        self.files[name] = ["gen", *gen_args]
        return name


def _posd(name: str) -> Job:
    return Job(("posd", name, "--json"), name)


def _run(name: str, algorithm: str, c: Optional[int] = None,
         seed: Optional[int] = None) -> Job:
    args = ["run", name, "--algorithm", algorithm]
    if c is not None:
        args += ["--c", str(c)]
    if seed is not None:
        args += ["--seed", str(seed)]
    return Job(tuple(args + ["--skip-optimum", "--json"]), name)


def _exact_optimum(w: Workload, seed: int, toy: bool) -> None:
    # Each kind takes a similar share of the cycle's time: one osa n=7 job
    # (n^(n-1) arborescences) costs about one osm n=8 job plus four at n=7,
    # two oss or four paths jobs at n=7.  Six paths jobs, the steadiest kind,
    # put the median job inside one cluster of near-equal durations.
    mix = ([("osm", 5, 1), ("osa", 5, 1), ("oss", 5, 1), ("paths", 5, 1)] if toy else
           [("osm", 7, 4), ("osm", 8, 1), ("osa", 7, 1), ("oss", 7, 2), ("paths", 7, 6)])
    k = 0
    for kind, n, count in mix:
        for _ in range(count):
            name = w.add_file(f"{kind}{n}_{k}.json",
                              [kind, "--n", str(n), "--seed", str(seed * 1000 + k)])
            w.cycle.append(_posd(name))
            k += 1
    w.warmup.append(_posd(w.add_file("warm.json", ["osm", "--n", "3"])))


def _prefix_search(w: Workload, seed: int, toy: bool) -> None:
    n = 6 if toy else 10
    det_cs, rand_cs, plus_cs = ((2, 3), (3,), (2,)) if toy else ((2, 3, 4), (5, 6, 7), (2, 3))
    copies = 1 if toy else 2
    k = 0
    names = {"lowerbound": [], "osm": [], "osa": []}
    for kind in names:
        for copy in range(copies):
            extra = ["--c", str(2 + copy)] if kind == "lowerbound" else []
            names[kind].append(w.add_file(
                f"{kind}{n}_{k}.json",
                [kind, "--n", str(n), "--seed", str(seed * 1000 + k), *extra]))
            k += 1
    for kind, files in names.items():
        for name in files:
            k += 1
            w.cycle += [_run(name, "det", c) for c in det_cs]
            w.cycle += [_run(name, "rand", c, seed * 1000 + 10 * k + c) for c in rand_cs]
            w.cycle += [_run(name, "det-plus", c) for c in plus_cs]
            if kind != "lowerbound":
                w.cycle.append(_run(name, f"greedy-{kind}"))
    w.warmup.append(_run(w.add_file("warm.json", ["lowerbound", "--n", "3"]), "det", 1))


def _verify_sweep(w: Workload, seed: int, toy: bool) -> None:
    for k in range(1 if toy else 6):
        s = seed * 1000 + 100 * k
        w.cycle += [Job(("verify", suite, "--seed", str(s), "--json")) for suite in SUITES]
    w.warmup.append(Job(("verify", "x3c", "--json")))


_BUILDERS = {
    "exact-optimum": _exact_optimum,
    "prefix-search": _prefix_search,
    "verify-sweep": _verify_sweep,
}


def build(name: str, seed: int, size: str = "full") -> Workload:
    """The workload's files and jobs; the same (name, seed, size) gives the same."""
    if name not in _BUILDERS or size not in SIZES:
        raise ValueError(f"unknown workload {name!r} or size {size!r}")
    w = Workload(name)
    _BUILDERS[name](w, seed, size == "toy")
    return w


# --- output checks -----------------------------------------------------------

def closed_form_queries(algorithm: str, n: int, c: Optional[int]) -> Optional[int]:
    """Query count the paper fixes for an algorithm, or None where it fixes none."""
    if algorithm == "det":
        return comb(n, c) * c * factorial(c)
    if algorithm == "rand":
        return c * factorial(c)
    if algorithm == "greedy-osm":
        return n * (n + 1) // 2
    return None


def _welfare_of(instance_path: str, seq) -> Fraction:
    from seqdict import core, fileio
    inst = fileio.load_instance(instance_path)
    if sorted(seq) != list(range(inst.n)):
        raise ValueError(f"sequence {seq} is not a permutation of 0..{inst.n - 1}")
    return core.social_welfare(core.oracle_for(inst), seq)


def _check_posd(doc: dict, instance_path: str) -> Optional[str]:
    best = Fraction(doc["best_sequence_welfare"])
    if _welfare_of(instance_path, doc["best_sequence"]) != best:
        return "best_sequence_welfare differs from the welfare of best_sequence"
    opt = Fraction(doc["underlying_optimum"])
    if opt == 0 and best == 0:
        want = "1/1"
    elif best == 0:
        want = "inf"
    else:
        q = opt / best
        want = f"{q.numerator}/{q.denominator}"
    if doc["posd"] != want:
        return f"posd {doc['posd']} != underlying_optimum / best = {want}"
    return None


def _check_run(job: Job, doc: dict, instance_path: str) -> Optional[str]:
    args = job.args
    algorithm = args[args.index("--algorithm") + 1]
    c = int(args[args.index("--c") + 1]) if "--c" in args else None
    if doc["algorithm"] != algorithm or doc["c"] != c:
        return "algorithm or c differs from the job"
    want = closed_form_queries(algorithm, doc["n"], c)
    if want is not None and doc["queries"] != want:
        return f"queries {doc['queries']} != closed form {want}"
    if _welfare_of(instance_path, doc["sequence"]) != Fraction(doc["welfare"]):
        return "welfare differs from social_welfare of the sequence on a fresh oracle"
    return None


def _check_verify(job: Job, doc: dict) -> Optional[str]:
    if doc["suite"] != job.args[1]:
        return "suite differs from the job"
    if doc["ok"] is not True or not all(ch["ok"] for ch in doc["checks"]):
        return "verify reported a failed check"
    return None


def check(job: Job, rc, out: str, workdir: str) -> Optional[str]:
    """Why the job's result is wrong, or None when every check passes."""
    if rc != 0:
        return f"exit code {rc!r}"
    try:
        doc = json.loads(out)
        path = f"{workdir}/{job.instance}"
        if job.args[0] == "posd":
            return _check_posd(doc, path)
        if job.args[0] == "run":
            return _check_run(job, doc, path)
        return _check_verify(job, doc)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"

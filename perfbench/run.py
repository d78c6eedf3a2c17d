"""seqdict benchmark: closed-loop streams of `seqdict` CLI jobs.

    python3 perfbench/run.py --workload exact-optimum --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another

One client in one process runs the workload's job cycle, each job an in-process
`seqdict.cli.main(argv)` call on instance files generated from --seed, until
--seconds have passed and the cycle in progress is done.  Every job's output is
checked afterwards.  With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 the cycle runs once untraced and once under the tracer,
and the last line carries the per-layer metrics.  A report with metadata goes to
.bench_out/ in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jobs
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINNED = Path(__file__).resolve().parent / "pinned.json"
DEFAULT_SEED = 0
SETUP_ROUNDS = 5

END_TO_END = {  # name -> unit
    "jobs_per_s": "jobs/s",
    "job_s.p50": "s",
    "job_s.p90": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# name -> (tracer group, field, unit); a None group is computed in layer_metrics
PER_LAYER = {
    "core.value.calls": ("core.value", "calls", "count"),
    "core.value.distinct": (None, None, "count"),
    "core.value.self_s": ("core.value", "self_time", "s"),
    "core.social_welfare.calls": ("core.social_welfare", "calls", "count"),
    "core.social_welfare_s": ("core.social_welfare", "incl", "s"),
    "core.brute_force_optimal_sequence_s": ("core.brute_force_optimal_sequence", "incl", "s"),
    "core.underlying_optimum_s": ("core.underlying_optimum", "incl", "s"),
    "core.find_monotonicity_violation_s": ("core.find_monotonicity_violation", "incl", "s"),
    "osm.value_fn_s": ("osm.value_fn", "incl", "s"),
    "osa.value_fn_s": ("osa.value_fn", "incl", "s"),
    "oss.value_fn_s": ("oss.value_fn", "incl", "s"),
    "auxstructs.value_fn_s": ("auxstructs.value_fn", "incl", "s"),
    "seqopt.value_fn_s": ("seqopt.value_fn", "incl", "s"),
    "seqopt.self_s": ("seqopt.algorithms", "self_time", "s"),
    "feasibility.sequence_for_collection.calls": ("feasibility.sequence_for_collection", "calls", "count"),
    "feasibility.sequence_for_collection_s": ("feasibility.sequence_for_collection", "incl", "s"),
    "osm.is_pareto_optimal_matching_s": ("osm.is_pareto_optimal_matching", "incl", "s"),
    "osa.is_pareto_optimal_arborescence_s": ("osa.is_pareto_optimal_arborescence", "incl", "s"),
    "oss.sat_as_decide_s": ("oss.sat_as_decide", "incl", "s"),
    "mechanisms.vcg_s": ("mechanisms.vcg", "incl", "s"),
    "mechanisms.truthfulness_spotcheck_s": ("mechanisms.truthfulness_spotcheck", "incl", "s"),
    **{f"suites.{s}_s": (f"suites.{s}", "incl", "s") for s in jobs.SUITES},
    "fileio.load_instance.calls": ("fileio.load_instance", "calls", "count"),
    "fileio.load_instance_s": ("fileio.load_instance", "incl", "s"),
    "cli.self_s": ("cli.main", "self_time", "s"),
    "trace.overhead_s": (None, None, "s"),
}


def import_program():
    """Import seqdict from this checkout's src/, dropping any earlier import."""
    for name in [k for k in sys.modules if k == "seqdict" or k.startswith("seqdict.")]:
        del sys.modules[name]
    cli = importlib.import_module("seqdict.cli")
    if Path(cli.__file__).resolve().parent != SRC / "seqdict":
        raise ImportError(f"seqdict imported from {cli.__file__}, not from {SRC}")
    return cli


def call_cli(main, argv):
    """One job: (exit code, stdout, stderr); an exception counts as a failed job."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception as exc:  # a traceback is a failed job, not a crashed run
            rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def generate(workload, workdir: str, main) -> None:
    for name, gen_argv in workload.files.items():
        rc, _, err = call_cli(main, gen_argv + ["-o", f"{workdir}/{name}"])
        if rc != 0:
            raise RuntimeError(f"seqdict {' '.join(gen_argv)} failed: {rc} {err}")


def setup_round(workload, workdir: str) -> float:
    """Import, generate the instance files and run the warm-up jobs; seconds taken."""
    t0 = time.perf_counter()
    cli = import_program()
    generate(workload, workdir, cli.main)
    for job in workload.warmup:
        rc, _, err = call_cli(cli.main, job.argv(workdir))
        if rc != 0:
            raise RuntimeError(f"warm-up job {job.args} failed: {rc} {err}")
    return time.perf_counter() - t0


def inputs_digest(workload, workdir: str) -> str:
    """sha256 over the generated instance files and the job list."""
    h = hashlib.sha256()
    for name in sorted(workload.files):
        h.update(name.encode() + b"\0" + Path(workdir, name).read_bytes() + b"\0")
    h.update(json.dumps([list(j.args) for j in workload.cycle]).encode())
    return h.hexdigest()


def seed_inputs_digest(name: str, seed: int, size: str = "full") -> str:
    """Generate a workload's inputs in a scratch directory and digest them."""
    workload = jobs.build(name, seed, size)
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as workdir:
        generate(workload, workdir, import_program().main)
        return inputs_digest(workload, workdir)


class Stream:
    """Runs the job cycle in a closed loop and keeps what the checks need."""

    def __init__(self, workload, workdir: str):
        self.workload = workload
        self.workdir = workdir
        self.argvs = [job.argv(workdir) for job in workload.cycle]
        self.times: list = []
        self.results: list = []  # (cycle index, exit code, stdout, stderr)
        self.per_job: list = []  # traced runs: (cycle index, traced calls, ledger calls, distinct)

    def run(self, seconds: float, tracer: Tracer = None):
        """Whole cycles until `seconds` have passed; returns the loop's wall time."""
        main = sys.modules["seqdict.cli"].main
        call = call_cli if tracer is None else tracer.wrap(call_cli, "job", True, "job")
        per_job = []
        clock = time.perf_counter
        start = clock()
        while True:
            for i, argv in enumerate(self.argvs):
                if tracer is not None:
                    tracer.job_id = len(self.results)
                    tracer.ledgers.clear()
                    calls0 = tracer.group("core.value").calls
                t0 = clock()
                rc, out, err = call(main, argv)
                self.times.append(clock() - t0)
                self.results.append((i, rc, out, err))
                if tracer is not None:
                    per_job.append((i, tracer.group("core.value").calls - calls0,
                                    sum(l.total_calls for l in tracer.ledgers),
                                    sum(l.distinct_calls for l in tracer.ledgers)))
            if clock() - start >= seconds:
                break
        self.per_job = per_job
        return clock() - start


def check_results(stream, seed: int, size: str) -> tuple:
    """(failed job count, failure reasons, per-job stdout digests of cycle 0)."""
    workload = stream.workload
    first: dict = {}
    verdicts: dict = {}
    pins = None
    if seed == DEFAULT_SEED:
        pins = json.loads(PINNED.read_text()).get(workload.name, {}).get(size, [])
    digests = []
    failed, reasons = 0, []
    for i, rc, out, err in stream.results:
        job = workload.cycle[i]
        if i not in first:
            first[i] = out
            why = jobs.check(job, rc, out, stream.workdir)
            digest = hashlib.sha256(out.encode()).hexdigest()[:16]
            digests.append(digest)
            if why is None and pins is not None and pins[i:i + 1] != [digest]:
                why = "stdout differs from the digest pinned for the default seed"
            verdicts[i] = why
        else:
            why = verdicts[i]
            if why is None and out != first[i]:
                why = "stdout differs from an earlier run of the same job"
        if why is not None:
            failed += 1
            reasons.append(f"{' '.join(job.args)}: {why} {err.strip()}".strip())
    return failed, reasons, digests


def wrapper_check(stream, workload) -> list:
    """The traced value() count must equal the ledgers' totals, job by job, and
    on prefix-search the sum of the closed forms for the job list."""
    problems = []
    for i, traced, ledger, _ in stream.per_job:
        if traced != ledger:
            problems.append(f"{workload.cycle[i].args}: traced {traced} calls, ledgers {ledger}")
    if workload.name == "prefix-search":
        expected = 0
        traced_results = stream.results[-len(stream.per_job):]
        for (i, _, ledger, _), (_, _, out, _) in zip(stream.per_job, traced_results):
            doc = json.loads(out)
            closed = jobs.closed_form_queries(doc["algorithm"], doc["n"], doc["c"])
            # the algorithm's queries, plus n for the welfare on a fresh oracle;
            # det-plus and greedy-osa have no closed form, so their ledger counts in
            expected += ledger if closed is None else closed + doc["n"]
        traced = sum(t for _, t, _, _ in stream.per_job)
        if traced != expected:
            problems.append(f"traced {traced} value() calls, closed forms sum to {expected}")
    return problems


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def layer_metrics(tracer: Tracer, stream, overhead: float) -> dict:
    computed = {"core.value.distinct": sum(d for *_, d in stream.per_job),
                "trace.overhead_s": overhead}
    return {name: {"value": computed[name] if group is None
                   else getattr(tracer.group(group), attr), "unit": unit}
            for name, (group, attr, unit) in PER_LAYER.items()}


def run_workload(args) -> int:
    workload = jobs.build(args.workload, args.seed, args.size)
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as workdir:
        setup = [setup_round(workload, workdir) for _ in range(SETUP_ROUNDS)]
        digest = inputs_digest(workload, workdir)
        stream = Stream(workload, workdir)
        tracer = None
        problems = []
        if args.trace:
            untraced = stream.run(0)
            tracer = Tracer()
            tracer.install()
            try:
                traced = stream.run(0, tracer)
            finally:
                tracer.uninstall()
            problems = wrapper_check(stream, workload)
            metrics = layer_metrics(tracer, stream, traced - untraced)
        else:
            wall = stream.run(args.seconds)
            times = stream.times
            metrics = {
                "jobs_per_s": len(times) / wall,
                "job_s.p50": statistics.median(times),
                "job_s.p90": statistics.quantiles(times, n=10)[-1],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": statistics.median(setup),
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
        failed, reasons, digests = check_results(stream, args.seed, args.size)

    attempted = len(stream.results)
    meta = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds,
        "python": platform.python_version(), "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "inputs_digest": digest,
        "jobs_per_cycle": len(workload.cycle),
        "cycles": attempted // len(workload.cycle),
        "failed_share": failed / attempted,
        "samples": ({"setup_s": len(setup)} if args.trace else
                    {"job_s.p50": attempted, "job_s.p90": attempted, "setup_s": len(setup)}),
        "units": {k: m["unit"] for k, m in metrics.items()},
        "failures": reasons[:20],
        "wrapper_check": problems,
        "stdout_digests": digests,
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    report = {"meta": meta, "metrics": metrics}
    if tracer is not None:
        report["spans"] = tracer.spans
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(report))

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_share':44s} {meta['failed_share']:.6g} 1  ({failed}/{attempted} jobs)")
    for line in reasons[:5] + problems[:5]:
        print(f"  FAIL {line}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so each gets its own peak RSS."""
    status = 0
    for name in jobs.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=jobs.SIZES, default="full",
                        help="toy shrinks every instance, for smoke tests")
    args = parser.parse_args(argv)
    if not (SRC / "seqdict" / "cli.py").is_file():
        print(f"error: no seqdict sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("SEQDICT_CAPS", None)  # every job runs under the default caps
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: generate instances, run algorithms, compute the
price of serial dictatorship, run verification suites, and benchmark.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
All randomness flows from --seed; enumeration caps come from SEQDICT_CAPS
(e.g. "factorial=8,subset=16").
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
import time
from fractions import Fraction

from . import auxstructs, mechanisms, osa, osm, oss, seqopt
from .core import (
    CapExceededError,
    Caps,
    INFINITE_POSD,
    brute_force_optimal_sequence,
    oracle_for,
    social_welfare,
)
from .fileio import (
    SCHEMA_VERSION,
    instance_kind,
    load_instance,
    serialize_instance,
)
from .suites import SUITES


class UsageError(ValueError):
    pass


def _fmt_q(v) -> str:
    if v == INFINITE_POSD:
        return "inf"
    return f"{v.numerator}/{v.denominator}"


def _parse_eps(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse rational {text!r}") from None


def _parse_range(text: str) -> list:
    if ".." in text:
        lo, _, hi = text.partition("..")
        lo, hi = int(lo), int(hi)
        if lo > hi:
            raise UsageError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


NAMED_INSTANCES = ("sat-posd", "paths-posd", "oss-nonmono",
               "osm-counterexample", "osa-counterexample", "x3c")


def _named_instance(name: str, eps: Fraction, x3c_variant: str):
    if name == "sat-posd":
        return oss.posd_sat_instance(eps)
    if name == "paths-posd":
        return auxstructs.posd_paths_instance(eps)
    if name == "oss-nonmono":
        return oss.nonmonotone_sat_instance()
    if name == "osm-counterexample":
        return mechanisms.counterexample_matching_instance(eps)
    if name == "osa-counterexample":
        return mechanisms.counterexample_digraph_instance(eps)
    if name == "x3c":
        if x3c_variant == "yes":
            return oss.x3c_reduce(3, [(0, 1, 2)])
        return oss.x3c_reduce(6, [(0, 1, 2), (2, 3, 4)])
    raise UsageError(f"unknown named instance {name!r}")


def _random_instance(kind: str, n: int, seed: int, args):
    wd = args.weight_denominator
    if kind == "osm":
        return osm.random_matching_instance(n, seed, wd)
    if kind == "osa":
        return osa.random_digraph_instance(n, seed, wd)
    if kind == "oss":
        m = args.m if args.m is not None else 2 * n
        return oss.random_sat_instance(n, m, args.max_clause_len, seed, wd)
    if kind == "osi":
        return auxstructs.random_osi_instance(n, seed)
    if kind == "paths":
        return auxstructs.random_paths_instance(n, seed, wd)
    if kind == "lowerbound":
        c = args.c if args.c is not None else min(2, n)
        return seqopt.random_lower_bound_instance(n, c, seed)
    raise UsageError(f"unknown instance kind {kind!r}")


def _cmd_gen(args) -> int:
    if args.paper:
        inst = _named_instance(args.paper, _parse_eps(args.eps), args.x3c_variant)
    else:
        if args.kind is None:
            raise UsageError("gen needs an instance kind or --paper")
        if args.n is None:
            raise UsageError("gen needs --n for random instances")
        inst = _random_instance(args.kind, args.n, args.seed, args)
    if args.wcnf:
        if not isinstance(inst, oss.SatInstance):
            raise UsageError("--wcnf only applies to sat instances")
        text = oss.to_wcnf(inst)
    else:
        text = serialize_instance(inst)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


ALGORITHMS = ("det", "rand", "det-plus", "greedy-osm", "greedy-osa",
              "bit", "osi-learn")

_KIND_ONLY = {"greedy-osm": "osm", "greedy-osa": "osa", "bit": "osa",
              "osi-learn": "osi"}


def _run_algorithm(args, inst, kind, oracle, caps):
    algo = args.algorithm
    wanted = _KIND_ONLY.get(algo)
    if wanted is not None and kind != wanted:
        raise UsageError(f"algorithm {algo} runs on {wanted} instances, not {kind}")
    if algo in ("det", "rand", "det-plus"):
        if args.c is None:
            raise UsageError(f"algorithm {algo} needs --c")
        if algo == "det":
            return seqopt.det(oracle, args.c, caps)
        if algo == "rand":
            return seqopt.rand(oracle, args.c, args.seed, caps)
        return seqopt.det_plus(oracle, args.c, caps)
    if algo == "greedy-osm":
        return osm.greedy_osm(oracle)
    if algo == "greedy-osa":
        return osa.greedy_osa(oracle)
    if algo == "bit":
        if args.coin is not None:
            coin = args.coin == "heads"
        else:
            coin = bool(random.Random(args.seed).getrandbits(1))
        return osa.bit(inst.n, coin)
    if algo == "osi-learn":
        return auxstructs.osi_learn_and_solve(oracle, caps)
    raise UsageError(f"unknown algorithm {algo!r}")


def _cmd_run(args) -> int:
    caps = Caps.from_env()
    inst = load_instance(args.instance)
    kind = instance_kind(inst)
    oracle = oracle_for(inst)
    seq = _run_algorithm(args, inst, kind, oracle, caps)
    queries = oracle.ledger.total_calls
    welfare = social_welfare(oracle.fresh(), seq)

    opt = ratio = None
    if not args.skip_optimum:
        try:
            _, opt = brute_force_optimal_sequence(oracle.fresh(), caps)
        except CapExceededError:
            opt = None
        if opt is not None:
            if welfare > 0:
                ratio = opt / welfare
            else:
                ratio = Fraction(1) if opt == 0 else INFINITE_POSD

    if args.json:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": kind,
            "n": inst.n,
            "algorithm": args.algorithm,
            "c": args.c,
            "seed": args.seed,
            "sequence": list(seq),
            "welfare": _fmt_q(welfare),
            "welfare_decimal": float(welfare),
            "queries": queries,
            "optimal_sequence_welfare": None if opt is None else _fmt_q(opt),
            "ratio": None if ratio is None else _fmt_q(ratio),
            "caps": {"factorial": caps.factorial, "subset": caps.subset},
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"kind: {kind}  n: {inst.n}  algorithm: {args.algorithm}")
        print("sequence:", " ".join(map(str, seq)))
        print(f"welfare: {_fmt_q(welfare)} (= {float(welfare):g})")
        print(f"queries: {queries}")
        if opt is None:
            print("optimal sequence welfare: skipped (enumeration cap)")
        else:
            print(f"optimal sequence welfare: {_fmt_q(opt)}")
            print(f"ratio vs optimal sequence: {_fmt_q(ratio)}"
                  + ("" if ratio == INFINITE_POSD else f" (= {float(ratio):g})"))
    return 0


def _cmd_posd(args) -> int:
    caps = Caps.from_env()
    inst = load_instance(args.instance)
    kind = instance_kind(inst)
    try:
        from .core import underlying_optimum
        opt = underlying_optimum(inst, caps)
    except TypeError:
        raise UsageError(f"no underlying optimum for kind {kind!r}") from None
    seq, best = brute_force_optimal_sequence(oracle_for(inst), caps)
    if opt == 0 and best == 0:
        posd = Fraction(1)
    elif best == 0:
        posd = INFINITE_POSD
    else:
        posd = opt / best
    if args.json:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": kind,
            "n": inst.n,
            "underlying_optimum": _fmt_q(opt),
            "best_sequence_welfare": _fmt_q(best),
            "best_sequence": list(seq),
            "posd": _fmt_q(posd),
            "posd_decimal": float(posd) if posd != INFINITE_POSD else None,
            "caps": {"factorial": caps.factorial, "subset": caps.subset},
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"kind: {kind}  n: {inst.n}")
        print(f"underlying optimum: {_fmt_q(opt)}")
        print(f"best sequence welfare: {_fmt_q(best)} (sequence "
              + " ".join(map(str, seq)) + ")")
        suffix = "" if posd == INFINITE_POSD else f" (= {float(posd):g})"
        print(f"price of serial dictatorship: {_fmt_q(posd)}{suffix}")
    return 0


def _cmd_verify(args) -> int:
    rows = SUITES[args.suite](args.seed)
    failures = [r for r in rows if not r[1]]
    if args.json:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "suite": args.suite,
            "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in rows],
            "ok": not failures,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for name, ok, detail in rows:
            mark = "ok  " if ok else "FAIL"
            extra = f"  [{detail}]" if detail and not ok else ""
            print(f"{mark} {name}{extra}")
        print(f"{args.suite}: {len(rows) - len(failures)}/{len(rows)} checks passed")
    return 1 if failures else 0


def _trial_seed(seed: int, n: int, c, trial: int) -> int:
    return ((seed * 1_000_003 + n) * 1_009 + (0 if c is None else c)) * 100_003 + trial


_BENCH_KINDS = ("osm", "osa", "oss", "osi", "paths", "lowerbound", "general")


def _cmd_bench(args) -> int:
    caps = Caps.from_env()
    if args.kind not in _BENCH_KINDS:
        raise UsageError(f"unknown bench kind {args.kind!r}")
    ns = _parse_range(args.n)
    cs = _parse_range(args.c) if args.c else [None]
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["kind", "algorithm", "n", "c", "trials", "seed",
                     "mean_ratio", "max_ratio", "mean_queries", "mean_runtime_ms"])
    for n in ns:
        for c in cs:
            if args.trials < 1:
                continue  # header-only output
            ratios, queries, runtimes = [], [], []
            for trial in range(args.trials):
                tseed = _trial_seed(args.seed, n, c, trial)
                if args.kind == "general":
                    inst = seqopt.random_lower_bound_instance(n, c or min(2, n), tseed)
                else:
                    inst = _random_instance(args.kind, n, tseed, args)
                oracle = oracle_for(inst)
                run_args = argparse.Namespace(algorithm=args.algorithm, c=c,
                                              seed=tseed, coin=None)
                t0 = time.perf_counter()
                seq = _run_algorithm(run_args, inst, instance_kind(inst), oracle, caps)
                runtimes.append((time.perf_counter() - t0) * 1000)
                queries.append(oracle.ledger.total_calls)
                welfare = social_welfare(oracle.fresh(), seq)
                try:
                    _, opt = brute_force_optimal_sequence(oracle.fresh(), caps)
                except CapExceededError:
                    continue
                if welfare > 0:
                    ratios.append(opt / welfare)
                else:
                    ratios.append(Fraction(1) if opt == 0 else INFINITE_POSD)
            writer.writerow([
                args.kind, args.algorithm, n, "" if c is None else c,
                args.trials, args.seed,
                f"{float(sum(ratios) / len(ratios)):.6f}" if ratios else "",
                f"{float(max(ratios)):.6f}" if ratios else "",
                f"{sum(queries) / len(queries):.2f}" if queries else "",
                f"{sum(runtimes) / len(runtimes):.3f}" if runtimes else "",
            ])
    text = out.getvalue()
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqdict",
        description="Optimize over serial dictatorships: generate instances, "
                    "run sequence algorithms, and verify their guarantees.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("kind", nargs="?", choices=("osm", "osa", "oss", "osi",
                                               "paths", "lowerbound"))
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", type=int, help="clause count for oss instances")
    p.add_argument("--max-clause-len", type=int, default=3)
    p.add_argument("--c", type=int, help="prefix threshold for lowerbound instances")
    p.add_argument("--weight-denominator", type=int, default=100)
    p.add_argument("--paper", choices=NAMED_INSTANCES,
                   help="emit one of the named built-in instances")
    p.add_argument("--eps", default="1/10", help='rational "p/q" parameter')
    p.add_argument("--x3c-variant", choices=("yes", "no"), default="yes")
    p.add_argument("--wcnf", action="store_true",
                   help="write sat instances in weighted-CNF text")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("run", help="run an algorithm on an instance file")
    p.add_argument("instance")
    p.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    p.add_argument("--c", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coin", choices=("heads", "tails"))
    p.add_argument("--skip-optimum", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("posd", help="price of serial dictatorship of an instance")
    p.add_argument("instance")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_posd)

    p = sub.add_parser("verify", help="run a named property suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="benchmark an algorithm, CSV output")
    p.add_argument("--kind", required=True)
    p.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    p.add_argument("--n", required=True, help="range like 3..6 or a single value")
    p.add_argument("--c", help="range like 1..3 (prefix-search algorithms)")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", type=int)
    p.add_argument("--max-clause-len", type=int, default=3)
    p.add_argument("--weight-denominator", type=int, default=100)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CapExceededError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

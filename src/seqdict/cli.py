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
from functools import lru_cache

from . import auxstructs, mechanisms, osa, osm, oss, seqopt
from .core import (
    CapExceededError,
    Caps,
    INFINITE_POSD,
    best_sequence,
    oracle_for,
    social_welfare,
    underlying_optimum,
    welfare_ratio,
)
from .fileio import (
    KINDS,
    SCHEMA_VERSION,
    encode_rational,
    instance_kind,
    load_instance,
    serialize_instance,
)
from .suites import SUITES


class UsageError(ValueError):
    pass


def _fmt_q(v) -> str:
    return "inf" if v == INFINITE_POSD else encode_rational(v)


def _fmt_exact(v) -> str:
    """`v` as "p/q (= decimal)", or "inf" with no decimal."""
    return _fmt_q(v) + ("" if v == INFINITE_POSD else f" (= {float(v):g})")


def _parse_eps(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse rational {text!r}") from None


def _parse_range(flag: str, text: str) -> list:
    """The integers of a `bench` range flag: "lo..hi" or one value."""
    try:
        lo, hi = map(int, text.split("..", 1) if ".." in text else (text, text))
    except ValueError:
        raise UsageError(f"{flag} must be an integer or a range like 1..3, "
                         f"got {text!r}") from None
    if lo > hi:
        raise UsageError(f"{flag} must be a non-empty range, got {text!r}")
    return list(range(lo, hi + 1))


# name -> constructor(eps, x3c_variant)
NAMED_INSTANCES = {
    "sat-posd": lambda eps, _: oss.posd_sat_instance(eps),
    "paths-posd": lambda eps, _: auxstructs.posd_paths_instance(eps),
    "oss-nonmono": lambda eps, _: oss.nonmonotone_sat_instance(),
    "osm-counterexample": lambda eps, _: mechanisms.counterexample_matching_instance(eps),
    "osa-counterexample": lambda eps, _: mechanisms.counterexample_digraph_instance(eps),
    "x3c": lambda eps, variant: (oss.x3c_reduce(3, [(0, 1, 2)]) if variant == "yes"
                                 else oss.x3c_reduce(6, [(0, 1, 2), (2, 3, 4)])),
}


def _check_drawing_flags(kind: str, ns, cs, c_min: int, args) -> None:
    """Refuse a bad instance-drawing flag of `gen` or `bench` for `kind`,
    once per command and before anything is drawn.  `cs` are the prefix
    thresholds the command uses (none if it ignores --c); each must lie in
    c_min..n for every n in `ns`."""
    if min(ns) < 1:
        raise UsageError(f"--n must be at least 1, got {min(ns)}")
    wd = args.weight_denominator
    if kind in ("osm", "osa", "oss", "paths") and wd < 1:
        raise UsageError(f"--weight-denominator must be at least 1, got {wd}")
    if kind == "oss":
        if args.m is not None and args.m < 0:
            raise UsageError(f"--m must be at least 0, got {args.m}")
        if args.max_clause_len < 1:
            raise UsageError(f"--max-clause-len must be at least 1, got {args.max_clause_len}")
    if cs and min(cs) < c_min:
        raise UsageError(f"--c must be at least {c_min}, got {min(cs)}")
    if cs and max(cs) > min(ns):
        raise UsageError(f"--c must be at most --n, got {max(cs)} > {min(ns)}")


def _random_instance(kind: str, n: int, seed: int, c, args):
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
        # without --c, or at c=0 (det-plus only), draw the c=min(2, n) family
        return seqopt.random_lower_bound_instance(n, c or min(2, n), seed)
    raise UsageError(f"unknown instance kind {kind!r}")


def _write_output(text: str, path) -> None:
    """Write `text` to the file at `path` (as is), or to stdout without one."""
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _report_head(kind: str, n: int, caps: Caps) -> dict:
    """The fields that open every `run` and `posd` JSON report."""
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "n": n,
            "caps": {"factorial": caps.factorial, "subset": caps.subset}}


def _cmd_gen(args) -> int:
    if args.paper:
        inst = NAMED_INSTANCES[args.paper](_parse_eps(args.eps), args.x3c_variant)
    else:
        if args.kind is None:
            raise UsageError("gen needs an instance kind or --paper")
        if args.n is None:
            raise UsageError("gen needs --n for random instances")
        lowerbound_c = [args.c] if args.kind == "lowerbound" and args.c is not None else []
        _check_drawing_flags(args.kind, [args.n], lowerbound_c, 1, args)
        inst = _random_instance(args.kind, args.n, args.seed, args.c, args)
    if args.wcnf:
        if not isinstance(inst, oss.SatInstance):
            raise UsageError("--wcnf only applies to sat instances")
        text = oss.to_wcnf(inst)
    else:
        text = serialize_instance(inst)
    _write_output(text, args.output)
    return 0


def _bit_coin(args) -> bool:
    if args.coin is not None:
        return args.coin == "heads"
    return bool(random.Random(args.seed).getrandbits(1))


# name -> (the only kind it runs on, or None; whether it needs --c;
# runner(args, inst, oracle, caps)).  Runners look the algorithms up as module
# attributes when they run, so patched module functions are the ones called.
ALGORITHMS = {
    "det": (None, True, lambda a, inst, o, caps: seqopt.det(o, a.c, caps)),
    "rand": (None, True, lambda a, inst, o, caps: seqopt.rand(o, a.c, a.seed, caps)),
    "det-plus": (None, True, lambda a, inst, o, caps: seqopt.det_plus(o, a.c, caps)),
    "greedy-osm": ("osm", False, lambda a, inst, o, caps: osm.greedy_osm(o)),
    "greedy-osa": ("osa", False, lambda a, inst, o, caps: osa.greedy_osa(o)),
    "bit": ("osa", False, lambda a, inst, o, caps: osa.bit(inst.n, _bit_coin(a))),
    "osi-learn": ("osi", False,
                  lambda a, inst, o, caps: auxstructs.osi_learn_and_solve(o, caps)),
}


def _check_algorithm(algorithm: str, kind: str, c) -> None:
    """Refuse an algorithm on a kind it does not run on, or without the --c
    it needs, once per command, before any instance is drawn or oracle built."""
    wanted, needs_c, _ = ALGORITHMS[algorithm]
    if wanted is not None and kind != wanted:
        raise UsageError(f"algorithm {algorithm} runs on {wanted} instances, not {kind}")
    if needs_c and c is None:
        raise UsageError(f"algorithm {algorithm} needs --c")


def _score(args, inst, caps, optimum: bool) -> tuple:
    """(sequence, queries, welfare, best-sequence welfare, ratio, seconds) of
    the algorithm on its own oracle of `inst`, which `_check_algorithm` has
    passed.  The best welfare and the ratio are None without `optimum` or
    when that search is over the cap."""
    oracle = oracle_for(inst)
    runner = ALGORITHMS[args.algorithm][2]
    t0 = time.perf_counter()
    seq = runner(args, inst, oracle, caps)
    seconds = time.perf_counter() - t0
    queries = oracle.ledger.total_calls
    welfare = social_welfare(oracle.fresh(), seq)
    opt = ratio = None
    if optimum:
        try:
            opt = best_sequence(inst, caps)[1]
            ratio = welfare_ratio(opt, welfare)
        except CapExceededError:
            pass
    return seq, queries, welfare, opt, ratio, seconds


def _cmd_run(args) -> int:
    caps = Caps.from_env()
    inst = load_instance(args.instance)
    kind = instance_kind(inst)
    _check_algorithm(args.algorithm, kind, args.c)
    seq, queries, welfare, opt, ratio, _ = _score(args, inst, caps,
                                                  optimum=not args.skip_optimum)
    if args.json:
        _print_json({
            **_report_head(kind, inst.n, caps),
            "algorithm": args.algorithm,
            "c": args.c,
            "seed": args.seed,
            "sequence": list(seq),
            "welfare": _fmt_q(welfare),
            "welfare_decimal": float(welfare),
            "queries": queries,
            "optimal_sequence_welfare": None if opt is None else _fmt_q(opt),
            "ratio": None if ratio is None else _fmt_q(ratio),
        })
    else:
        print(f"kind: {kind}  n: {inst.n}  algorithm: {args.algorithm}")
        print("sequence:", " ".join(map(str, seq)))
        print(f"welfare: {_fmt_exact(welfare)}")
        print(f"queries: {queries}")
        if opt is None:
            print("optimal sequence welfare: skipped (enumeration cap)")
        else:
            print(f"optimal sequence welfare: {_fmt_q(opt)}")
            print(f"ratio vs optimal sequence: {_fmt_exact(ratio)}")
    return 0


def _cmd_posd(args) -> int:
    caps = Caps.from_env()
    inst = load_instance(args.instance)
    kind = instance_kind(inst)
    try:
        opt = underlying_optimum(inst, caps)
    except TypeError:
        raise UsageError(f"no underlying optimum for kind {kind!r}") from None
    seq, best = best_sequence(inst, caps)
    posd = welfare_ratio(opt, best)
    if args.json:
        _print_json({
            **_report_head(kind, inst.n, caps),
            "underlying_optimum": _fmt_q(opt),
            "best_sequence_welfare": _fmt_q(best),
            "best_sequence": list(seq),
            "posd": _fmt_q(posd),
            "posd_decimal": float(posd) if posd != INFINITE_POSD else None,
        })
    else:
        print(f"kind: {kind}  n: {inst.n}")
        print(f"underlying optimum: {_fmt_q(opt)}")
        print(f"best sequence welfare: {_fmt_q(best)} (sequence "
              + " ".join(map(str, seq)) + ")")
        print(f"price of serial dictatorship: {_fmt_exact(posd)}")
    return 0


def _cmd_verify(args) -> int:
    rows = SUITES[args.suite](args.seed)
    failures = [r for r in rows if not r[1]]
    if args.json:
        _print_json({
            "schema_version": SCHEMA_VERSION,
            "suite": args.suite,
            "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in rows],
            "ok": not failures,
        })
    else:
        for name, ok, detail in rows:
            mark = "ok  " if ok else "FAIL"
            extra = f"  [{detail}]" if detail and not ok else ""
            print(f"{mark} {name}{extra}")
        print(f"{args.suite}: {len(rows) - len(failures)}/{len(rows)} checks passed")
    return 1 if failures else 0


def _trial_seed(seed: int, n: int, c, trial: int) -> int:
    return ((seed * 1_000_003 + n) * 1_009 + (0 if c is None else c)) * 100_003 + trial


# "general" is another name for the hidden-sequence (lowerbound) family
_BENCH_KINDS = KINDS + ("general",)


def _cmd_bench(args) -> int:
    caps = Caps.from_env()
    if args.kind not in _BENCH_KINDS:
        raise UsageError(f"unknown bench kind {args.kind!r}")
    kind = "lowerbound" if args.kind == "general" else args.kind
    ns = _parse_range("--n", args.n)
    cs = _parse_range("--c", args.c) if args.c else [None]
    needs_c = ALGORITHMS[args.algorithm][1]
    _check_drawing_flags(kind, ns, cs if needs_c and args.c else [],
                         0 if args.algorithm == "det-plus" else 1, args)
    if args.trials < 0:
        raise UsageError(f"--trials must be at least 0, got {args.trials}")
    _check_algorithm(args.algorithm, kind, cs[0])  # cs is [None] without --c
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["kind", "algorithm", "n", "c", "trials", "seed",
                     "mean_ratio", "max_ratio", "mean_queries", "mean_runtime_ms"])
    for n in ns:
        for c in cs:
            if args.trials < 1:
                continue  # header-only output
            scores = []
            for trial in range(args.trials):
                tseed = _trial_seed(args.seed, n, c, trial)
                inst = _random_instance(kind, n, tseed, c, args)
                run_args = argparse.Namespace(algorithm=args.algorithm, c=c,
                                              seed=tseed, coin=None)
                scores.append(_score(run_args, inst, caps, optimum=True))
            _, queries, _, _, ratios, seconds = zip(*scores)
            ratios = [r for r in ratios if r is not None]
            writer.writerow([
                args.kind, args.algorithm, n, "" if c is None else c,
                args.trials, args.seed,
                f"{float(sum(ratios) / len(ratios)):.6f}" if ratios else "",
                f"{float(max(ratios)):.6f}" if ratios else "",
                f"{sum(queries) / len(queries):.2f}",
                f"{sum(seconds) * 1000 / len(seconds):.3f}",
            ])
    _write_output(out.getvalue(), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqdict",
        description="Optimize over serial dictatorships: generate instances, "
                    "run sequence algorithms, and verify their guarantees.")
    sub = parser.add_subparsers(dest="command", required=True)
    # the instance-drawing flags of `gen` and `bench`
    drawing = argparse.ArgumentParser(add_help=False)
    drawing.add_argument("--seed", type=int, default=0)
    drawing.add_argument("--m", type=int, help="clause count for oss instances")
    drawing.add_argument("--max-clause-len", type=int, default=3)
    drawing.add_argument("--weight-denominator", type=int, default=100)
    drawing.add_argument("-o", "--output")

    p = sub.add_parser("gen", parents=[drawing], help="generate an instance file")
    p.add_argument("kind", nargs="?", choices=KINDS)
    p.add_argument("--n", type=int)
    p.add_argument("--c", type=int, help="prefix threshold for lowerbound instances")
    p.add_argument("--paper", choices=NAMED_INSTANCES,
                   help="emit one of the named built-in instances")
    p.add_argument("--eps", default="1/10", help='rational "p/q" parameter')
    p.add_argument("--x3c-variant", choices=("yes", "no"), default="yes")
    p.add_argument("--wcnf", action="store_true",
                   help="write sat instances in weighted-CNF text")
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

    p = sub.add_parser("bench", parents=[drawing], help="benchmark an algorithm, CSV output")
    p.add_argument("--kind", required=True)
    p.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    p.add_argument("--n", required=True, help="range like 3..6 or a single value")
    p.add_argument("--c", help="range like 1..3 (prefix-search algorithms)")
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=_cmd_bench)
    return parser


@lru_cache(maxsize=1)
def _parser(suites: tuple) -> argparse.ArgumentParser:
    """`build_parser()`, built once per process and again only when the
    registered `suites` change (the cache key; `verify` lists them)."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser(tuple(SUITES))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # UsageError and CapExceededError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

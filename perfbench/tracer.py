"""A tracer installed from outside the program.

It replaces public functions of the imported `seqdict` modules with timing
wrappers, in every module namespace that holds them, and restores them on
`uninstall`.  Coarse calls (jobs, algorithms, brute force, optima, loads,
deciders, suites) become spans: name, start, end, parent span and job id.  At
per-query boundaries (`ValuationOracle.value`, the valuation callables,
`social_welfare`, `max_welfare_ordering`) it only aggregates a count and a
summed time, so memory stays bounded at 10^6 queries per job.

Each wrapped function belongs to a group, the unit the metrics report:
`calls` counts every call, `incl` sums the time of outermost calls only (so a
group nesting into itself is not counted twice), and `self_time` sums each
call's duration minus the time of wrapped calls made beneath it.
"""

from __future__ import annotations

import sys
import time

# (module, attribute, group, records a span)
TARGETS = (
    ("seqdict.cli", "main", "cli.main", True),
    ("seqdict.fileio", "load_instance", "fileio.load_instance", True),
    ("seqdict.core", "social_welfare", "core.social_welfare", False),
    ("seqdict.core", "brute_force_optimal_sequence", "core.brute_force_optimal_sequence", True),
    ("seqdict.core", "underlying_optimum", "core.underlying_optimum", True),
    ("seqdict.core", "find_monotonicity_violation", "core.find_monotonicity_violation", True),
    ("seqdict.seqopt", "det", "seqopt.algorithms", True),
    ("seqdict.seqopt", "rand", "seqopt.algorithms", True),
    ("seqdict.seqopt", "det_plus", "seqopt.algorithms", True),
    ("seqdict.seqopt", "max_welfare_ordering", "seqopt.algorithms", False),
    ("seqdict.osm", "greedy_osm", "osm.greedy_osm", True),
    ("seqdict.osa", "greedy_osa", "osa.greedy_osa", True),
    ("seqdict.feasibility", "sequence_for_collection", "feasibility.sequence_for_collection", True),
    ("seqdict.osm", "is_pareto_optimal_matching", "osm.is_pareto_optimal_matching", True),
    ("seqdict.osa", "is_pareto_optimal_arborescence", "osa.is_pareto_optimal_arborescence", True),
    ("seqdict.oss", "sat_as_decide", "oss.sat_as_decide", True),
    ("seqdict.mechanisms", "vcg_rand", "mechanisms.vcg", True),
    ("seqdict.mechanisms", "vcg_det_plus", "mechanisms.vcg", True),
    ("seqdict.mechanisms", "_vcg_rand_outcome", "mechanisms.vcg", True),
    ("seqdict.mechanisms", "truthfulness_spotcheck", "mechanisms.truthfulness_spotcheck", True),
)


class Group:
    __slots__ = ("calls", "incl", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.groups: dict = {}
        self.spans: list = []  # (name, start, end, span id, parent span id, job id)
        self.job_id = None
        self.ledgers: list = []  # ledgers of the oracles built since the last reset
        # frames: [time covered by wrapped children, span id children attach to]
        self._stack = [[0.0, None]]
        self._patches: list = []

    def group(self, name: str) -> Group:
        return self.groups.setdefault(name, Group())

    def wrap(self, fn, group: str, span: bool, name: str):
        g = self.group(group)
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            if span:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            g.depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                g.depth -= 1
                d = t1 - t0
                parent[0] += d
                g.calls += 1
                g.self_time += d - frame[0]
                if not g.depth:
                    g.incl += d
                if span:
                    spans[frame[1]] = (name, t0, t1, frame[1], parent[1], self.job_id)

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        mods = {k: m for k, m in sys.modules.items()
                if k == "seqdict" or k.startswith("seqdict.")}
        for modname, attr, group, span in TARGETS:
            orig = getattr(mods[modname], attr)
            new = self.wrap(orig, group, span, f"{modname[8:]}.{attr}")
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, new)

        suites = mods["seqdict.suites"].SUITES  # the dict `seqdict verify` reads
        for name, fn in list(suites.items()):
            suites[name] = self.wrap(fn, f"suites.{name}", True, f"suites.{name}")
            self._patches.append((suites, name, fn))

        oracle_cls = mods["seqdict.core"].ValuationOracle
        self._patch(oracle_cls, "value",
                    self.wrap(oracle_cls.value, "core.value", False, "core.value"))
        orig_init = oracle_cls.__init__
        tracer = self

        def init(oracle, n, fn, monotone_claimed=False):
            if not hasattr(fn, "__wrapped__"):  # fresh() hands over a wrapped fn
                domain = getattr(fn, "__module__", "") or ""
                group = domain.rpartition(".")[2] + ".value_fn"
                fn = tracer.wrap(fn, group, False, group)
            orig_init(oracle, n, fn, monotone_claimed)
            tracer.ledgers.append(oracle.ledger)

        self._patch(oracle_cls, "__init__", init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

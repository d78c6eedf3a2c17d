"""The benchmark harness in perfbench/ reaches into seqdict by name: its
tracer wraps the (module, attribute) pairs in TARGETS and groups each
oracle's value callable by the module that defines it.  A refactor that
renames or moves either would silently zero those metrics, so check both."""

import importlib
import importlib.util
from pathlib import Path

from seqdict import auxstructs, osa, osm, oss, seqopt
from seqdict.core import oracle_for
from seqdict.fileio import KINDS, instance_kind

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

INSTANCES = [
    osm.random_matching_instance(3, 0),
    osa.random_digraph_instance(3, 0),
    oss.random_sat_instance(3, 6, 3, 0),
    auxstructs.random_osi_instance(3, 0),
    auxstructs.random_paths_instance(3, 0),
    seqopt.random_lower_bound_instance(3, 2, 0),
]
DOMAIN_MODULE = {"osm": "seqdict.osm", "osa": "seqdict.osa", "oss": "seqdict.oss",
                 "osi": "seqdict.auxstructs", "paths": "seqdict.auxstructs",
                 "lowerbound": "seqdict.seqopt"}


def _tracer_module():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracer_targets():
    return _tracer_module().TARGETS


def test_tracer_hooks_resolve():
    targets = _tracer_targets()
    assert targets
    for modname, attr, _, _ in targets:
        assert callable(getattr(importlib.import_module(modname), attr)), (modname, attr)
    assert sorted(instance_kind(inst) for inst in INSTANCES) == sorted(KINDS)
    for inst in INSTANCES:
        fn = oracle_for(inst)._fn
        assert fn.__module__ == DOMAIN_MODULE[instance_kind(inst)]


def test_traced_queries_equal_ledger_counts():
    """The tracer replaces `ValuationOracle.__init__` with one that takes
    (n, fn, monotone_claimed) and wraps `value`: every oracle must still be
    built through that signature, and every counted read, integer reads
    included, must pass through `value`."""
    from seqdict import cli, core, fileio, mechanisms, suites  # noqa: F401  (the tracer patches them)

    module = _tracer_module()
    untraced = []
    for inst in INSTANCES:
        oracle = oracle_for(inst)
        untraced.append((oracle.scale, seqopt.det(oracle.fresh(), 2),
                         seqopt.rand(oracle.fresh(), 2, seed=1),
                         core.social_welfare(oracle.fresh(), (2, 0, 1))))
    tracer = module.Tracer()
    tracer.install()
    try:
        traced = []
        for inst in INSTANCES:
            oracle = core.oracle_for(inst)
            copy = oracle.fresh()
            traced.append((copy.scale, seqopt.det(oracle, 2), seqopt.rand(copy, 2, seed=1),
                           core.social_welfare(copy, (2, 0, 1))))
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert len(tracer.ledgers) == 2 * len(INSTANCES)
    calls = sum(ledger.total_calls for ledger in tracer.ledgers)
    assert calls == len(INSTANCES) * (3 * 2 * 2 + 2 * 2 + 3)
    assert tracer.groups["core.value"].calls == calls


def test_deciders_reach_traced_groups():
    """The matching and arborescence deciders run through
    `sequence_for_collection`, and the sat decider is `sat_as_decide`: the
    groups those per-layer metrics read must count their calls."""
    from seqdict import cli, core, fileio, mechanisms, suites  # noqa: F401  (the tracer patches them)

    module = _tracer_module()
    matching, digraph, sat = INSTANCES[:3]
    tracer = module.Tracer()
    tracer.install()
    try:
        assert osm.sequence_for_matching(matching, osm.matching_from_sequence(
            matching, (2, 0, 1))) is not None
        assert osa.sequence_for_arborescence(digraph, osa.arborescence_from_sequence(
            digraph, (1, 2, 0))) is not None
        assert oss.sat_as_decide(sat, oss.assignment_from_sequence(sat, (0, 2, 1))) is not None
    finally:
        tracer.uninstall()
    assert tracer.groups["feasibility.sequence_for_collection"].calls == 2
    assert tracer.groups["oss.sat_as_decide"].calls == 1

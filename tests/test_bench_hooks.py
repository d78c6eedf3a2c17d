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


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_tracer_hooks_resolve():
    targets = _tracer_targets()
    assert targets
    for modname, attr, _, _ in targets:
        assert callable(getattr(importlib.import_module(modname), attr)), (modname, attr)
    assert sorted(instance_kind(inst) for inst in INSTANCES) == sorted(KINDS)
    for inst in INSTANCES:
        fn = oracle_for(inst)._fn
        assert fn.__module__ == DOMAIN_MODULE[instance_kind(inst)]

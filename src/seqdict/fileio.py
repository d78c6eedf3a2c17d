"""Instance files: a single JSON document with a kind tag, integer schema
version, and every rational encoded as a "p/q" string (no floats on disk).

Satisfiability instances may alternatively travel as weighted-CNF text;
`load_instance_text` sniffs which of the two formats it was handed.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Union

from . import auxstructs, osa, osm, oss, seqopt
from .core import decode_rational, encode_rational

if TYPE_CHECKING:
    Instance = Union[osm.MatchingInstance, osa.ArborescenceInstance, oss.SatInstance,
                     auxstructs.OsiInstance, auxstructs.PathsInstance,
                     seqopt.LowerBoundInstance]

SCHEMA_VERSION = 1

# Each instance class states its own `kind`; naming them here, in file order,
# keeps their modules unloaded until an instance of the kind is built.
KINDS = ("osm", "osa", "oss", "osi", "paths", "lowerbound")


def instance_kind(inst: Instance) -> str:
    """The kind that `type(inst)` itself states (a subclass states none)."""
    kind = vars(type(inst)).get("kind")
    if kind not in KINDS:
        raise TypeError(f"unknown instance type {type(inst).__name__}")
    return kind


def _weights_out(weights) -> list:
    return [[None if w is None else encode_rational(w) for w in row]
            for row in weights]


def _weights_in(rows, allow_none: bool) -> tuple:
    out = []
    for row in rows:
        out.append(tuple(None if (w is None and allow_none) else decode_rational(w)
                         for w in row))
    return tuple(out)


def instance_to_dict(inst: Instance) -> dict:
    kind = instance_kind(inst)
    doc: dict = {"schema_version": SCHEMA_VERSION, "kind": kind, "n": inst.n}
    if kind in ("osm", "osa"):
        doc["weights"] = _weights_out(inst.weights)
        doc["prefs"] = [list(p) for p in inst.prefs]
    elif kind == "oss":
        doc["clauses"] = [
            {"literals": oss.sorted_literals(lits),
             "weight": encode_rational(w)}
            for lits, w in inst.clauses
        ]
        doc["tie_default"] = list(inst.tie_default)
    elif kind == "osi":
        doc["edges"] = [list(e) for e in inst.edges()]
    elif kind == "paths":
        doc["weights"] = _weights_out(inst.weights)
    elif kind == "lowerbound":
        doc["c"] = inst.c
        doc["hidden_pi"] = list(inst.hidden_pi)
    return doc


def _checked(want: type, field: str, x):
    """`x` if it is exactly a JSON `want`, int or bool (a boolean is not an
    integer), else a TypeError naming `field`."""
    if type(x) is not want:
        raise TypeError(f"{field} must be {want.__name__}, not {type(x).__name__}")
    return x


def _ints(field: str, values) -> tuple:
    return tuple(_checked(int, field, x) for x in values)


def instance_from_dict(doc: dict) -> Instance:
    """Decode an instance document; a missing or mistyped field is a ValueError."""
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {doc.get('schema_version')!r}")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ValueError(f"unknown instance kind {kind!r}")
    try:
        n = _checked(int, "n", doc["n"])
        if kind == "osm":
            return osm.MatchingInstance(n, _weights_in(doc["weights"], allow_none=False),
                                        tuple(_ints("prefs", p) for p in doc["prefs"]))
        if kind == "osa":
            return osa.ArborescenceInstance(n, _weights_in(doc["weights"], allow_none=True),
                                            tuple(_ints("prefs", p) for p in doc["prefs"]))
        if kind == "oss":
            clauses = [(_ints("literals", c["literals"]), decode_rational(c["weight"]))
                       for c in doc["clauses"]]
            tie = doc.get("tie_default")
            if tie is not None:
                tie = tuple(_checked(bool, "tie_default", b) for b in tie)
            return oss.sat_instance(n, clauses, tie)
        if kind == "osi":
            return auxstructs.OsiInstance.from_edges(
                n, [_ints("edges", e) for e in doc["edges"]])
        if kind == "paths":
            return auxstructs.PathsInstance(n, _weights_in(doc["weights"], allow_none=True))
        return seqopt.LowerBoundInstance(n, _checked(int, "c", doc["c"]),
                                         _ints("hidden_pi", doc["hidden_pi"]))
    except KeyError as exc:
        raise ValueError(f"{kind} instance lacks field {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed {kind} instance: {exc}") from None


def serialize_instance(inst: Instance) -> str:
    return json.dumps(instance_to_dict(inst), indent=2, sort_keys=True) + "\n"


def parse_instance(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("instance JSON is nested too deeply") from None
    return instance_from_dict(doc)


def load_instance_text(text: str) -> Instance:
    """Parse an instance from JSON, or from weighted-CNF text for sat kinds."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_instance(text)
    if stripped[:1] in ("c", "p", "t"):
        return oss.from_wcnf(text)
    raise ValueError("unrecognized instance file format")


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return load_instance_text(fh.read())

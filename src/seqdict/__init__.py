"""Optimizing over serial dictatorships.

A serial dictatorship runs the agents through a fixed action sequence; each
acts to maximize her own value given what happened before her.  This package
searches for good sequences under query access to the valuations, with exact
rational arithmetic throughout: counted oracles, prefix-search approximation
algorithms, structured valuation domains (matchings, arborescences,
satisfiability, independent sets, disjoint paths), producibility and Pareto
deciders, price-of-serial-dictatorship computation, and VCG-style payments.
"""

import importlib.util
import sys

from .core import (
    CapExceededError,
    Caps,
    DEFAULT_CAPS,
    INFINITE_POSD,
    MonotonicityViolation,
    QueryLedger,
    ValuationOracle,
    best_sequence,
    brute_force_optimal_sequence,
    check_monotone_exhaustive,
    find_monotonicity_violation,
    is_subsequence,
    oracle_for,
    ordered_subsequences,
    prefix_of,
    price_of_serial_dictatorship,
    social_welfare,
    underlying_optimum,
)

__all__ = [
    "CapExceededError", "Caps", "DEFAULT_CAPS", "INFINITE_POSD",
    "MonotonicityViolation", "QueryLedger", "ValuationOracle",
    "auxstructs", "best_sequence", "brute_force_optimal_sequence",
    "check_monotone_exhaustive", "feasibility", "fileio",
    "find_monotonicity_violation", "is_subsequence", "mechanisms", "oracle_for",
    "ordered_subsequences", "osa", "osm", "oss", "prefix_of",
    "price_of_serial_dictatorship", "seqopt", "social_welfare",
    "underlying_optimum",
]

__version__ = "0.1.0"


def _register_lazily(name: str):
    """`seqdict.<name>`, put in `sys.modules` now but compiled and run only
    on its first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# Every submodule but `core`, which the names above need now, and `cli`,
# which `python -m seqdict.cli` must find unregistered.  A command runs only
# the modules it touches; see "Start-up" in the README.
auxstructs, feasibility, fileio, mechanisms, osa, osm, oss, seqopt, suites = map(
    _register_lazily,
    ("auxstructs", "feasibility", "fileio", "mechanisms", "osa", "osm", "oss",
     "seqopt", "suites"))

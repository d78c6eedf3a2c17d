"""Optimizing over serial dictatorships.

A serial dictatorship runs the agents through a fixed action sequence; each
acts to maximize her own value given what happened before her.  This package
searches for good sequences under query access to the valuations, with exact
rational arithmetic throughout: counted oracles, prefix-search approximation
algorithms, structured valuation domains (matchings, arborescences,
satisfiability, independent sets, disjoint paths), producibility and Pareto
deciders, price-of-serial-dictatorship computation, and VCG-style payments.
"""

from . import auxstructs, feasibility, fileio, mechanisms, osa, osm, oss, seqopt
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

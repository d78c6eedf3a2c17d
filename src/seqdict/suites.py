"""Named property suites behind `seqdict verify`.

Each suite returns (name, ok, detail) rows; a suite passes when every row is
ok.  These are quick desk-scale re-checks of the library's guarantees, kept
small enough to run in seconds (the test suite runs heavier versions).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

from . import auxstructs, mechanisms, osa, osm, oss, seqopt
from .core import (
    MonotonicityViolation,
    best_sequence,
    check_monotone_exhaustive,
    find_monotonicity_violation,
    is_subsequence,
    oracle_for,
    sequence_welfares,
    social_welfare,
)

Row = tuple  # (name, ok, detail)


def _row(name: str, ok: bool, detail: str = "") -> Row:
    return (name, bool(ok), detail)


def suite_monotonicity(seed: int = 0) -> list:
    rows = []
    families = [
        ("matching", lambda s: osm.osm_oracle(osm.random_matching_instance(4, s))),
        ("arborescence", lambda s: osa.osa_oracle(osa.random_digraph_instance(4, s))),
        ("independent-set", lambda s: auxstructs.osi_oracle(auxstructs.random_osi_instance(4, s))),
    ]
    for name, make in families:
        ok = all(check_monotone_exhaustive(make(seed + k)) for k in range(3))
        rows.append(_row(f"monotone {name} n=4", ok))
    ok = all(check_monotone_exhaustive(
        auxstructs.paths_oracle(auxstructs.random_paths_instance(3, seed + k)))
        for k in range(5))
    rows.append(_row("monotone paths n=3", ok))
    # documented deviation: in-degree rerouting breaks paths monotonicity at n=4
    witness = find_monotonicity_violation(
        auxstructs.paths_oracle(auxstructs.nonmonotone_paths_instance()))
    ok = witness == MonotonicityViolation(2, (1,), (0, 1), 0, 1)
    rows.append(_row("paths rerouting non-monotonicity reproducible at n=4", ok))
    for n, c in [(4, 2), (5, 2)]:
        inst = seqopt.random_lower_bound_instance(n, c, seed + n)
        ok = check_monotone_exhaustive(seqopt.make_lower_bound_oracle(inst))
        rows.append(_row(f"monotone hidden-sequence n={n} c={c}", ok))
    witness = find_monotonicity_violation(oss.oss_oracle(oss.nonmonotone_sat_instance()))
    ok = witness == MonotonicityViolation(2, (1,), (0, 1), 1, 2)
    rows.append(_row("sat non-monotone witness", ok, f"witness={witness}"))
    return rows


def _three_way(inst, from_sequence, candidates, sequence_for, is_pareto) -> bool:
    """Every candidate structure is produced by some sequence, found by the
    producibility search and Pareto optimal, or none of the three."""
    produced = {from_sequence(inst, s) for s in permutations(range(inst.n))}
    for cand in candidates(inst.n):
        by_search = sequence_for(inst, cand) is not None
        by_pareto = is_pareto(inst, cand)
        if not (cand in produced) == by_search == by_pareto:
            return False
    return True


def suite_pareto(seed: int = 0) -> list:
    rows = []
    # built per call, so the module attributes are looked up when the suite runs
    domains = [
        ("matching", 7, osm.random_matching_instance, osm.matching_from_sequence,
         lambda n: permutations(range(n)), osm.sequence_for_matching,
         osm.is_pareto_optimal_matching),
        ("arborescence", 11, osa.random_digraph_instance, osa.arborescence_from_sequence,
         osa.all_arborescences, osa.sequence_for_arborescence,
         osa.is_pareto_optimal_arborescence),
    ]
    for name, stride, make, *wiring in domains:
        for n in (2, 3, 4):
            ok = all(_three_way(make(n, seed + stride * n + k, 6), *wiring)
                     for k in range(3))
            rows.append(_row(f"{name} pareto three-way n={n}", ok))
    return rows


def _within_factor_two(make, seed: int, welfare) -> bool:
    """Whether twice `welfare(oracle)` is at least the best-sequence welfare
    on each of 20 instances `make(3 + k % 3, seed + k)`."""
    ok = True
    for k in range(20):
        inst = make(3 + k % 3, seed + k)
        sw = welfare(oracle_for(inst))
        ok = 2 * sw >= best_sequence(inst)[1] and ok
    return ok


def suite_approx(seed: int = 0) -> list:
    rows = []

    greedy_domains = [("matching", osm.random_matching_instance, osm.greedy_osm),
                      ("arborescence", osa.random_digraph_instance, osa.greedy_osa)]
    for name, make, greedy in greedy_domains:
        ok = _within_factor_two(make, seed, lambda o: social_welfare(o.fresh(), greedy(o)))
        rows.append(_row(f"greedy {name} within factor 2", ok))

    ok = True
    for k in range(4):
        inst = seqopt.random_lower_bound_instance(5, 2, seed + k)
        oracle = seqopt.make_lower_bound_oracle(inst)
        _, opt = best_sequence(inst)
        for c in range(1, 6):
            sw = social_welfare(oracle.fresh(), seqopt.det(oracle.fresh(), c))
            ok = ok and 5 * sw >= c * opt
    rows.append(_row("prefix search det within factor n/c", ok))

    ok = True
    for k in range(10):
        inst = oss.random_sat_instance(4, 8, 3, seed + k)
        oracle = oss.oss_oracle(inst)
        bound = sum(inst.scaled_weights)  # the total weight over the scale
        ok = ok and all(2 * sw >= bound for _, sw in sequence_welfares(oracle))
    rows.append(_row("sat any-sequence within factor 2", ok))
    return rows


def suite_truthful(seed: int = 0) -> list:
    rows = []
    for eps in (Fraction(1, 10), Fraction(1, 100)):
        for ce in mechanisms.counterexample_profiles(eps):
            ok = mechanisms.cycle_mon_violation(ce.run, ce.profile, ce.agent, ce.alt_table)
            rows.append(_row(f"{ce.name} gameable at eps={eps}", ok))

    profile = mechanisms.det_family_profile(4, 2)
    misreports = {0: [mechanisms.det_family_misreport(4, 2)]}
    for label, mech in [("det-plus", mechanisms.VcgDetPlusMechanism(2)),
                        ("rand", mechanisms.VcgRandMechanism(2))]:
        dist = mech.distribution(profile)
        nonneg = all(p >= 0 for _, out in dist for p in out.payments)
        rational = all(mechanisms.expected_utility(dist, i, profile.tables[i]) >= 0
                       for i in range(4))
        report = mechanisms.truthfulness_spotcheck(mech, profile, misreports)
        rows.append(_row(f"vcg {label} payments sane", nonneg and rational))
        rows.append(_row(f"vcg {label} no profitable misreport", report.ok))

    expect = lambda o: sum(social_welfare(o.fresh(), osa.bit(o.n, coin))
                           for coin in (True, False)) / 2
    ok = _within_factor_two(osa.random_digraph_instance, seed + 100, expect)
    rows.append(_row("coin-flip sequence within factor 2 in expectation", ok))
    return rows


def suite_lowerbound(seed: int = 0) -> list:
    rows = []
    for n, c in [(4, 2), (5, 2), (5, 3), (6, 2)]:
        inst = seqopt.random_lower_bound_instance(n, c, seed + 13 * n + c)
        oracle = seqopt.make_lower_bound_oracle(inst)
        hidden_ok = social_welfare(oracle.fresh(), inst.hidden_pi) == n
        miss_ok = True
        score = c * oracle.scale  # a welfare of c, as an int over the scale
        for s, sw in sequence_welfares(oracle.fresh()):
            if is_subsequence(s[:c], inst.hidden_pi):
                miss_ok = miss_ok and sw >= score
            else:
                miss_ok = miss_ok and sw == score
        rows.append(_row(f"hidden-sequence family n={n} c={c}", hidden_ok and miss_ok))
    inst = seqopt.random_lower_bound_instance(4, 2, seed)
    rows.append(_row("hidden-sequence family monotone",
                     check_monotone_exhaustive(seqopt.make_lower_bound_oracle(inst))))
    return rows


def uncoverable_x3c(seed: int) -> oss.SatInstance:
    """The reduction of a drawn uncoverable X3C instance: two 3-element
    subsets of a 6-element universe that share an element."""
    rng = random.Random(seed)
    first = rng.sample(range(6), 3)
    rest = [x for x in range(6) if x not in first]
    return oss.x3c_reduce(6, [first, [rng.choice(first)] + rng.sample(rest, 2)])


def suite_x3c(seed: int = 0) -> list:
    rows = []
    yes = oss.x3c_reduce(3, [(0, 1, 2)])
    # clause count is (t^2 + 7t)/2 + 3q + 1; t(t+7) is always even
    rows.append(_row("cover reduction clause count (q=1,t=1)",
                     len(yes.clauses) == (1 * 1 + 7 * 1) // 2 + 3 * 1 + 1))
    seq = oss.sat_as_decide(yes, (True,) * yes.n)
    ok = seq is not None and oss.assignment_from_sequence(yes, seq) == (True,) * yes.n
    rows.append(_row("coverable universe reaches all-True", ok))
    no = uncoverable_x3c(seed)
    rows.append(_row("uncoverable universe cannot reach all-True",
                     oss.sat_as_decide(no, (True,) * no.n) is None))
    return rows


SUITES = {
    "monotonicity": suite_monotonicity,
    "pareto": suite_pareto,
    "approx": suite_approx,
    "truthful": suite_truthful,
    "lowerbound": suite_lowerbound,
    "x3c": suite_x3c,
}

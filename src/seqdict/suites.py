"""Named property suites behind `seqdict verify`.

Each suite returns (name, ok, detail) rows; a suite passes when every row is
ok.  These are quick desk-scale re-checks of the library's guarantees, kept
small enough to run in seconds (the test suite runs heavier versions).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from . import auxstructs, mechanisms, osa, osm, oss, seqopt
from .core import (
    brute_force_optimal_sequence,
    check_monotone_exhaustive,
    find_monotonicity_violation,
    is_subsequence,
    prefix_of,
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
    ok = (witness is not None
          and witness.agent == 2
          and witness.smaller == (1,) and witness.larger == (0, 1)
          and witness.value_smaller == 0 and witness.value_larger == 1)
    rows.append(_row("paths rerouting non-monotonicity reproducible at n=4", ok))
    for n, c in [(4, 2), (5, 2)]:
        inst = seqopt.random_lower_bound_instance(n, c, seed + n)
        ok = check_monotone_exhaustive(seqopt.make_lower_bound_oracle(inst))
        rows.append(_row(f"monotone hidden-sequence n={n} c={c}", ok))
    witness = find_monotonicity_violation(oss.oss_oracle(oss.nonmonotone_sat_instance()))
    ok = (witness is not None
          and witness.agent == 2
          and witness.smaller == (1,) and witness.larger == (0, 1)
          and witness.value_smaller == 1 and witness.value_larger == 2)
    rows.append(_row("sat non-monotone witness", ok, f"witness={witness}"))
    return rows


def _matchings_three_way(inst) -> bool:
    produced = {osm.matching_from_sequence(inst, s)
                for s in permutations(range(inst.n))}
    for cand in permutations(range(inst.n)):
        by_search = osm.sequence_for_matching(inst, cand) is not None
        by_pareto = osm.is_pareto_optimal_matching(inst, cand)
        if not (cand in produced) == by_search == by_pareto:
            return False
    return True


def _arborescences_three_way(inst) -> bool:
    produced = {osa.arborescence_from_sequence(inst, s)
                for s in permutations(range(inst.n))}
    for cand in osa.all_arborescences(inst.n):
        by_search = osa.sequence_for_arborescence(inst, cand) is not None
        by_pareto = osa.is_pareto_optimal_arborescence(inst, cand)
        if not (cand in produced) == by_search == by_pareto:
            return False
    return True


def suite_pareto(seed: int = 0) -> list:
    rows = []
    for n in (2, 3, 4):
        ok = all(_matchings_three_way(osm.random_matching_instance(n, seed + 7 * n + k, 6))
                 for k in range(3))
        rows.append(_row(f"matching pareto three-way n={n}", ok))
    for n in (2, 3, 4):
        ok = all(_arborescences_three_way(osa.random_digraph_instance(n, seed + 11 * n + k, 6))
                 for k in range(3))
        rows.append(_row(f"arborescence pareto three-way n={n}", ok))
    return rows


def suite_approx(seed: int = 0) -> list:
    rows = []

    ok = True
    for k in range(20):
        inst = osm.random_matching_instance(3 + k % 3, seed + k)
        oracle = osm.osm_oracle(inst)
        sw = social_welfare(oracle.fresh(), osm.greedy_osm(oracle))
        _, opt = brute_force_optimal_sequence(oracle.fresh())
        ok = ok and 2 * sw >= opt
    rows.append(_row("greedy matching within factor 2", ok))

    ok = True
    for k in range(20):
        inst = osa.random_digraph_instance(3 + k % 3, seed + k)
        oracle = osa.osa_oracle(inst)
        sw = social_welfare(oracle.fresh(), osa.greedy_osa(oracle))
        _, opt = brute_force_optimal_sequence(oracle.fresh())
        ok = ok and 2 * sw >= opt
    rows.append(_row("greedy arborescence within factor 2", ok))

    ok = True
    for k in range(4):
        inst = seqopt.random_lower_bound_instance(5, 2, seed + k)
        oracle = seqopt.make_lower_bound_oracle(inst)
        _, opt = brute_force_optimal_sequence(oracle.fresh())
        for c in range(1, 6):
            sw = social_welfare(oracle.fresh(), seqopt.det(oracle.fresh(), c))
            ok = ok and 5 * sw >= c * opt
    rows.append(_row("prefix search det within factor n/c", ok))

    ok = True
    for k in range(10):
        inst = oss.random_sat_instance(4, 8, 3, seed + k)
        oracle = oss.oss_oracle(inst)
        bound = inst.total_weight
        for s in permutations(range(4)):
            ok = ok and 2 * social_welfare(oracle.fresh(), s) >= bound
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
        rational = all(
            sum(pr * (profile.value(i, prefix_of(out.sequence, i)) - out.payments[i])
                for pr, out in dist) >= 0
            for i in range(4))
        report = mechanisms.truthfulness_spotcheck(mech, profile, misreports)
        rows.append(_row(f"vcg {label} payments sane", nonneg and rational))
        rows.append(_row(f"vcg {label} no profitable misreport", report.ok))

    ok = True
    for k in range(20):
        inst = osa.random_digraph_instance(3 + k % 3, seed + 100 + k)
        oracle = osa.osa_oracle(inst)
        n = inst.n
        expect = (social_welfare(oracle.fresh(), osa.bit(n, True))
                  + social_welfare(oracle.fresh(), osa.bit(n, False))) / 2
        _, opt = brute_force_optimal_sequence(oracle.fresh())
        ok = ok and 2 * expect >= opt
    rows.append(_row("coin-flip sequence within factor 2 in expectation", ok))
    return rows


def suite_lowerbound(seed: int = 0) -> list:
    rows = []
    for n, c in [(4, 2), (5, 2), (5, 3), (6, 2)]:
        inst = seqopt.random_lower_bound_instance(n, c, seed + 13 * n + c)
        oracle = seqopt.make_lower_bound_oracle(inst)
        hidden_ok = social_welfare(oracle.fresh(), inst.hidden_pi) == n
        miss_ok = True
        for s in permutations(range(n)):
            sw = social_welfare(oracle.fresh(), s)
            if is_subsequence(s[:c], inst.hidden_pi):
                miss_ok = miss_ok and sw >= c
            else:
                miss_ok = miss_ok and sw == c
        rows.append(_row(f"hidden-sequence family n={n} c={c}", hidden_ok and miss_ok))
    inst = seqopt.random_lower_bound_instance(4, 2, seed)
    rows.append(_row("hidden-sequence family monotone",
                     check_monotone_exhaustive(seqopt.make_lower_bound_oracle(inst))))
    return rows


def suite_x3c(seed: int = 0) -> list:
    rows = []
    yes = oss.x3c_reduce(3, [(0, 1, 2)])
    # clause count is (t^2 + 7t)/2 + 3q + 1; t(t+7) is always even
    rows.append(_row("cover reduction clause count (q=1,t=1)",
                     len(yes.clauses) == (1 * 1 + 7 * 1) // 2 + 3 * 1 + 1))
    seq = oss.sat_as_decide(yes, (True,) * yes.n)
    ok = seq is not None and oss.assignment_from_sequence(yes, seq) == (True,) * yes.n
    rows.append(_row("coverable universe reaches all-True", ok))
    no = oss.x3c_reduce(6, [(0, 1, 2), (2, 3, 4)])
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

"""The four workloads: seeded inputs, one operation, its digest and its oracle.

Inputs are made here from the seed with the benchmark's own generators,
so vetoflow sees only the resulting profiles or text.  Shapes cycle in a
fixed order, so every seed runs the same number of elections of each
shape and only the ballots vary; that keeps run-to-run spread low.

On a 2-vCPU machine with Python 3.11 and no gmpy2, a pass over the full
operation set takes about 35 s on distortion-sweep, 32 s on
distortion-mid and 5 s on electorate-large, so a 30-second run is one
pass on the first two and five or six on the third.  Both distortion workloads keep
as many distinct instances as a run can hold, because their timings vary
more with the instances than with anything else.  ``tiny`` sizes exist
for the self-test only.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Callable

import oracles


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[Any, int, str], list]  # (vf, seed, size) -> inputs
    warmup: Callable[[Any], Any]
    op: Callable[[Any, Any], Any]
    canon: Callable[[Any, Any], str]
    check: Callable[[Any, Any, Any], list[str]]
    # span names that must record calls in the traced pass
    expected_spans: tuple[str, ...]
    corrupt: Callable[[Any, Any], Any] | None = None


def _q(x) -> str:
    if x == float("inf"):
        return "inf"
    return f"{x.numerator}/{x.denominator}"


def _rows(matrix) -> str:
    return ";".join(",".join(_q(v) for v in row) for row in matrix)


def ic_rankings(rng: random.Random, n: int, m: int) -> list[tuple[int, ...]]:
    out = []
    for _ in range(n):
        ballot = list(range(m))
        rng.shuffle(ballot)
        out.append(tuple(ballot))
    return out


def euclidean_instance(rng: random.Random, n: int, m: int, grid: int = 1000):
    """Voters and candidates on a 1/grid lattice in the unit square, with
    Chebyshev distances; ballots rank by distance, ties by index."""
    def point():
        return Fraction(rng.randrange(grid + 1), grid), Fraction(rng.randrange(grid + 1), grid)

    voters = [point() for _ in range(n)]
    cands = [point() for _ in range(m)]
    dist = [[max(abs(vx - cx), abs(vy - cy)) for cx, cy in cands] for vx, vy in voters]
    rankings = [tuple(sorted(range(m), key=lambda c: (dist[i][c], c))) for i in range(n)]
    return rankings, dist


def _is_inf(vf):
    return lambda v: v == vf.distortion.INFINITE


def _corrupt_result(vf, result):
    """Move one certificate entry so the value no longer matches it."""
    if result.certificate is None:
        return None
    rows = [list(row) for row in result.certificate.values]
    rows[0][result.candidate] += 1
    matrix = vf.distortion.DistanceMatrix(tuple(tuple(r) for r in rows))
    return replace(result, certificate=matrix)


# ---------------------------------------------------------------- distortion-sweep
# Many small LPs, the shape of ``vetoflow audit distortion3`` and criteria 4
# and 9: per-LP costs (row materialization, violation scans) dominate, and
# this is the only workload that runs the clone rules.

SWEEP_SIZES = {"full": (5, 5, 400), "tiny": (3, 3, 9)}
SWEEP_POOL = 8  # elections drawn per election kept


def sweep_generate(vf, seed, size):
    """Election k has shape k mod 25.  Per shape, draw ``SWEEP_POOL`` times
    the elections needed, order them by their number of matching winners
    (the benchmark's own brute force) and keep every ``SWEEP_POOL``-th.
    Every motivated winner is a matching winner and costs one distortion
    call, so this systematic sample keeps the IC mix of LPs per election
    while most of its seed-to-seed variation, which would swamp the
    timings, goes away."""
    nmax, mmax, count = SWEEP_SIZES[size]
    rng = random.Random(seed)
    shapes = [(n, m) for n in range(1, nmax + 1) for m in range(1, mmax + 1)]
    kept = []
    for s, (n, m) in enumerate(shapes):
        need = len(range(s, count, len(shapes)))
        pool = [ic_rankings(rng, n, m) for _ in range(need * SWEEP_POOL)]
        pool.sort(key=lambda r: len(oracles.matching_winners_bruteforce(r, m)))
        chosen = pool[rng.randrange(SWEEP_POOL)::SWEEP_POOL]
        rng.shuffle(chosen)
        kept.append(chosen)
    return [
        vf.profiles.PreferenceProfile.of(kept[k % len(shapes)][k // len(shapes)])
        for k in range(count)
    ]


def sweep_op(vf, p):
    R, D = vf.rules, vf.distortion
    matching = R.plurality_matching_winners(p)
    veto = R.plurality_veto(p)
    composite = R.composite_distortion_rule(p)
    results = []
    for c in sorted(matching | {veto, composite}):
        r = D.distortion_of_candidate(p, c)
        verified = full = None
        if r.value != D.INFINITE:
            verified = D.verify_certificate(p, r)
            if r.certificate is not None:
                full = D.extend_to_full_pseudometric(r.certificate, p)
        results.append([r, verified, full])
    return matching, veto, composite, results


def sweep_canon(vf, out):
    matching, veto, composite, results = out
    parts = [",".join(map(str, sorted(matching))), str(veto), str(composite)]
    for r, verified, _ in results:
        cert = "" if r.certificate is None else _rows(r.certificate.values)
        parts.append(f"{r.candidate}:{_q(r.value)}:{r.reference}:{verified}:{cert}")
    return "|".join(parts)


def sweep_check(vf, p, out):
    matching, veto, composite, results = out
    bad = []
    if matching != oracles.matching_winners_bruteforce(p.rankings, p.m):
        bad.append("matching winners differ from the Hall brute force")
    if veto not in matching:
        bad.append("plurality-veto winner is not a matching winner")
    if [r.candidate for r, _, _ in results] != sorted(matching | {veto, composite}):
        bad.append("distortion was not computed for every motivated winner")
    for r, verified, full in results:
        if r.value == vf.distortion.INFINITE or r.value > 3:
            bad.append(f"motivated winner {r.candidate} has distortion above 3")
            continue
        bad += oracles.distortion_problems(p.rankings, p.m, r.candidate, r, _is_inf(vf))
        if verified is not True:
            bad.append("verify_certificate rejected the result")
        if r.certificate is not None:
            bad += oracles.pseudometric_problems(full, r.certificate.values, p.n, p.m)
    return bad


def sweep_corrupt(vf, out):
    for item in out[3]:
        bad = _corrupt_result(vf, item[0])
        if bad is not None:
            item[0] = bad
            return out
    return None


def sweep_warmup(vf):
    p = vf.profiles.PreferenceProfile.of([(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1)])
    return sweep_op(vf, p)


# ---------------------------------------------------------------- distortion-mid
# One distortion LP per operation at n*m of 20 or 21, where dense Fraction
# pivoting dominates as in the 4x25 LP of criterion 10, scaled down to fit
# the repetition budget.  Euclidean instances bring a real metric, which
# bounds the value from below.

MID_SIZES = {"full": ([(5, 4), (4, 5), (3, 7), (2, 10)], 120), "tiny": ([(2, 3), (3, 3)], 4)}


@dataclass(frozen=True)
class MidInput:
    profile: Any
    candidate: int
    distances: list | None  # the generating metric for Euclidean instances


def mid_generate(vf, seed, size):
    shapes, count = MID_SIZES[size]
    rng = random.Random(seed)
    out = []
    for k in range(count):
        n, m = shapes[k % len(shapes)]
        if (k // len(shapes)) % 2 == 0:
            rankings, dist = ic_rankings(rng, n, m), None
        else:
            rankings, dist = euclidean_instance(rng, n, m)
        out.append(MidInput(vf.profiles.PreferenceProfile.of(rankings), rng.randrange(m), dist))
    return out


def mid_op(vf, x):
    return vf.distortion.distortion_of_candidate(x.profile, x.candidate)


def mid_canon(vf, r):
    if r.value == vf.distortion.INFINITE:
        return f"{r.candidate}:inf:{r.reference}:{','.join(map(_q, r.ray))}"
    cert = "" if r.certificate is None else _rows(r.certificate.values)
    return f"{r.candidate}:{_q(r.value)}:{r.reference}:{cert}"


def mid_check(vf, x, r):
    p, inf = x.profile, _is_inf(vf)
    bad = oracles.distortion_problems(p.rankings, p.m, x.candidate, r, inf)
    bad += oracles.highs_problems(p.rankings, p.m, x.candidate, r.value, inf)
    if x.distances is not None:
        bad += oracles.metric_problems(x.distances, x.candidate, r.value, inf)
    return bad


def mid_warmup(vf):
    p = vf.profiles.PreferenceProfile.of([(0, 1, 2), (2, 1, 0)])
    return vf.distortion.distortion_of_candidate(p, 1)


# ---------------------------------------------------------------- audit-equivalence
# The shape of ``vetoflow audit equivalence`` and criterion 1: thousands of
# tiny max-flow networks plus the brute-force oracles, no LP.  Matching and
# axioms in the per-call-overhead regime, the opposite of electorate-large.

AUDIT_SIZES = {"full": ((3, 3), 6, 5, 3000), "tiny": ((2, 2), 3, 3, 20)}


def audit_generate(vf, seed, size):
    (en, em), nmax, mmax, count = AUDIT_SIZES[size]
    rng = random.Random(seed)
    P = vf.profiles.PreferenceProfile
    perms = list(itertools.permutations(range(em)))
    family = [P.of(combo) for combo in itertools.product(perms, repeat=en)]
    shapes = [(n, m) for n in range(1, nmax + 1) for m in range(1, mmax + 1)]
    family += [
        P.of(ic_rankings(rng, *shapes[k % len(shapes)])) for k in range(count - len(family))
    ]
    rng.shuffle(family)
    return family


def audit_op(vf, p):
    return vf.axioms.equivalence_audit([p])


def audit_canon(vf, report):
    return json.dumps(report.to_json(), sort_keys=True)


def audit_check(vf, p, report):
    bad = []
    if not report.ok:
        bad.append("audit found a discrepancy or an empty core")
    if report.instances != 1 or report.checks != p.m:
        bad.append(f"audit counted {report.instances} elections and {report.checks} checks")
    return bad


def audit_warmup(vf):
    p = vf.profiles.PreferenceProfile.of([(0, 1, 2), (1, 2, 0), (2, 0, 1)])
    return audit_op(vf, p)


# ---------------------------------------------------------------- electorate-large
# Few, large elections fed as count lines: the eating loop and max flow run
# over n voters sharing at most m! ballots, which is where ballot-type
# compression has to show.  The clone rules stay out: plurality matching
# winners alone take seconds at a few hundred voters.

LARGE_SIZES = {"full": (3000, 5, 8), "tiny": (60, 4, 2)}
LARGE_K = 2


@dataclass(frozen=True)
class LargeInput:
    text: str
    n: int
    m: int
    types: list  # (0-based ranking, multiplicity), sorted by ranking


def count_lines(types) -> str:
    """Count-line text, most frequent ballot first, candidates 1-based."""
    ordered = sorted(types, key=lambda t: (-t[1], t[0]))
    return "".join(f"{w}: {','.join(str(c + 1) for c in r)}\n" for r, w in ordered)


def large_generate(vf, seed, size):
    n, m, count = LARGE_SIZES[size]
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        types = oracles.type_counts(ic_rankings(rng, n, m))
        out.append(LargeInput(count_lines(types), n, m, types))
    return out


def large_op(vf, x):
    E, A = vf.eating, vf.axioms
    p = vf.profile_io.parse_profile(x.text)
    winners = E.veto_by_consumption_winners(p)
    committee = E.phragmen_committee(p, LARGE_K)
    shares = E.probabilistic_serial(p)
    core = A.veto_core(p)
    psc = A.weak_psc_satisfied(p, committee)
    pareto = A.pareto_matching_criterion(p, min(winners))
    return p, winners, committee, shares, core, psc, pareto


def large_canon(vf, out):
    p, winners, committee, shares, core, psc, (ok, matching) = out
    share_digest = hashlib.sha256(
        ";".join(",".join(map(_q, row)) for row in shares.shares).encode()
    ).hexdigest()
    viol = psc.violation
    viol_text = "" if viol is None else (
        f"{sorted(viol.prefix_set)}/{sorted(viol.supporters)}/{viol.alternative}"
    )
    return "|".join([
        f"{p.n}x{p.m}",
        ",".join(map(str, sorted(winners))),
        ",".join(map(str, committee)),
        share_digest,
        ",".join(map(str, sorted(core))),
        f"{psc.satisfied}:{viol_text}",
        f"{ok}:{sorted(matching.items()) if matching else None}",
    ])


def large_check(vf, x, out):
    p, winners, committee, shares, core, psc, (ok, matching) = out
    if p.n != x.n or p.m != x.m or oracles.type_counts(p.rankings) != x.types:
        return ["parsed profile differs from the generated ballots"]
    n, m, types = x.n, x.m, x.types
    bad = []

    batches, survivors, _ = oracles.eat_by_types(types, m, False, stop_eliminations=m - 1)
    expect = survivors or frozenset(batches[-1])
    if winners != expect:
        bad.append(f"veto-by-consumption winners {sorted(winners)}, eating gives {sorted(expect)}")
    batches, _, _ = oracles.eat_by_types(types, m, True, stop_eliminations=LARGE_K)
    if tuple(itertools.chain(*batches))[:LARGE_K] != tuple(committee):
        bad.append("sequential committee differs from eating by ballot type")

    k = min(n, m)
    _, _, eaten = oracles.eat_by_types(types, m, True, stop_time=Fraction(k, n))
    row_of = {r: tuple(row) for (r, _), row in zip(types, eaten)}
    if any(tuple(row) != row_of[r] for r, row in zip(p.rankings, shares.shares)):
        bad.append("probabilistic-serial shares differ from eating by ballot type")
    if any(sum(row) != Fraction(k, n) for row in shares.shares):
        bad.append("a probabilistic-serial row does not sum to k/n")
    if any(sum(row[c] for row in shares.shares) > 1 for c in range(m)):
        bad.append("a probabilistic-serial column exceeds 1")

    expect_core = oracles.core_by_types(types, n, m)
    if core != expect_core:
        bad.append(f"veto core {sorted(core)}, max flow by type gives {sorted(expect_core)}")
    if not core:
        bad.append("veto core is empty")
    if not winners <= core:
        bad.append("a consumption winner lies outside the veto core")

    W = frozenset(committee)
    if psc.satisfied != oracles.psc_by_types(types, n, m, W):
        bad.append("PSC verdict differs from max flow by type")
    if psc.violation is not None:
        bad += oracles.psc_violation_problems(p.rankings, n, W, len(W), psc.violation)

    bad += oracles.pareto_problems(types, p.rankings, m, min(winners), ok, matching)
    return bad


def large_warmup(vf):
    types = [(r, 1) for r in itertools.permutations(range(4))]
    return large_op(vf, LargeInput(count_lines(types), 24, 4, types))


# ---------------------------------------------------------------- registry

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "distortion-sweep",
            sweep_generate, sweep_warmup, sweep_op, sweep_canon, sweep_check,
            ("rules", "profiles", "profiles.clone_expand", "matching.graph", "matching.flow",
             "eating.run", "distortion.op", "distortion.build_lp", "lp.solve", "distortion.verify"),
            sweep_corrupt,
        ),
        Workload(
            "distortion-mid",
            mid_generate, mid_warmup, mid_op, mid_canon, mid_check,
            ("distortion.op", "distortion.build_lp", "lp.solve"),
            _corrupt_result,
        ),
        Workload(
            "audit-equivalence",
            audit_generate, audit_warmup, audit_op, audit_canon, audit_check,
            ("axioms.audit", "axioms.bruteforce", "axioms.psc", "axioms.pareto", "profiles",
             "matching.graph", "matching.flow", "matching.bipartite"),
        ),
        Workload(
            "electorate-large",
            large_generate, large_warmup, large_op, large_canon, large_check,
            ("profile_io.parse", "eating.front", "eating.run", "axioms.core", "matching.witness",
             "matching.graph", "matching.flow", "axioms.psc", "profiles", "axioms.pareto",
             "matching.bipartite"),
        ),
    ]
}

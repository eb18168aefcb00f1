import dataclasses
import hashlib
import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from vetoflow import cli
from vetoflow.distortion import (
    INFINITE,
    DistortionResult,
    LpSizeError,
    build_lp,
    distortion_of_candidate,
    extend_to_full_pseudometric,
    verify_certificate,
)
from vetoflow.lp import LinearConstraint, LinearProgram, solve_lp
from vetoflow.profile_io import DistanceMatrix, gen_impartial_culture, serialize_profile
from vetoflow.profiles import PreferenceProfile
from tests_support_lp import ListedRows, excess
from tests_support_oracles import fraction_check, triangle_violations
from tests_support_random import random_profile, random_profiles


def per_voter_lp(p: PreferenceProfile, c: int, cref: int) -> LinearProgram:
    """The distortion LP over the distances d[i*m + a], every row stored:
    the ballot rows and the normalization row, then the quadrangle rows in
    (i, j, a, b) order as a listed family.  It shares no coordinates with
    ``build_lp``, so it is an oracle for values and references."""
    n, m = p.n, p.m
    rows = []
    quadrangles = []
    for i, ranking in enumerate(p.rankings):
        for a, b in zip(ranking, ranking[1:]):
            rows.append(LinearConstraint({i * m + a: 1, i * m + b: -1}, 0))
    for i, j, a, b in itertools.product(range(n), range(n), range(m), range(m)):
        coeffs: dict[int, int] = {}
        for var, delta in ((i * m + a, 1), (i * m + b, -1), (j * m + b, -1), (j * m + a, -1)):
            coeffs[var] = coeffs.get(var, 0) + delta
        coeffs = {v: x for v, x in coeffs.items() if x != 0}
        # i=j and a=b rows collapse to consequences of d >= 0
        if all(x < 0 for x in coeffs.values()):
            continue
        quadrangles.append(LinearConstraint(coeffs, 0))
    rows.append(LinearConstraint({i * m + cref: 1 for i in range(n)}, 1))
    objective = tuple(int(a == c) for i in range(n) for a in range(m))
    return LinearProgram(objective, tuple(rows), ListedRows(quadrangles))


def gap_terms(p: PreferenceProfile, i: int, a: int) -> list[int]:
    """The gap variables whose sum is d(i, a): voter i's first
    ``ranking.index(a) + 1`` gaps."""
    return [i * p.m + l for l in range(p.rankings[i].index(a) + 1)]


def gaps_to_distances(p: PreferenceProfile, vector) -> tuple[tuple[F, ...], ...]:
    return tuple(
        tuple(sum((vector[v] for v in gap_terms(p, i, a)), F(0)) for a in range(p.m))
        for i in range(p.n)
    )


def materialized_quadrangles(
    p: PreferenceProfile,
) -> list[tuple[tuple[int, int, int, int], LinearConstraint]]:
    """Every quadrangle row over gap variables with its key (i, j, a, b), in
    key order, each the sum of its four distances' gap terms."""
    n, m = p.n, p.m
    out = []
    for i, j, a, b in itertools.product(range(n), range(n), range(m), range(m)):
        coeffs: dict[int, int] = {}
        for (k, e), delta in (((i, a), 1), ((i, b), -1), ((j, b), -1), ((j, a), -1)):
            for var in gap_terms(p, k, e):
                coeffs[var] = coeffs.get(var, 0) + delta
        coeffs = {v: x for v, x in coeffs.items() if x != 0}
        # rows without a positive coefficient are consequences of g >= 0
        if all(x < 0 for x in coeffs.values()):
            continue
        out.append(((i, j, a, b), LinearConstraint(coeffs, 0)))
    return out


class PerPairRows(ListedRows):
    """Stored quadrangle rows that offer one row per ordered voter pair: of
    the pair's violated rows, the one with the largest excess, ties to the
    smallest index; most violated first, ties to the smallest index."""

    def __init__(self, keyed) -> None:
        super().__init__([row for _, row in keyed])
        self.pairs = [key[:2] for key, _ in keyed]

    def violated(self, vector):
        seen = set()
        out = []
        for _, index in self.ranked(vector):
            if self.pairs[index] not in seen:
                seen.add(self.pairs[index])
                out.append(self.constraints[index])
        return out


def materialized_lp(p: PreferenceProfile, c: int, cref: int) -> LinearProgram:
    """The distortion LP over gap variables with every quadrangle row stored:
    the normalization row, then the quadrangle rows in (i, j, a, b) order as
    a family that offers one row per voter pair.  The reference for
    ``build_lp``'s implicit family."""
    n, m = p.n, p.m
    quadrangles = PerPairRows(materialized_quadrangles(p))
    normalization = LinearConstraint(
        {v: 1 for i in range(n) for v in gap_terms(p, i, cref)}, 1
    )
    objective = [0] * (n * m)
    for i in range(n):
        for v in gap_terms(p, i, c):
            objective[v] = 1
    return LinearProgram(tuple(objective), (normalization,), quadrangles)


def materialized_distortion(p: PreferenceProfile, c: int) -> DistortionResult:
    """``distortion_of_candidate`` for m > 1, solving ``materialized_lp``."""
    best = None
    for cref in range(p.m):
        if cref == c:
            continue
        sol = solve_lp(materialized_lp(p, c, cref))
        if sol.status == "unbounded":
            ray = tuple(v for row in gaps_to_distances(p, sol.ray) for v in row)
            return DistortionResult(c, INFINITE, cref, None, ray)
        if best is None or sol.value > best.value:
            matrix = DistanceMatrix(gaps_to_distances(p, sol.x))
            best = DistortionResult(c, sol.value, cref, matrix, None)
    return best


def per_voter_value(p: PreferenceProfile, c: int) -> tuple[F | float, int]:
    """Value and reference of candidate c (m > 1) from ``per_voter_lp``."""
    best = None
    for cref in range(p.m):
        if cref == c:
            continue
        sol = solve_lp(per_voter_lp(p, c, cref))
        if sol.status == "unbounded":
            return INFINITE, cref
        if best is None or sol.value > best[0]:
            best = sol.value, cref
    return best


def test_split_profile_both_candidates_hit_three(fix_s):
    for c in (0, 1):
        r = distortion_of_candidate(fix_s, c)
        assert r.value == F(3)
        assert r.reference == 1 - c
        assert verify_certificate(fix_s, r)


def test_split_profile_certificate_values(fix_s):
    r = distortion_of_candidate(fix_s, 0)
    assert r.certificate.values == ((F(1), F(1)), (F(2), F(0)))


def test_unanimous_profile(fix_u):
    r = distortion_of_candidate(fix_u, 0)
    assert r.value == F(1)
    assert verify_certificate(fix_u, r)
    r = distortion_of_candidate(fix_u, 1)
    assert r.value == INFINITE
    assert r.certificate is None and r.reference == 0
    # voters sit at 0 from a and at equal positive distance from b
    assert r.ray is not None and r.ray[0] == r.ray[2] == 0 and r.ray[1] == r.ray[3] > 0
    assert verify_certificate(fix_u, r)


def test_single_candidate_is_one_by_convention():
    p = PreferenceProfile.of([(0,)])
    r = distortion_of_candidate(p, 0)
    assert r.value == F(1)
    assert r.reference is None and r.certificate is None
    assert verify_certificate(p, r)


@pytest.mark.parametrize("rankings, c", [
    ([(0, 1, 2), (1, 0, 2), (2, 1, 0)], -1),
    ([(0, 1, 2), (1, 0, 2), (2, 1, 0)], 3),
    ([(0,)], 1),
], ids=["negative", "m", "single-candidate"])
def test_candidate_outside_the_profile_is_refused(rankings, c):
    # a negative index would wrap to the last candidate's LP variables
    with pytest.raises(ValueError, match=f"candidate {c} is not in 0.."):
        distortion_of_candidate(PreferenceProfile.of(rankings), c)


def test_audit_distortion3_reports_each_winner_above_3_and_exits_1(monkeypatch, capsys):
    # the stub puts candidate 0 above the bound and every other winner on it
    calls = []

    def stub(p, c):
        calls.append((p, c))
        return DistortionResult(c, F(7, 2) if c == 0 else F(3), None, None, None)

    monkeypatch.setattr(cli, "distortion_of_candidate", stub)
    code = cli.main(["audit", "distortion3", "--trials", "6", "--nmax", "3", "--mmax", "3"])
    failed = [(p, c) for p, c in calls if c == 0]
    assert 0 < len(failed) < len(calls)
    assert code == 1 and capsys.readouterr().out.splitlines() == [
        f"checked={len(calls)} failures={len(failed)}",
        *(f"FAILURE {dict(profile=serialize_profile(p), candidate=p.candidate_names[c], value='7/2')}"
          for p, c in failed)]


def test_single_voter():
    p = PreferenceProfile.of([(0, 1)])
    assert distortion_of_candidate(p, 0).value == F(1)
    assert distortion_of_candidate(p, 1).value == INFINITE


def test_lp_shape_on_split_profile(fix_s):
    lp = build_lp(fix_s, 0, 1)
    assert lp.num_vars == 4
    # voter 0 ranks a, b and voter 1 ranks b, a: d(0, b) = g0 + g1 and
    # d(1, b) = g2, so the one explicit row is d(0, b) + d(1, b) <= 1;
    # ballot order is g >= 0 and the quadrangles are implicit
    assert lp.constraints == (LinearConstraint({0: 1, 1: 1, 2: 1}, 1),)
    # d(0, a) = g0 and d(1, a) = g2 + g3
    assert lp.objective == (1, 0, 1, 1)
    # only (i, j, a, b) with a below b for voter i have a positive
    # coefficient; at this signed direction both have excess 2, so they
    # come in key order: (0, 1, 1, 0), then (1, 0, 0, 1)
    vector = [-1, 1, -1, 1, 0]
    listed = lp.implicit.violated(vector)
    assert [excess(row, vector) for row in listed] == [2, 2]
    # d(0,b) - d(0,a) - d(1,a) - d(1,b) = g1 - (g2 + g3) - g2, and
    # d(1,a) - d(1,b) - d(0,b) - d(0,a) = g3 - (g0 + g1) - g0
    assert listed == [
        LinearConstraint({1: 1, 2: -2, 3: -1}, 0),
        LinearConstraint({3: 1, 0: -2, 1: -1}, 0),
    ]
    reference = materialized_lp(fix_s, 0, 1)
    assert reference.constraints == lp.constraints
    assert reference.objective == lp.objective
    assert tuple(listed) == reference.implicit.constraints


def test_vacuous_quadrangle_rows_are_dropped(fix_s):
    for lp in (materialized_lp(fix_s, 0, 1), per_voter_lp(fix_s, 0, 1)):
        for row in lp.implicit.constraints:
            assert any(x > 0 for x in row.coeffs.values())


def random_vectors(rng: random.Random, p: PreferenceProfile, count: int) -> list[list[int]]:
    """Points (nonnegative numerators over a denominator) and directions
    (signed cells and a zero right-hand side), about half each."""
    out = []
    for _ in range(count):
        if rng.random() < 0.5:
            out.append([rng.randint(0, 6) for _ in range(p.n * p.m)] + [-rng.randint(1, 4)])
        else:
            out.append([rng.randint(-4, 4) for _ in range(p.n * p.m)] + [0])
    return out


def bound_vectors(rng: random.Random, p: PreferenceProfile) -> list[list[int]]:
    """Vectors at the pair bound excess <= spread_i - 2 min_j (n, m > 1).

    Voter 0 sits at 0 from every candidate but its last, at 2k from that,
    and every other voter at k from all: the best excess is exactly 0, so
    nothing is offered.  One more unit at voter 0's last gap offers one row
    of excess 1 per other voter.  Then voter 0 all zero, at a point and on a
    ray with signed cells."""
    n, m = p.n, p.m
    k = rng.randint(1, 3)
    others = ([k] + [0] * (m - 1)) * (n - 1)
    tie = [0] * (m - 1) + [2 * k] + others + [-rng.randint(1, 4)]
    over = [0] * (m - 1) + [2 * k + 1] + others + [-rng.randint(1, 4)]
    point = [0] * m + [rng.randint(0, 6) for _ in range((n - 1) * m)] + [-rng.randint(1, 4)]
    ray = [0] * m + [rng.randint(-4, 4) for _ in range((n - 1) * m)] + [0]
    return [tie, over, point, ray]


def test_no_row_at_the_pair_bound():
    rng = random.Random(27)
    for p in random_profiles(60, seed=272, nmax=5, mmax=5):
        if p.n == 1 or p.m == 1:
            continue
        family = build_lp(p, 0, p.m - 1).implicit
        tie, over = bound_vectors(rng, p)[:2]
        assert family.violated(tie) == []
        assert [excess(row, over) for row in family.violated(over)] == [1] * (p.n - 1)


def canon(row: LinearConstraint) -> tuple:
    return tuple(sorted(row.coeffs.items())), row.rhs


def test_quadrangle_separation_matches_the_reference():
    # the family offers, per ordered voter pair, the stored row of largest
    # excess, ties to the smallest key; most violated first, ties to the
    # smallest key
    rng = random.Random(8)
    for p in random_profiles(80, seed=123, nmax=5, mmax=5):
        lp = build_lp(p, 0, p.m - 1)
        keyed = materialized_quadrangles(p)
        rows = dict(keyed)
        vectors = random_vectors(rng, p, 6)
        if p.n > 1 and p.m > 1:
            vectors += bound_vectors(rng, p)
        for vector in vectors:
            by_pair: dict[tuple[int, int], list] = {}
            for key, row in keyed:
                e = excess(row, vector)
                if e > 0:
                    by_pair.setdefault(key[:2], []).append((-e, key))
            expected = sorted(min(offers) for offers in by_pair.values())
            got = lp.implicit.violated(vector)
            assert got == [rows[key] for _, key in expected]
            assert [-excess(row, vector) for row in got] == [e for e, _ in expected]


def test_quadrangle_separation_offers_one_row_per_pair():
    # the row-family contract both families keep: some violated row exactly
    # when any row is violated, at most one per ordered voter pair, each
    # with positive excess, most violated first, ties to the smallest key
    rng = random.Random(19)
    for p in random_profiles(60, seed=321, nmax=5, mmax=5):
        keyed = materialized_quadrangles(p)
        key_of = {canon(row): key for key, row in keyed}
        assert len(key_of) == len(keyed)
        families = (build_lp(p, 0, p.m - 1).implicit, materialized_lp(p, 0, p.m - 1).implicit)
        vectors = random_vectors(rng, p, 8)
        if p.n > 1 and p.m > 1:
            vectors += bound_vectors(rng, p)
        for vector in vectors:
            anything = any(excess(row, vector) > 0 for _, row in keyed)
            for family in families:
                got = family.violated(vector)
                assert bool(got) == anything, (p.rankings, vector)
                offers = [(-excess(row, vector), key_of[canon(row)]) for row in got]
                assert all(e < 0 for e, _ in offers)
                assert offers == sorted(set(offers))
                pairs = [key[:2] for _, key in offers]
                assert len(pairs) == len(set(pairs))


def reference_bound(p: PreferenceProfile, c: int, r: int) -> F | float:
    """2n/s - 1 with s the voters who rank c above r; infinity for s = 0."""
    s = sum(pos[c] < pos[r] for pos in p.positions())
    return F(2 * p.n, s) - 1 if s else INFINITE


class CountedRows:
    """A row family that counts the rows it offers; the solver activates
    every one."""

    def __init__(self, family) -> None:
        self.family = family
        self.offered = 0

    def violated(self, vector):
        rows = self.family.violated(vector)
        self.offered += len(rows)
        return rows


def test_the_4x25_lp_activates_few_rows(monkeypatch):
    # the 100-variable LP of criterion 10 (IC seed 3, candidate 0): one row
    # per voter pair and round activates 217 rows over the 12 references
    # solved (368 over all 24); offering the 100 most violated rows overall
    # activated 8756
    families = {}

    def counted_lp(p, c, cref):
        lp = build_lp(p, c, cref)
        families[cref] = CountedRows(lp.implicit)
        return dataclasses.replace(lp, implicit=families[cref])

    monkeypatch.setattr("vetoflow.distortion.build_lp", counted_lp)
    q = gen_impartial_culture(4, 25, seed=3)
    r = distortion_of_candidate(q, 0, size_cap=100)
    assert (r.value, r.reference) == (3, 10)
    assert verify_certificate(q, r)
    # 12 of the 24 references are solved; each skipped one is ranked below
    # an earlier reference by all four voters, or its bound 2n/s - 1 (s
    # voters rank the candidate above it) cannot beat value 3 at reference
    # 10: it is below 3, or equal at a larger index
    assert len(families) == 12
    pos = q.positions()
    for skipped in set(range(1, 25)) - set(families):
        bound = reference_bound(q, 0, skipped)
        assert any(all(row[a] < row[skipped] for row in pos) for a in range(1, skipped)) or (
            bound < 3 or bound == 3 and skipped > 10
        ), skipped
    assert sum(f.offered for f in families.values()) <= 1000


@pytest.fixture(scope="module")
def exhaustive_results() -> list[tuple[PreferenceProfile, DistortionResult]]:
    """The distortion of every candidate of every 3x3 profile."""
    profiles = [
        PreferenceProfile.of(rankings)
        for rankings in itertools.product(itertools.permutations(range(3)), repeat=3)
    ]
    assert len(profiles) == 216
    return [(p, distortion_of_candidate(p, c)) for p in profiles for c in range(3)]


def test_separated_lp_matches_the_materialized_lp(exhaustive_results):
    # same value, reference, certificate and ray: the solver takes the same
    # rows in the same order whether they are stored or separated
    for p, r in exhaustive_results:
        assert r == materialized_distortion(p, r.candidate)
    rng = random.Random(3)
    for p in random_profiles(60, seed=606, nmax=4, mmax=4):
        if p.m == 1:
            continue
        c = rng.randrange(p.m)
        assert distortion_of_candidate(p, c) == materialized_distortion(p, c), p.rankings


def solved_references(monkeypatch) -> list[list]:
    """Patch the solver so that each LP ``distortion_of_candidate`` solves
    appends [reference, status, value]."""
    solved = []

    def traced_build(p, c, cref):
        solved.append([cref])
        return build_lp(p, c, cref)

    def traced_solve(lp):
        sol = solve_lp(lp)
        solved[-1] += [sol.status, sol.value]
        return sol

    monkeypatch.setattr("vetoflow.distortion.build_lp", traced_build)
    monkeypatch.setattr("vetoflow.distortion.solve_lp", traced_solve)
    return solved


def test_skipping_dominated_references_changes_no_result(monkeypatch):
    # the materialized loop solves every reference; on two and three voters
    # many references are ranked below an earlier one by every voter
    solved = solved_references(monkeypatch)
    rng = random.Random(17)
    lps = skipped = 0
    for n, m in itertools.product((2, 3), range(2, 11)):
        for _ in range(3):
            p = PreferenceProfile.of([tuple(rng.sample(range(m), m)) for _ in range(n)])
            c = rng.randrange(m)
            solved.clear()
            r = distortion_of_candidate(p, c)
            assert r == materialized_distortion(p, c), (p.rankings, c)
            lps += m - 1
            skipped += m - 1 - len(solved)
    # 84 of the 270 references
    assert skipped >= lps // 4


# the first maximizing reference has bound 2n/s - 1 equal to the maximum
# and is solved after a larger-indexed maximizer of larger bound
BOUND_TIES = [
    ([(2, 3, 1, 0), (0, 1, 2, 3), (1, 0, 2, 3)], 3, 5, [0, 1, 2]),
    ([(0, 3, 2, 1), (0, 2, 1, 3), (2, 1, 3, 0), (1, 3, 0, 2)], 1, 3, [0, 2]),
    ([(0, 2, 3, 1, 4), (1, 2, 3, 4, 0), (2, 4, 0, 3, 1), (1, 3, 2, 4, 0)], 0, 3, [1, 2, 3, 4]),
]


def test_bound_skipping_changes_no_result(monkeypatch):
    # the materialized loop solves every reference in index order
    solved = solved_references(monkeypatch)
    rng = random.Random(18)
    cases = [(PreferenceProfile.of(rankings), c) for rankings, c, *_ in BOUND_TIES]
    for n, m in itertools.product(range(2, 6), range(2, 11)):
        for _ in range(2):
            p = PreferenceProfile.of([tuple(rng.sample(range(m), m)) for _ in range(n)])
            cases.append((p, rng.randrange(m)))
    lps = skipped = 0
    for p, c in cases:
        solved.clear()
        r = distortion_of_candidate(p, c)
        assert r == materialized_distortion(p, c), (p.rankings, c)
        lps += p.m - 1
        skipped += p.m - 1 - len(solved)
    # 232 of the 370 references, by dominance or by bound
    assert skipped >= lps // 2
    for (rankings, c, top, maximizers), (p, _) in zip(BOUND_TIES, cases):
        values = {r: solve_lp(build_lp(p, c, r)).value for r in range(p.m) if r != c}
        assert [r for r in values if values[r] == top] == maximizers
        assert reference_bound(p, c, maximizers[0]) == top
        assert any(reference_bound(p, c, r) > top for r in maximizers[1:])


def test_a_reference_below_another_reference_is_not_solved(monkeypatch):
    solved = solved_references(monkeypatch)
    # both voters rank 0 above 2: only reference 0 is solved for candidate 1
    p = PreferenceProfile.of([(0, 1, 2), (1, 0, 2)])
    r = distortion_of_candidate(p, 1)
    assert [ref for ref, *_ in solved] == [0]
    assert r == materialized_distortion(p, 1)
    # only the candidate is above reference 1, so its bound 2n/s - 1 is 1;
    # reference 2 (s = 1, bound 3) is solved first at value 3, and
    # reference 1 cannot beat it
    solved.clear()
    p = PreferenceProfile.of([(0, 1, 2), (2, 0, 1)])
    r = distortion_of_candidate(p, 0)
    assert solved == [[2, "optimal", 3]]
    assert r == materialized_distortion(p, 0)
    # with no incumbent a reference that only the candidate dominates is
    # solved, worth 1; reference 2 then ties it at bound 1 with a larger
    # index
    solved.clear()
    p = PreferenceProfile.of([(0, 1, 2), (0, 1, 2)])
    r = distortion_of_candidate(p, 0)
    assert solved == [[1, "optimal", 1]]
    assert r == materialized_distortion(p, 0)
    # reference 2 is below reference 1 and unbounded, like reference 1,
    # whose ray is returned before reference 2 is reached
    solved.clear()
    p = PreferenceProfile.of([(1, 2, 0), (1, 2, 0)])
    r = distortion_of_candidate(p, 0)
    assert solved == [[1, "unbounded", None]]
    assert solve_lp(build_lp(p, 0, 2)).status == "unbounded"
    assert (r.value, r.reference) == (INFINITE, 1)
    assert r == materialized_distortion(p, 0)
    assert verify_certificate(p, r)


@pytest.mark.parametrize("value, message", [(F(7, 2), "exceeds 2n/s - 1"), (F(1, 2), "below 1")])
def test_a_value_outside_its_bounds_is_refused(monkeypatch, value, message):
    # reference 1 of candidate 0 has s = 1 of 2 voters, so its value lies in
    # [1, 2n/s - 1] = [1, 3]; the split profile attains 3
    p = PreferenceProfile.of([(0, 1), (1, 0)])
    assert reference_bound(p, 0, 1) == 3
    assert solve_lp(build_lp(p, 0, 1)).value == 3

    def misreported_solve(lp):
        return dataclasses.replace(solve_lp(lp), value=value)

    monkeypatch.setattr("vetoflow.distortion.solve_lp", misreported_solve)
    with pytest.raises(RuntimeError, match=message):
        distortion_of_candidate(p, 0)


def test_every_reference_lp_is_within_its_bound(exhaustive_results):
    # SC(c) <= (2n/s - 1) SC(r) for every metric consistent with the
    # ballots: checked on every reference LP of the exhaustive 3x3 family
    # over distances (no gap coordinates, every row stored), and on every
    # certificate against every reference
    for p, r in exhaustive_results:
        c = r.candidate
        for ref in range(p.m):
            if ref == c:
                continue
            bound = reference_bound(p, c, ref)
            sol = solve_lp(per_voter_lp(p, c, ref))
            if sol.status == "unbounded":
                assert bound == INFINITE, (p.rankings, c, ref)
            else:
                assert sol.value <= bound, (p.rankings, c, ref)
            if r.certificate is not None and bound != INFINITE:
                costs = [sum(col) for col in zip(*r.certificate.values)]
                assert costs[c] <= bound * costs[ref]


def test_gap_lp_matches_the_per_voter_lp(exhaustive_results):
    # the LP over distances with stored ballot rows has the same optimum
    # and the same first best reference
    pairs = list(exhaustive_results)
    for p in random_profiles(200, seed=4242, nmax=5, mmax=5):
        if p.m > 1:
            pairs += [(p, distortion_of_candidate(p, c)) for c in range(p.m)]
    for p, r in pairs:
        assert (r.value, r.reference) == per_voter_value(p, r.candidate), p.rankings


def test_blands_rule_keeps_every_value(monkeypatch, exhaustive_results):
    # the default streak limit is never reached here, so force Bland's rule
    # from the first pivot that leaves the objective value unchanged: values
    # and references stay, certificates and rays may move but must verify
    pairs = list(exhaustive_results)
    for p in random_profiles(100, seed=4242, nmax=5, mmax=5):
        pairs += [(p, distortion_of_candidate(p, c)) for c in range(p.m)]
    assert len(pairs) == 925
    monkeypatch.setattr("vetoflow.lp._DEGENERATE_STREAK_LIMIT", 0)
    moved = 0
    for p, r in pairs:
        forced = distortion_of_candidate(p, r.candidate)
        assert (forced.value, forced.reference) == (r.value, r.reference), p.rankings
        assert verify_certificate(p, forced), p.rankings
        moved += forced != r
    # Bland's rule did take other pivots
    assert moved > 0


# SHA-256 over ``value_line`` of the results of ``exhaustive_results``, then
# of every candidate of random_profiles(200, seed=4242, nmax=5, mmax=5).  The
# values and references depend only on the profile, never on the solver's
# pivot path or coordinates, so this value must not change.
VALUES_SHA256 = "5d9a302839526237d5570b1bed81f64bb6fcb73593ac14ba5dda90c6422eecba"

# SHA-256 over ``result_line`` of the same results.  A change of pivot path
# changes certificates and rays, so it shows up here; such a change has to
# update this value on purpose.
RESULTS_SHA256 = "61502fd27e0e6dcb4602a68f6bb9c3539ace3579ec1ea9fcb716d478394325d1"


def value_line(r: DistortionResult) -> str:
    return f"{r.candidate} {r.value} {r.reference}\n"


def result_line(r: DistortionResult) -> str:
    rows = r.certificate.values if r.certificate else ()
    cells = ";".join(",".join(map(str, row)) for row in rows) or "-"
    ray = ",".join(map(str, r.ray)) if r.ray else "-"
    return f"{r.candidate} {r.value} {r.reference} {cells} {ray}\n"


def test_results_are_pinned(exhaustive_results):
    results = [r for _, r in exhaustive_results]
    for p in random_profiles(200, seed=4242, nmax=5, mmax=5):
        results += [distortion_of_candidate(p, c) for c in range(p.m)]
    assert len(results) == 648 + 593
    values = hashlib.sha256("".join(map(value_line, results)).encode())
    assert values.hexdigest() == VALUES_SHA256
    digest = hashlib.sha256("".join(map(result_line, results)).encode())
    assert digest.hexdigest() == RESULTS_SHA256


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.randoms(use_true_random=False))
def test_distortion_ignores_voter_order_and_ballot_copies(seed, rnd):
    p = random_profile(random.Random(seed), nmax=3, mmax=3)
    shuffled = list(p.rankings)
    rnd.shuffle(shuffled)
    doubled = [r for r in p.rankings for _ in range(2)]
    rnd.shuffle(doubled)
    for c in range(p.m):
        value = distortion_of_candidate(p, c).value
        for rankings in (shuffled, doubled):
            q = PreferenceProfile.of(rankings, p.candidate_names)
            assert distortion_of_candidate(q, c).value == value


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.randoms(use_true_random=False))
def test_distortion_ignores_candidate_labels(seed, rnd):
    # gap coordinates follow each voter's positions, so relabeling moves
    # every row and the objective; the value must not move
    p = random_profile(random.Random(seed), nmax=3, mmax=3)
    label = list(range(p.m))
    rnd.shuffle(label)
    q = PreferenceProfile.of([tuple(label[a] for a in r) for r in p.rankings])
    for c in range(p.m):
        assert distortion_of_candidate(q, label[c]).value == distortion_of_candidate(p, c).value


def test_size_cap(fix_p):
    with pytest.raises(LpSizeError, match="12 LP variables, cap is 5"):
        distortion_of_candidate(fix_p, 0, size_cap=5)
    assert issubclass(LpSizeError, ValueError)


def test_verify_rejects_tampered_results(fix_s):
    r = distortion_of_candidate(fix_s, 0)
    assert not verify_certificate(fix_s, dataclasses.replace(r, value=F(2)))
    assert not verify_certificate(fix_s, dataclasses.replace(r, certificate=None))
    assert not verify_certificate(fix_s, dataclasses.replace(r, reference=0))
    doubled = DistanceMatrix(tuple(tuple(2 * v for v in row) for row in r.certificate.values))
    assert not verify_certificate(fix_s, dataclasses.replace(r, certificate=doubled))
    # candidate 2's true certificate under indices that wrap around to 2 and 0
    p = PreferenceProfile.of([(0, 1, 2), (1, 0, 2), (2, 1, 0)])
    true = distortion_of_candidate(p, 2)
    assert verify_certificate(p, true) and true.reference == 0
    assert not verify_certificate(p, DistortionResult(-1, true.value, 0, true.certificate, None))
    assert not verify_certificate(p, DistortionResult(2, true.value, -3, true.certificate, None))
    assert not verify_certificate(p, dataclasses.replace(true, candidate=5))


def test_inexact_cells_fail_verification_instead_of_crashing(fix_s, exhaustive_results):
    r = distortion_of_candidate(fix_s, 0)
    rows = [list(row) for row in r.certificate.values]
    rows[1][0] = float(rows[1][0])
    loose = DistanceMatrix(tuple(map(tuple, rows)))
    assert loose.check(fix_s) == ["distances must be ints or Fractions"]
    with pytest.raises(ValueError, match="ints or Fractions"):
        loose.validate(fix_s)
    with pytest.raises(ValueError, match="ints or Fractions"):
        extend_to_full_pseudometric(loose, fix_s)
    assert not verify_certificate(fix_s, dataclasses.replace(r, certificate=loose))
    p, r = next((p, r) for p, r in exhaustive_results if r.value == INFINITE)
    assert not verify_certificate(p, dataclasses.replace(r, ray=tuple(map(float, r.ray))))


def test_every_exhaustive_ray_verifies(exhaustive_results):
    infinite = [(p, r) for p, r in exhaustive_results if r.value == INFINITE]
    assert infinite
    for p, r in infinite:
        assert verify_certificate(p, r), (p.rankings, r)


def test_verify_rejects_tampered_rays(exhaustive_results):
    def with_cells(r, cells):
        return dataclasses.replace(r, ray=tuple(cells))

    for p, r in exhaustive_results:
        if r.value == INFINITE:
            m, c, ref = p.m, r.candidate, r.reference
            ray = list(r.ray)
            # one cell of the third candidate o moves out of voter i's ballot
            # order against c, leaving the reference and candidate columns
            # alone: o ranked above c goes farther than c, or below c to 0
            i = next(i for i in range(p.n) if ray[i * m + c] > 0)
            o = next(o for o in range(m) if o not in (c, ref))
            moved = ray.copy()
            if p.rankings[i].index(o) < p.rankings[i].index(c):
                moved[i * m + o] = ray[i * m + c] + 1
            else:
                moved[i * m + o] = F(0)
            assert not verify_certificate(p, with_cells(r, moved)), (p.rankings, c)
            # a reference whose column is not 0, the candidate itself, none
            for other in range(m):
                if other != ref and sum(ray[k * m + other] for k in range(p.n)) > 0:
                    assert not verify_certificate(p, dataclasses.replace(r, reference=other))
            assert not verify_certificate(p, dataclasses.replace(r, reference=c))
            assert not verify_certificate(p, dataclasses.replace(r, reference=None))
            # a zero candidate column, and the zero ray that passes every invariant
            zeroed = [F(0) if k % m == c else v for k, v in enumerate(ray)]
            assert not verify_certificate(p, with_cells(r, zeroed))
            assert not verify_certificate(p, with_cells(r, [F(0)] * (p.n * m)))
            # a ray of the wrong length, or none
            assert not verify_certificate(p, with_cells(r, ray[:-1]))
            assert not verify_certificate(p, dataclasses.replace(r, ray=None))


def test_matrix_check_catches_each_failure_mode(fix_s):
    assert DistanceMatrix(((F(1),),)).check(fix_s) == [
        "matrix shape is not voters x candidates"
    ]
    msgs = DistanceMatrix(((F(-1), F(0)), (F(0), F(0)))).check(fix_s)
    assert any("negative" in m for m in msgs)
    msgs = DistanceMatrix(((F(2), F(1)), (F(1), F(1)))).check(fix_s)
    assert any("ranks 0 above 1" in m for m in msgs)
    msgs = DistanceMatrix(((F(0), F(5)), (F(1), F(0)))).check(fix_s)
    assert any("quadrangle" in m for m in msgs)
    with pytest.raises(ValueError):
        DistanceMatrix(((F(0), F(5)), (F(1), F(0)))).validate(fix_s)


def test_integer_check_matches_the_fraction_check():
    # certificates, each broken once per kind of row, and random matrices
    rng = random.Random(11)

    def cell() -> F:
        return F(rng.randint(-2, 9), rng.randint(1, 6))

    for p in random_profiles(60, seed=515, nmax=4, mmax=4):
        r = distortion_of_candidate(p, rng.randrange(p.m))
        matrices = [DistanceMatrix(tuple(tuple(cell() for _ in range(p.m)) for _ in range(p.n)))]
        if r.certificate is not None:
            base = r.certificate.values
            i = rng.randrange(p.n)
            top, bottom = p.rankings[i][0], p.rankings[i][-1]
            for a, value, kind in (
                (top, F(-1, 3), "negative"),
                (top, base[i][bottom] + F(1, 7), "ranks"),
                (bottom, base[i][bottom] + 5 * r.value + 1, "quadrangle"),
            ):
                rows = [list(row) for row in base]
                rows[i][a] = value
                matrices.append(DistanceMatrix(tuple(map(tuple, rows))))
                if kind != "quadrangle" or p.n > 1:
                    assert any(kind in msg for msg in matrices[-1].check(p)), (p.rankings, kind)
            matrices.append(r.certificate)
        for dm in matrices:
            assert dm.check(p) == fraction_check(dm, p)
    # voter 0 sits too far from candidate 2 for both other voters, and
    # more pairs break
    p = PreferenceProfile.of([(0, 1, 2), (1, 0, 2), (2, 1, 0)])
    dm = DistanceMatrix(((F(0), F(5, 2), F(9, 2)), (F(1), F(0), F(2)), (F(2), F(1, 3), F(0))))
    msgs = dm.check(p)
    assert msgs == fraction_check(dm, p)
    assert {msg[:28] for msg in msgs} >= {"quadrangle violated at (0,1,", "quadrangle violated at (0,2,"}


def test_uniform_matrix_extends_cleanly(fix_s):
    dm = DistanceMatrix(((F(1), F(1)), (F(1), F(1))))
    full = extend_to_full_pseudometric(dm, fix_s)
    assert len(full) == 4 and all(len(row) == 4 for row in full)
    assert all(full[x][x] == 0 for x in range(4))
    assert full[0][1] == F(2) and full[2][3] == F(2)
    assert full[0][2] == F(1)
    assert triangle_violations(full) == []


def fraction_extension(dm: DistanceMatrix, p: PreferenceProfile) -> tuple:
    """``extend_to_full_pseudometric`` over Fractions, cell by cell; the
    reference for the extension over integer numerators."""
    n, m, d = p.n, p.m, dm.values
    full = [[F(0)] * (n + m) for _ in range(n + m)]
    for i, a in itertools.product(range(n), range(m)):
        full[i][n + a] = full[n + a][i] = d[i][a]
    for i, j in itertools.permutations(range(n), 2):
        full[i][j] = min(d[i][a] + d[j][a] for a in range(m))
    for a, b in itertools.permutations(range(m), 2):
        full[n + a][n + b] = min(d[i][a] + d[i][b] for i in range(n))
    return tuple(map(tuple, full))


def test_extension_matches_the_fraction_extension():
    rng = random.Random(5)
    extended = 0
    for p in random_profiles(60, seed=5150, nmax=4, mmax=4):
        r = distortion_of_candidate(p, rng.randrange(p.m))
        if r.certificate is None:
            continue
        # scaled so that the cells have several denominators
        scale = F(rng.randint(1, 7), rng.randint(1, 7))
        for dm in (r.certificate, DistanceMatrix(tuple(
            tuple(v * scale for v in row) for row in r.certificate.values
        ))):
            full = extend_to_full_pseudometric(dm, p)
            assert full == fraction_extension(dm, p)
            assert all(type(v) is F for row in full for v in row)
            extended += 1
    assert extended > 60


def test_extension_validates_its_input(fix_s):
    with pytest.raises(ValueError):
        extend_to_full_pseudometric(DistanceMatrix(((F(0), F(5)), (F(1), F(0)))), fix_s)


def test_triangle_violations_flags_long_edges():
    matrix = ((F(0), F(1), F(3)), (F(1), F(0), F(1)), (F(3), F(1), F(0)))
    bad = triangle_violations(matrix)
    assert (0, 1, 2) in bad and (2, 1, 0) in bad


def test_to_text_round_trips_rationals():
    dm = DistanceMatrix(((F(1, 3), F(2)),))
    assert dm.to_text() == "1/3 2/1\n"


def test_random_results_verify_end_to_end():
    rng = random.Random(42)
    for p in random_profiles(30, seed=2024, nmax=4, mmax=3):
        c = rng.randrange(p.m)
        r = distortion_of_candidate(p, c)
        assert verify_certificate(p, r)
        if r.value == INFINITE:
            continue
        assert r.value >= 1
        if p.m > 1:
            full = extend_to_full_pseudometric(r.certificate, p)
            assert triangle_violations(full) == []


def test_result_value_types(fix_s, fix_u):
    assert isinstance(distortion_of_candidate(fix_s, 0).value, F)
    assert isinstance(distortion_of_candidate(fix_u, 1).value, float)
    assert distortion_of_candidate(fix_u, 1).value == math.inf


def _highs_reference_value(p: PreferenceProfile, c: int, cref: int) -> float:
    """The optimum of ``per_voter_lp`` in floating point, or inf when
    unbounded, with the normalization also posed as the equality
    sum_i d(i, cref) = 1, so HiGHS checks that the relaxation to <= 1 loses
    no value."""
    import numpy as np
    from scipy.optimize import linprog

    lp = per_voter_lp(p, c, cref)
    a_ub, b_ub = [], []
    for row in lp.constraints + lp.implicit.constraints:
        dense = [0.0] * lp.num_vars
        for j, coef in row.coeffs.items():
            dense[j] = float(coef)
        a_ub.append(dense)
        b_ub.append(float(row.rhs))
    a_eq = [[float(a == cref) for i in range(p.n) for a in range(p.m)]]
    args = dict(A_ub=np.array(a_ub), b_ub=b_ub, A_eq=np.array(a_eq), b_eq=[1.0], bounds=(0, None))
    objective = [-float(v) for v in lp.objective]
    res = linprog(objective, method="highs", **args)
    if res.status not in (0, 3):
        # presolve may stop at "infeasible or unbounded"; without it HiGHS decides
        res = linprog(objective, method="highs", options={"presolve": False}, **args)
    assert res.status in (0, 3), res.message
    return math.inf if res.status == 3 else -res.fun


def test_exact_lp_agrees_with_highs():
    pytest.importorskip("scipy")
    rng = random.Random(5)
    for p in random_profiles(40, seed=77, nmax=4, mmax=4):
        if p.m == 1:
            continue
        c = rng.randrange(p.m)
        exact = distortion_of_candidate(p, c).value
        floats = [_highs_reference_value(p, c, cref) for cref in range(p.m) if cref != c]
        if exact == INFINITE:
            assert math.inf in floats, p.rankings
        else:
            assert math.inf not in floats, p.rankings
            assert abs(float(exact) - max(floats)) <= 1e-9 * max(floats), p.rankings

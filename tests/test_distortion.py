import dataclasses
import hashlib
import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from vetoflow.distortion import (
    INFINITE,
    DistanceMatrix,
    DistortionResult,
    LpSizeError,
    build_lp,
    distortion_of_candidate,
    extend_to_full_pseudometric,
    verify_certificate,
)
from vetoflow.lp import LinearConstraint, LinearProgram, solve_lp
from vetoflow.profiles import PreferenceProfile
from tests_support_lp import ListedRows
from tests_support_oracles import triangle_violations
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
    return LinearProgram(n * m, objective, tuple(rows), ListedRows(quadrangles))


def gap_terms(p: PreferenceProfile, i: int, a: int) -> list[int]:
    """The gap variables whose sum is d(i, a): voter i's first
    ``ranking.index(a) + 1`` gaps."""
    return [i * p.m + l for l in range(p.rankings[i].index(a) + 1)]


def gaps_to_distances(p: PreferenceProfile, vector) -> tuple[tuple[F, ...], ...]:
    return tuple(
        tuple(sum((vector[v] for v in gap_terms(p, i, a)), F(0)) for a in range(p.m))
        for i in range(p.n)
    )


def materialized_lp(p: PreferenceProfile, c: int, cref: int) -> LinearProgram:
    """The distortion LP over gap variables with every quadrangle row stored:
    the normalization row, then the quadrangle rows in (i, j, a, b) order as
    a listed family, each the sum of its four distances' gap terms.  The
    reference for ``build_lp``'s implicit family."""
    n, m = p.n, p.m
    quadrangles = []
    for i, j, a, b in itertools.product(range(n), range(n), range(m), range(m)):
        coeffs: dict[int, int] = {}
        for (k, e), delta in (((i, a), 1), ((i, b), -1), ((j, b), -1), ((j, a), -1)):
            for var in gap_terms(p, k, e):
                coeffs[var] = coeffs.get(var, 0) + delta
        coeffs = {v: x for v, x in coeffs.items() if x != 0}
        # rows without a positive coefficient are consequences of g >= 0
        if all(x < 0 for x in coeffs.values()):
            continue
        quadrangles.append(LinearConstraint(coeffs, 0))
    normalization = LinearConstraint(
        {v: 1 for i in range(n) for v in gap_terms(p, i, cref)}, 1
    )
    objective = [0] * (n * m)
    for i in range(n):
        for v in gap_terms(p, i, c):
            objective[v] = 1
    return LinearProgram(n * m, tuple(objective), (normalization,), ListedRows(quadrangles))


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
    # coefficient; at this signed direction both have excess 2
    listed = lp.implicit.violated([-1, 1, -1, 1, 0])
    assert [key for _, key in listed] == [(0, 1, 1, 0), (1, 0, 0, 1)]
    assert all(e == -2 for e, _ in listed)
    # d(0,b) - d(0,a) - d(1,a) - d(1,b) = g1 - (g2 + g3) - g2
    assert lp.implicit.row((0, 1, 1, 0)) == LinearConstraint({1: 1, 2: -2, 3: -1}, 0)
    reference = materialized_lp(fix_s, 0, 1)
    assert reference.constraints == lp.constraints
    assert reference.objective == lp.objective
    assert len(reference.implicit.constraints) == 2
    assert tuple(lp.implicit.row(key) for _, key in listed) == reference.implicit.constraints


def test_vacuous_quadrangle_rows_are_dropped(fix_s):
    for lp in (materialized_lp(fix_s, 0, 1), per_voter_lp(fix_s, 0, 1)):
        for row in lp.implicit.constraints:
            assert any(x > 0 for x in row.coeffs.values())


def test_quadrangle_separation_matches_the_reference():
    # points are nonnegative numerators over a denominator; directions have
    # signed cells and a zero right-hand side
    rng = random.Random(8)
    for p in random_profiles(80, seed=123, nmax=5, mmax=5):
        lp = build_lp(p, 0, p.m - 1)
        reference = materialized_lp(p, 0, p.m - 1).implicit
        for _ in range(6):
            if rng.random() < 0.5:
                vector = [rng.randint(0, 6) for _ in range(p.n * p.m)] + [-rng.randint(1, 4)]
            else:
                vector = [rng.randint(-4, 4) for _ in range(p.n * p.m)] + [0]
            expected = [(e, reference.row(key)) for e, key in reference.violated(vector)]
            got = lp.implicit.violated(vector)
            assert [(e, lp.implicit.row(key)) for e, key in got] == expected
            keys = [key for _, key in got]
            assert keys == sorted(set(keys))


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


def test_gap_lp_matches_the_per_voter_lp(exhaustive_results):
    # the LP over distances with stored ballot rows has the same optimum
    # and the same first best reference
    pairs = list(exhaustive_results)
    for p in random_profiles(200, seed=4242, nmax=5, mmax=5):
        if p.m > 1:
            pairs += [(p, distortion_of_candidate(p, c)) for c in range(p.m)]
    for p, r in pairs:
        assert (r.value, r.reference) == per_voter_value(p, r.candidate), p.rankings


# SHA-256 over ``value_line`` of the results of ``exhaustive_results``, then
# of every candidate of random_profiles(200, seed=4242, nmax=5, mmax=5).  The
# values and references depend only on the profile, never on the solver's
# pivot path or coordinates, so this value must not change.
VALUES_SHA256 = "5d9a302839526237d5570b1bed81f64bb6fcb73593ac14ba5dda90c6422eecba"

# SHA-256 over ``result_line`` of the same results.  A change of pivot path
# changes certificates and rays, so it shows up here; such a change has to
# update this value on purpose.
RESULTS_SHA256 = "a793fd50ec977eb519bd33d2aad8e1f5e2d95d67e806df2b57c846f27ba7989a"


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


def fraction_check(dm: DistanceMatrix, p: PreferenceProfile) -> list[str]:
    """``DistanceMatrix.check`` over Fractions, cell by cell; the reference
    for the integer check."""
    if len(dm.values) != p.n or any(len(r) != p.m for r in dm.values):
        return ["matrix shape is not voters x candidates"]
    d = dm.values
    bad = []
    for i, a in itertools.product(range(p.n), range(p.m)):
        if d[i][a] < 0:
            bad.append(f"negative distance at voter {i}, candidate {a}")
    pos = p.positions()
    for i, a, b in itertools.product(range(p.n), range(p.m), range(p.m)):
        if pos[i][a] < pos[i][b] and d[i][a] > d[i][b]:
            bad.append(f"voter {i} ranks {a} above {b} but sits closer to {b}")
    for i, j, a, b in itertools.product(range(p.n), range(p.n), range(p.m), range(p.m)):
        if d[i][a] > d[i][b] + d[j][b] + d[j][a]:
            bad.append(f"quadrangle violated at ({i},{j},{a},{b})")
    return bad


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


def test_uniform_matrix_extends_cleanly(fix_s):
    dm = DistanceMatrix(((F(1), F(1)), (F(1), F(1))))
    full = extend_to_full_pseudometric(dm, fix_s)
    assert len(full) == 4 and all(len(row) == 4 for row in full)
    assert all(full[x][x] == 0 for x in range(4))
    assert full[0][1] == F(2) and full[2][3] == F(2)
    assert full[0][2] == F(1)
    assert triangle_violations(full) == []


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

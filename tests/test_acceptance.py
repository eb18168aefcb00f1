"""The ten release criteria, one test each.

Each test records a single pass/fail line that ``pytest_terminal_summary``
prints at the end of the run.  The families built here are shared across
criteria through module-scoped fixtures, so the numbers quoted in the
labels (216 exhaustive elections, 5000 / 1000 / 200 random ones) are
computed once.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from vetoflow.axioms import (
    equivalence_audit,
    pareto_matching_criterion,
    veto_core,
    veto_core_member,
    veto_core_member_bruteforce,
    weak_psc_bruteforce,
    weak_psc_satisfied,
)
from vetoflow.distortion import (
    INFINITE,
    distortion_of_candidate,
    extend_to_full_pseudometric,
    verify_certificate,
)
from vetoflow.eating import (
    EatingConfig,
    phragmen_committee,
    probabilistic_serial,
    run_eating,
    veto_by_consumption_winners,
)
from vetoflow.matching import (
    build_domination_graph,
    extract_deficiency_witness,
    has_fractional_perfect_matching,
)
from vetoflow.profiles import all_profiles, reverse_profile
from vetoflow.profile_io import gen_impartial_culture
from vetoflow.rules import (
    composite_distortion_rule,
    plurality_matching_winners,
    plurality_veto,
)
from conftest import record_criterion
from tests_support_oracles import hall_check_bruteforce, share_refusal, triangle_violations
from tests_support_random import random_profiles


@pytest.fixture(scope="module")
def exhaustive_family():
    return list(all_profiles(3, 3))


@pytest.fixture(scope="module")
def random_family():
    return random_profiles(5000, seed=101, nmax=6, mmax=5)


@pytest.fixture(scope="module")
def distortion_sweep():
    """Distortion of every motivated winner on 200 small elections."""
    started = time.monotonic()
    failures = []
    finite = []
    for p in random_profiles(200, seed=202, nmax=5, mmax=5):
        winners = set(plurality_matching_winners(p))
        winners.add(plurality_veto(p))
        winners.add(composite_distortion_rule(p))
        for c in sorted(winners):
            result = distortion_of_candidate(p, c)
            if result.value == INFINITE or result.value > 3:
                failures.append((p.rankings, c, result.value))
            else:
                finite.append((p, result))
    return time.monotonic() - started, failures, finite


def test_criterion_1_three_routes_agree(exhaustive_family, random_family):
    started = time.monotonic()
    report = equivalence_audit(exhaustive_family)
    ok = report.instances == 216 and report.checks == 648 and not report.discrepancies
    report = equivalence_audit(random_family)
    ok = ok and report.instances == 5000 and not report.discrepancies
    elapsed = time.monotonic() - started
    record_criterion(
        1,
        "membership routes agree on 216 exhaustive + 5000 random elections in <2min",
        ok and elapsed < 120,
    )


def test_criterion_2_matching_winners_exist(exhaustive_family, random_family):
    ok = all(
        plurality_matching_winners(p) for p in exhaustive_family + random_family
    )
    record_criterion(2, "the matching-winner set is never empty", ok)


def test_criterion_3_veto_winner_is_a_matching_winner():
    rng = random.Random(7)
    failures = 0
    for p in random_profiles(1000, seed=303, nmax=6, mmax=5):
        winners = plurality_matching_winners(p)
        for _ in range(5):
            order = rng.sample(range(p.n), p.n)
            if plurality_veto(p, order) not in winners:
                failures += 1
    record_criterion(
        3,
        "last-standing winner lies in the matching-winner set, 1000 elections x 5 orders",
        failures == 0,
    )


def test_criterion_4_distortion_at_most_three(distortion_sweep):
    elapsed, failures, _ = distortion_sweep
    record_criterion(
        4,
        "motivated winners stay within distortion 3 on 200 elections in <10min",
        not failures and elapsed < 600,
    )


def test_criterion_5_tight_instances(fix_s, fix_u):
    ok = all(distortion_of_candidate(fix_s, c).value == Fraction(3) for c in (0, 1))
    ok = ok and distortion_of_candidate(fix_u, 0).value == Fraction(1)
    ok = ok and distortion_of_candidate(fix_u, 1).value == INFINITE
    record_criterion(
        5, "opposed pair is tight at 3; unanimous pair gives 1 and infinity", ok
    )


def test_criterion_6_square_elections(fix_p, exhaustive_family, random_family):
    ok = veto_core(fix_p) == frozenset({1})
    ok = ok and pareto_matching_criterion(fix_p, 0)[0]
    ok = ok and not veto_core_member(fix_p, 0).member
    for p in exhaustive_family + random_family:
        if p.n != p.m:
            continue
        for c in range(p.m):
            if pareto_matching_criterion(p, c)[0] != veto_core_member(p, c).member:
                ok = False
    record_criterion(
        6, "on square elections the matching criterion equals core membership", ok
    )


def test_criterion_7_consumption_rules(exhaustive_family, random_family):
    ok = all(
        veto_by_consumption_winners(p) <= veto_core(p)
        for p in exhaustive_family + random_family
    )
    refused = []
    for p in random_profiles(1000, seed=404, nmax=6, mmax=5):
        worst = run_eating(
            reverse_profile(p), EatingConfig(direction="eat-worst", stop_eliminations=p.m)
        ).eliminated_order()
        for k in range(p.m + 1):
            if phragmen_committee(p, k) != worst[:k]:
                ok = False
        # each voter's shares sum to k/n, no column exceeds 1, none is negative
        k = min(p.n, p.m)
        why = share_refusal(probabilistic_serial(p).shares, Fraction(k, p.n))
        if why is not None:
            refused.append((p.rankings, why))
    record_criterion(
        7,
        "consumption survivors sit in the core; committees mirror reversed eating; shares balance",
        ok and not refused,
        f"refused shares: {refused[:3]}" if refused else "",
    )


def test_criterion_8_bruteforce_agreement():
    rng = random.Random(11)
    ok = True
    for p in random_profiles(300, seed=505, nmax=10, mmax=5):
        for c in range(p.m):
            if veto_core_member(p, c).member != veto_core_member_bruteforce(p, c):
                ok = False
            g = build_domination_graph(p, c)
            if has_fractional_perfect_matching(g) != hall_check_bruteforce(p, c):
                ok = False
        k = rng.randint(1, p.m)
        committee = frozenset(rng.sample(range(p.m), k))
        if weak_psc_satisfied(p, committee).satisfied != weak_psc_bruteforce(p, committee):
            ok = False
    record_criterion(
        8, "fast core, committee and matching checks match brute force", ok
    )


def test_criterion_9_witnesses_check_out(exhaustive_family, distortion_sweep):
    _, _, finite = distortion_sweep
    ok = bool(finite)
    for p, result in finite:
        if not verify_certificate(p, result):
            ok = False
        if p.m > 1 and triangle_violations(
            extend_to_full_pseudometric(result.certificate, p)
        ):
            ok = False
    validated = 0
    for p in exhaustive_family + random_profiles(1000, seed=606, nmax=6, mmax=5):
        for c in range(p.m):
            if has_fractional_perfect_matching(build_domination_graph(p, c)):
                continue
            witness = extract_deficiency_witness(p, c)
            if witness is None:
                ok = False
                continue
            witness.validate(p, c)  # raises unless the inequality is strict
            validated += 1
    record_criterion(
        9,
        "finite values re-verify and extend to triangle-clean tables; cut witnesses are strict",
        ok and validated > 0,
    )


def test_criterion_10_performance():
    p = gen_impartial_culture(200, 5, seed=13)
    started = time.monotonic()
    composite_distortion_rule(p)
    composite_elapsed = time.monotonic() - started

    q = gen_impartial_culture(4, 25, seed=3)
    started = time.monotonic()
    result = distortion_of_candidate(q, 0, size_cap=100)
    lp_elapsed = time.monotonic() - started
    ok = composite_elapsed < 1.0 and lp_elapsed < 30.0
    ok = ok and (result.value == INFINITE or result.value >= 1)
    record_criterion(
        10, "200-voter composite under 1s; 100-variable program under 30s", ok,
        f"composite {composite_elapsed:.2f}s, program {lp_elapsed:.2f}s, value {result.value}",
    )

import itertools
import random
import re
from collections import Counter
from dataclasses import replace
from math import ceil

import pytest
from hypothesis import given, settings, strategies as st

from vetoflow import axioms
from vetoflow.axioms import (
    PscViolation,
    equivalence_audit,
    pareto_matching_criterion,
    veto_core,
    veto_core_member,
    veto_core_member_bruteforce,
    veto_power,
    weak_psc_bruteforce,
    weak_psc_satisfied,
)
from vetoflow.distortion import distortion_of_candidate
from vetoflow.eating import phragmen_committee, probabilistic_serial, veto_by_consumption_winners
from vetoflow.matching import CutWitness, build_domination_graph, extract_deficiency_witness
from vetoflow.profile_io import parse_profile
from vetoflow.profiles import PreferenceProfile, all_profiles, dominated_set, reverse_profile
from vetoflow.rules import (
    composite_distortion_rule,
    plurality_matching_winners,
    plurality_veto,
    serial_dictatorship,
)
from tests_support_oracles import pareto_optimal_bruteforce, veto_core_member_pairs
from tests_support_random import (
    profiles_strategy,
    random_profile,
    random_profiles,
    repeated_profiles,
)


def test_veto_power_formula():
    assert [veto_power(4, 3, s) for s in range(5)] == [-1, 0, 1, 2, 2]
    assert [veto_power(3, 3, s) for s in range(4)] == [-1, 0, 1, 2]
    for n, m in itertools.product(range(1, 7), range(1, 6)):
        for s in range(n + 1):
            assert veto_power(n, m, s) == ceil(m * s / n) - 1
    with pytest.raises(ValueError):
        veto_power(3, 3, 4)


def test_veto_power_monotone_in_coalition_size():
    for n, m in itertools.product(range(1, 8), range(1, 6)):
        values = [veto_power(n, m, s) for s in range(n + 1)]
        assert values == sorted(values)
        assert values[-1] == m - 1


def test_veto_core_of_fixtures(fix_p, fix_t):
    assert veto_core(fix_p) == frozenset({1})
    assert veto_core(fix_t) == frozenset({0, 1})


def test_veto_witnesses_on_fix_p(fix_p):
    # the candidates outside the dominated set block c
    v = veto_core_member(fix_p, 0)
    assert not v.member
    assert v.witness.voters == frozenset({2, 3})
    assert v.witness.dominated == frozenset({0})
    v = veto_core_member(fix_p, 2)
    assert v.witness.voters == frozenset({0, 1})
    assert v.witness.dominated == frozenset({2})
    assert veto_core_member(fix_p, 1).member


def test_veto_witness_on_fix_t(fix_t):
    v = veto_core_member(fix_t, 2)
    assert v.witness.voters == frozenset({0, 1})
    assert v.witness.dominated == frozenset({2})
    v.witness.validate(fix_t, 2)


def test_witness_validation_rejects_tampering(fix_t):
    w = veto_core_member(fix_t, 2).witness
    with pytest.raises(ValueError, match="empty"):
        replace(w, voters=frozenset()).validate(fix_t, 2)
    # voter 2 ranks c first, so with them the voters dominate everything
    with pytest.raises(ValueError, match="does not match"):
        replace(w, voters=w.voters | {2}).validate(fix_t, 2)
    with pytest.raises(ValueError, match="does not match"):
        replace(w, dominated=w.dominated | {0}).validate(fix_t, 2)
    with pytest.raises(ValueError, match="does not match"):
        replace(w, dominated=frozenset()).validate(fix_t, 2)
    # voter 0 alone dominates only c, but 1 * 3 is not below 3 * 1
    with pytest.raises(ValueError, match="Hall"):
        replace(w, voters=frozenset({0})).validate(fix_t, 2)


def test_single_voter_core_is_the_top_choice():
    p = PreferenceProfile.of([(2, 0, 1)])
    assert veto_core(p) == frozenset({2})


def test_core_bruteforce_agrees_on_fixtures(fix_p, fix_t):
    for p in (fix_p, fix_t):
        for c in range(p.m):
            assert veto_core_member_bruteforce(p, c) == veto_core_member(p, c).member


def test_core_bruteforce_agrees_on_random_profiles():
    for p in random_profiles(400, seed=606):
        for c in range(p.m):
            assert veto_core_member_bruteforce(p, c) == veto_core_member(p, c).member, (
                p.rankings,
                c,
            )


def assert_core_by_flow(p: PreferenceProfile, monkeypatch) -> tuple[int, int]:
    """``veto_core`` is the set a flow admits candidate by candidate, and
    brute force agrees where it can run.  Returns how many non-members the
    solid-coalition scan decided and how many a flow decided."""
    by_flow = frozenset(c for c in range(p.m) if veto_core_member(p, c).member)
    if p.n <= 12 and p.m <= 6:
        assert by_flow == frozenset(c for c in range(p.m) if veto_core_member_bruteforce(p, c))
    asked = []
    member = axioms.veto_core_member
    with monkeypatch.context() as mp:
        mp.setattr(axioms, "veto_core_member", lambda p, c: asked.append(c) or member(p, c))
        core = veto_core(p)
    assert core == by_flow, p.rankings
    return p.m - len(asked), len(asked) - len(core)


def test_veto_core_scan_changes_no_core(monkeypatch):
    scanned = flowed = 0
    for p in [*all_profiles(3, 3), *repeated_profiles(200, seed=1717)]:
        s, f = assert_core_by_flow(p, monkeypatch)
        scanned, flowed = scanned + s, flowed + f
    # both routes must decide non-members often
    assert scanned > 400 and flowed > 20


@given(profiles_strategy)
def test_veto_core_scan_changes_no_core_on_random_profiles(p):
    with pytest.MonkeyPatch.context() as mp:
        assert_core_by_flow(p, mp)


def test_the_solid_coalition_scan_bound_is_strict():
    # at equality, (m - |T|) n = m |N'| = 4, each top set holds one veto
    # too few: both candidates are members
    assert veto_core(PreferenceProfile.of([(0, 1), (0, 1), (1, 0), (1, 0)])) == frozenset({0, 1})
    # 1 * 4 < 2 * 3: the three voters of top set {0} veto candidate 1
    assert veto_core(PreferenceProfile.of([(0, 1), (0, 1), (0, 1), (1, 0)])) == frozenset({0})


def test_flows_run_only_for_core_members_on_a_large_ic_election(monkeypatch):
    rng = random.Random(11)
    counts = Counter(tuple(rng.sample(range(5), 5)) for _ in range(3000))
    p = parse_profile("".join(f"{w}: {','.join(str(c + 1) for c in r)}\n"
                              for r, w in sorted(counts.items(), key=lambda rw: (-rw[1], rw[0]))))
    scanned, flowed = assert_core_by_flow(p, monkeypatch)
    assert scanned > 0 and flowed == 0


def test_core_bruteforce_rejects_large_instances():
    p = PreferenceProfile.of([tuple(range(7))] * 2)
    with pytest.raises(ValueError):
        veto_core_member_bruteforce(p, 0)


def test_core_bruteforce_routes_agree():
    # the subset scan and the (coalition, blocked set) enumeration evaluate
    # the veto quantifiers independently
    family = [*all_profiles(3, 3), *all_profiles(2, 4),
              *random_profiles(400, seed=606, nmax=4, mmax=4)]
    verdicts = set()
    for p in family:
        for c in range(p.m):
            member = veto_core_member_bruteforce(p, c)
            assert veto_core_member_pairs(p, c) == member, (p.rankings, c)
            verdicts.add(member)
    assert verdicts == {True, False}
    with pytest.raises(ValueError, match="n <= 4, m <= 4"):
        veto_core_member_pairs(PreferenceProfile.of([tuple(range(5))]), 0)


def test_candidate_checks_refuse_a_candidate_outside_the_profile(fix_t):
    # every entry point that takes a candidate runs the profile's one check,
    # which names the bad index: a float or a bool is no candidate, and -1
    # would read as the last one
    witness = CutWitness(frozenset({0, 1}), frozenset({2}))
    checks = (veto_core_member, extract_deficiency_witness, pareto_matching_criterion,
              build_domination_graph, veto_core_member_bruteforce, distortion_of_candidate,
              PreferenceProfile.groups_below, lambda p, c: dominated_set(p, c, [0]),
              lambda p, c: witness.validate(p, c))
    for check in checks:
        for c in (5, 3, -1, 1.5, 1.0, True):
            with pytest.raises(ValueError, match=rf"^candidate {re.escape(str(c))} is not in 0\.\.2$"):
                check(fix_t, c)
    for check in (weak_psc_satisfied, weak_psc_bruteforce):
        for committee in ([1.0], [0, 3], [True], [-1]):
            with pytest.raises(ValueError, match=r" is not in 0\.\.2$"):
                check(fix_t, committee)


def test_weak_psc_on_reversed_fixtures(fix_p, fix_t):
    rev_p = reverse_profile(fix_p)
    assert weak_psc_satisfied(rev_p, {0, 2}).satisfied
    rev_t = reverse_profile(fix_t)
    verdict = weak_psc_satisfied(rev_t, {0, 1})
    assert not verdict.satisfied
    violation = verdict.violation
    assert violation.supporters == frozenset({0, 1})
    assert violation.prefix_set == frozenset({2})
    assert violation.alternative == 2
    violation.validate(rev_t, frozenset({0, 1}))


def test_psc_prescan_names_the_least_uncommitted_candidate():
    # the first violating solid coalition is {0, 3, 5}, all four voters'
    # top three; 3 and 5 are both uncommitted, and the witness names 3
    p = PreferenceProfile.of([(0, 5, 3, 1, 4, 2)] + [(0, 3, 5, 1, 2, 4)] * 3)
    committee = frozenset({0, 1, 2, 4})
    violation = weak_psc_satisfied(p, committee).violation
    assert violation == PscViolation(frozenset({0, 3, 5}), frozenset({0, 1, 2, 3}), 3)


def test_full_committee_always_satisfies(fix_t):
    assert weak_psc_satisfied(fix_t, {0, 1, 2}).satisfied


def test_a_committee_names_each_candidate_once(fix_t):
    # k is the committee's size, so a repeated member would be merged away
    for check in (weak_psc_satisfied, weak_psc_bruteforce):
        with pytest.raises(ValueError, match="candidate a twice"):
            check(fix_t, [0, 0])
        with pytest.raises(ValueError, match="candidate c twice"):
            check(fix_t, iter([2, 1, 2]))


def test_psc_violation_validation(fix_t):
    rev_t = reverse_profile(fix_t)
    committee = frozenset({0, 1})
    with pytest.raises(ValueError, match="empty"):
        PscViolation(frozenset({2}), frozenset(), 2).validate(rev_t, committee)
    with pytest.raises(ValueError, match="already"):
        PscViolation(frozenset({0}), frozenset({0}), 0).validate(rev_t, committee)
    with pytest.raises(ValueError, match="union"):
        PscViolation(frozenset({1, 2}), frozenset({0, 1}), 2).validate(rev_t, committee)
    with pytest.raises(ValueError, match="Droop"):
        PscViolation(frozenset({2}), frozenset({0}), 2).validate(rev_t, committee)


def test_psc_bruteforce_agrees_on_all_committees(fix_p):
    rev_p = reverse_profile(fix_p)
    for k in range(1, 4):
        for committee in itertools.combinations(range(3), k):
            w = frozenset(committee)
            assert (
                weak_psc_satisfied(rev_p, w).satisfied
                == weak_psc_bruteforce(rev_p, w)
            )


def test_psc_bruteforce_agrees_on_random_committees():
    rng = random.Random(17)
    for p in random_profiles(150, seed=808, nmax=5, mmax=5):
        k = rng.randint(1, p.m)
        committee = frozenset(rng.sample(range(p.m), k))
        fast = weak_psc_satisfied(p, committee).satisfied
        assert fast == weak_psc_bruteforce(p, committee), (p.rankings, committee)


def test_psc_verdict_carries_validated_witnesses():
    for p in random_profiles(100, seed=909, nmax=5, mmax=4):
        for c in range(p.m):
            committee = frozenset(range(p.m)) - {c}
            verdict = weak_psc_satisfied(p, committee)
            if not verdict.satisfied:
                verdict.violation.validate(p, committee)


def test_pareto_matching_criterion_fixtures(fix_p, fix_t):
    # a ballot type's matched candidates, ascending, go to its voters in index order
    assert pareto_matching_criterion(fix_p, 0) == (True, {0: 1, 1: 2})
    assert pareto_matching_criterion(fix_p, 1) == (True, {0: 2, 2: 0})
    assert pareto_matching_criterion(fix_p, 2) == (True, {2: 0, 3: 1})
    assert pareto_matching_criterion(fix_t, 1) == (True, {0: 2, 1: 0})
    assert pareto_matching_criterion(fix_t, 2) == (False, None)


def test_pareto_matching_criterion_single_candidate():
    p = PreferenceProfile.of([(0,)])
    assert pareto_matching_criterion(p, 0) == (True, {})


def pareto_hall_bruteforce(p: PreferenceProfile, c: int) -> bool:
    """Hall's condition for matching every other candidate to a distinct voter
    who ranks c above it, over every subset of the other candidates."""
    pos = p.positions()
    others = [x for x in range(p.m) if x != c]
    for size in range(1, len(others) + 1):
        for subset in itertools.combinations(others, size):
            voters = sum(any(pos[i][c] < pos[i][x] for x in subset) for i in range(p.n))
            if voters < size:
                return False
    return True


def test_pareto_matching_criterion_agrees_with_hall_bruteforce():
    outcomes = set()
    for p in [*all_profiles(3, 3), *random_profiles(300, seed=1312, nmax=8, mmax=6)]:
        pos = p.positions()
        for c in range(p.m):
            ok, mu = pareto_matching_criterion(p, c)
            assert ok == pareto_hall_bruteforce(p, c), (p.rankings, c)
            outcomes.add(ok)
            if not ok:
                assert mu is None
                continue
            assert len(mu) == p.m - 1 and len(set(mu.values())) == p.m - 1, (p.rankings, c, mu)
            assert all(pos[i][c] < pos[i][x] for i, x in mu.items()), (p.rankings, c, mu)
    assert outcomes == {True, False}


def test_pareto_optimal_bruteforce_fixtures(fix_s):
    assert pareto_optimal_bruteforce(fix_s, {0: 0, 1: 1}, 2)
    assert not pareto_optimal_bruteforce(fix_s, {0: 1, 1: 0}, 2)


def test_serial_dictatorship_outputs_are_pareto_optimal():
    for p in random_profiles(150, seed=616, nmax=5, mmax=5):
        k = min(p.n, p.m)
        mu = serial_dictatorship(p)
        assert pareto_optimal_bruteforce(p, mu, k)


def test_equivalence_audit_on_fix_p(fix_p):
    report = equivalence_audit([fix_p])
    assert report.ok
    assert report.instances == 1 and report.checks == 3
    assert report.discrepancies == []
    assert report.empty_core_instances == []
    diverging = {d["candidate"] for d in report.expected_pareto_divergences}
    assert diverging == {"c1", "c3"}
    assert "status=ok" in report.lines()[-1]


def test_equivalence_audit_exhaustive_two_by_two():
    report = equivalence_audit(all_profiles(2, 2))
    assert report.ok
    assert report.instances == 4 and report.checks == 8
    assert report.expected_pareto_divergences == []


def test_audit_report_serializes():
    import json

    report = equivalence_audit(all_profiles(2, 2))
    payload = json.loads(json.dumps(report.to_json()))
    assert payload["ok"] is True
    assert payload["instances"] == 4


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.randoms(use_true_random=False))
def test_candidate_relabeling_commutes(seed, rnd):
    # candidate a of p is candidate sigma[a] of its relabeled copy
    def relabeled(p):
        sigma = list(range(p.m))
        rnd.shuffle(sigma)
        q = PreferenceProfile.of([tuple(sigma[a] for a in r) for r in p.rankings])
        return q, sigma

    rng = random.Random(seed)
    p = random_profile(rng, nmax=5, mmax=4)
    q, sigma = relabeled(p)

    def mapped(cs):
        return {sigma[c] for c in cs}

    assert veto_core(q) == mapped(veto_core(p))
    assert veto_by_consumption_winners(q) == mapped(veto_by_consumption_winners(p))
    assert plurality_matching_winners(q) == mapped(plurality_matching_winners(p))
    order = rng.sample(range(p.n), p.n)
    assert plurality_veto(q, order) == sigma[plurality_veto(p, order)]
    # the default tie-break is ascending index; relabeled, it follows sigma
    for tie in (list(range(p.m)), rng.sample(range(p.m), p.m)):
        tie_q = [sigma[c] for c in tie]
        assert composite_distortion_rule(q, tie_q) == sigma[composite_distortion_rule(p, tie)]
        for k in range(p.m + 1):
            assert phragmen_committee(q, k, tie_q) == tuple(
                sigma[c] for c in phragmen_committee(p, k, tie))
    ps_p, ps_q = probabilistic_serial(p).shares, probabilistic_serial(q).shares
    assert all(row_q[sigma[c]] == row_p[c]
               for row_p, row_q in zip(ps_p, ps_q) for c in range(p.m))
    for c in range(p.m):
        assert pareto_matching_criterion(q, sigma[c])[0] == pareto_matching_criterion(p, c)[0]
    for size in range(p.m + 1):
        for committee in itertools.combinations(range(p.m), size):
            image = frozenset(sigma[c] for c in committee)
            verdict = weak_psc_satisfied(q, image)
            assert verdict.satisfied == weak_psc_satisfied(p, committee).satisfied
            if verdict.violation is not None:
                verdict.violation.validate(q, image)

    small = random_profile(rng, nmax=3, mmax=3)
    q, sigma = relabeled(small)
    for c in range(small.m):
        assert distortion_of_candidate(q, sigma[c]).value == distortion_of_candidate(small, c).value

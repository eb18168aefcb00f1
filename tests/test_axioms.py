import itertools
import random
import re
from collections import Counter
from dataclasses import replace
from math import ceil

import pytest
from hypothesis import given, settings, strategies as st

from vetoflow import axioms, cli, matching
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
from vetoflow.matching import (
    CutWitness,
    FlowNetwork,
    build_domination_graph,
    extract_deficiency_witness,
)
from vetoflow.profile_io import parse_profile, serialize_profile
from vetoflow.profiles import PreferenceProfile, all_profiles, dominated_set, reverse_profile
from vetoflow.rules import (
    composite_distortion_rule,
    plurality_matching_winners,
    plurality_veto,
    serial_dictatorship,
)
from tests_support_oracles import pareto_optimal_bruteforce, veto_core_member_pairs, voter_groups
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
    assert fix_p.voters_of(v.witness.types) == [2, 3]
    assert v.witness.dominated == frozenset({0})
    v = veto_core_member(fix_p, 2)
    assert fix_p.voters_of(v.witness.types) == [0, 1]
    assert v.witness.dominated == frozenset({2})
    assert veto_core_member(fix_p, 1).member


def test_veto_witness_on_fix_t(fix_t):
    v = veto_core_member(fix_t, 2)
    assert fix_t.voters_of(v.witness.types) == [0, 1]
    assert v.witness.dominated == frozenset({2})
    v.witness.validate(fix_t, 2)


def test_witness_validation_rejects_tampering(fix_t):
    # fix_t's ballot type t is voter t
    w = veto_core_member(fix_t, 2).witness
    with pytest.raises(ValueError, match="empty"):
        replace(w, types=frozenset()).validate(fix_t, 2)
    # type 2 ranks c first, so with it the types dominate everything
    with pytest.raises(ValueError, match="does not match"):
        replace(w, types=w.types | {2}).validate(fix_t, 2)
    with pytest.raises(ValueError, match="does not match"):
        replace(w, dominated=w.dominated | {0}).validate(fix_t, 2)
    with pytest.raises(ValueError, match="does not match"):
        replace(w, dominated=frozenset()).validate(fix_t, 2)
    # type 0 alone dominates only c, but 1 * 3 is not below 3 * 1
    with pytest.raises(ValueError, match="Hall"):
        replace(w, types=frozenset({0})).validate(fix_t, 2)
    # indices that name no type, and a bool, which would index type 1
    for bad in ({-1}, {3}, {0, 3}, {True}, {0, True}):
        with pytest.raises(ValueError, match=r"ballot type index outside 0\.\.2"):
            replace(w, types=frozenset(bad)).validate(fix_t, 2)


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
    """``veto_core`` is the set a min cut admits candidate by candidate,
    and brute force agrees where it can run.  Returns how many non-members
    the solid-coalition scan decided and how many a min cut decided."""
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
    for p in (PreferenceProfile.of([tuple(range(6))] * 2), PreferenceProfile.of([(0, 1)] * 11)):
        with pytest.raises(ValueError, match="brute force limited to n <= 10, m <= 5"):
            weak_psc_bruteforce(p, [0])


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


def test_a_violation_may_need_all_k_candidates_of_its_prefixes():
    # no solid coalition and no single candidate clears the threshold: the
    # three voters' prefixes down to 0 make up C' = {0, 1}, all k = 2
    p = PreferenceProfile.of([(1, 2, 0), (1, 0, 2), (1, 0, 2), (0, 2, 1)])
    violation = weak_psc_satisfied(p, {1, 2}).violation
    assert violation == PscViolation(frozenset({0, 1}), frozenset({1, 2, 3}), 0)


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


def profiles_of_m(m: int, count: int, seed: int, nmax: int = 40) -> list[PreferenceProfile]:
    """``count`` profiles over m candidates with up to ``nmax`` voters: half
    cast random ballots, half draw from at most four distinct ones."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        ballots = [tuple(rng.sample(range(m), m)) for _ in range(rng.randint(1, 4) if i % 2 else 40)]
        out.append(PreferenceProfile.of([rng.choice(ballots) for _ in range(rng.randint(1, nmax))]))
    return out


def scan_and_flow_cuts(p: PreferenceProfile, sets: list[frozenset[int]], supply: int):
    """The cut ``FlowNetwork.cut`` reads when each voter of ballot type t
    supplies ``supply`` units to ``sets[t]`` and each candidate absorbs n,
    and the cut Dinic leaves on that network, built per type."""
    net = FlowNetwork(p.m, voter_groups(p, sets), supply, p.n)
    return net.cut(), net.solve()[1].cut()


def test_the_psc_scan_gives_the_flows_cuts_and_verdicts_on_every_committee(monkeypatch):
    # both routes on every network and every committee, after no prescan:
    # the same minimal min cut for each candidate x and committee size k,
    # and so the same verdict, witness included
    violated = 0
    for m in range(1, matching.SCAN_MAX_RIGHT + 1):
        for p in profiles_of_m(m, 20 if m < 6 else 6, seed=36 + m):
            for x in range(m):
                prefixes = [frozenset(r[: r.index(x) + 1]) for r, _ in p.ballot_types()]
                for k in range(m):
                    scan, flow = scan_and_flow_cuts(p, prefixes, k + 1)
                    assert scan == flow, (p.rankings, x, k)
            committees = [frozenset(W) for k in range(m) for W in itertools.combinations(range(m), k)]
            scans = [axioms._psc_by_cuts(p, W) for W in committees]
            with monkeypatch.context() as mp:
                mp.setattr(matching, "SCAN_MAX_RIGHT", 0)
                assert [axioms._psc_by_cuts(p, W) for W in committees] == scans, p.rankings
            violated += sum(not verdict.satisfied for verdict in scans)
    assert violated > 1000


def test_psc_networks_keep_only_the_prefixes_of_at_most_k_candidates():
    # a violation's C' has at most k candidates, since |N'| <= n, so x's
    # network needs only the types that rank x within their top k: with
    # the others left out it has the full per-type network's cut, by the
    # scan and by the flow, and an empty cut when no type is left
    violated = emptied = 0
    for m in range(1, matching.SCAN_MAX_RIGHT + 2):
        for p in profiles_of_m(m, 8 if m < 6 else 3, seed=390 + m):
            for W in (frozenset(W) for k in range(m) for W in itertools.combinations(range(m), k)):
                k = len(W)
                for x in set(range(m)) - W:
                    full = [frozenset(r[: r.index(x) + 1]) for r, _ in p.ballot_types()]
                    pruned = [cs if len(cs) <= k else None for cs in full]
                    cuts = {*scan_and_flow_cuts(p, full, k + 1), *scan_and_flow_cuts(p, pruned, k + 1)}
                    assert len(cuts) == 1, (p.rankings, W, x)
                    emptied += not any(pruned)
                violation = weak_psc_satisfied(p, W).violation
                if violation is not None:
                    assert len(violation.prefix_set) <= k, (p.rankings, W)
                    violated += 1
    assert violated > 500 and emptied > 500


def test_the_core_and_psc_decide_by_the_scan_up_to_its_bound_and_by_flows_above(monkeypatch):
    solved = []
    solve = FlowNetwork.solve
    monkeypatch.setattr(FlowNetwork, "solve", lambda net: solved.append(net) or solve(net))
    bound = matching.SCAN_MAX_RIGHT
    rng = random.Random(3636)
    for m in (bound, bound + 1):
        core_flows = psc_flows = 0
        for p in profiles_of_m(m, 12, seed=m):
            committee = frozenset(rng.sample(range(m), rng.randint(0, m - 1)))
            solved.clear()
            core = [veto_core_member(p, c) for c in range(m)]
            core_flows += len(solved)
            solved.clear()
            verdict = weak_psc_satisfied(p, committee)
            psc_flows += len(solved)
            # the other route gives the same verdicts
            with monkeypatch.context() as mp:
                mp.setattr(matching, "SCAN_MAX_RIGHT", m - 1 if m == bound else m)
                assert [veto_core_member(p, c) for c in range(m)] == core, p.rankings
                assert weak_psc_satisfied(p, committee) == verdict, (p.rankings, committee)
        assert bool(core_flows) == bool(psc_flows) == (m > bound)
    # at tiny sizes, with the bound moved, both sides of it meet brute force
    for bound in (1, 2, 3, 4):
        monkeypatch.setattr(matching, "SCAN_MAX_RIGHT", bound)
        for m in (bound, bound + 1):
            for p in profiles_of_m(m, 30, seed=10 * bound + m, nmax=10):
                committee = frozenset(rng.sample(range(m), rng.randint(0, m - 1)))
                fast = weak_psc_satisfied(p, committee).satisfied
                assert fast == weak_psc_bruteforce(p, committee), (p.rankings, committee)
                for c in range(m):
                    fast = veto_core_member(p, c).member
                    assert fast == veto_core_member_bruteforce(p, c), (p.rankings, c)


def test_core_witnesses_are_the_subset_sum_scans_at_any_electorate_size():
    # the scan over the below-c sets, with supply m and capacity n, reads
    # the same Hall witness as the flow, far past the brute force's n <= 12
    vetoed = 0
    for m in range(1, 8):
        for p in profiles_of_m(m, 40, seed=360 + m):
            for c in range(m):
                below = [frozenset(r[r.index(c):]) for r, _ in p.ballot_types()]
                (types, dominated), flow = scan_and_flow_cuts(p, below, m)
                assert (types, dominated) == flow
                expect = CutWitness(types, dominated) if types else None
                assert veto_core_member(p, c).witness == expect, (p.rankings, c)
                vetoed += expect is not None
    assert vetoed > 500


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


def test_the_audit_reports_each_disagreement_and_exits_1(fix_p, monkeypatch, capsys, tmp_path):
    path = tmp_path / "fix_p.prof"
    path.write_text(serialize_profile(fix_p))
    line = {"profile": serialize_profile(fix_p)}

    def audit(**patches):
        with monkeypatch.context() as mp:
            for name, value in patches.items():
                mp.setattr(axioms, name, value)
            code = cli.main(["audit", "equivalence", "--profile", str(path)])
        return code, capsys.readouterr().out.splitlines()

    # no candidate has a matching any more: c2, the core, disagrees with
    # the brute force and PSC, and the core reads empty
    code, out = audit(has_fractional_perfect_matching=lambda net: False)
    assert code == 1 and out == [
        "instances=1 checks=3",
        f"DISCREPANCY {dict(line, candidate='c2', matching=False, bruteforce=True, psc=True)}",
        f"EMPTY-CORE {line}",
        *(f"expected-divergence {dict(line, candidate=c, matching=False, criterion=True)}"
          for c in ("c1", "c3")),
        "status=FAILED"]

    def boom(p, committee):
        raise RuntimeError("boom")

    code, out = audit(weak_psc_satisfied=boom)
    assert code == 1 and out[1:4] == [
        f"DISCREPANCY {dict(line, candidate=c, error=repr(RuntimeError('boom')))}"
        for c in ("c1", "c2", "c3")]
    assert out[4] == f"EMPTY-CORE {line}" and out[-1] == "status=FAILED"


def test_above_the_brute_force_limits_the_audit_compares_the_flow_with_psc(monkeypatch):
    # 13 voters: no brute force, and no second run of the flow in its place
    p = PreferenceProfile.of([(0, 1, 2)] * 7 + [(2, 1, 0)] * 6)
    with monkeypatch.context() as mp:
        mp.setattr(axioms, "veto_core_member_bruteforce", None)
        mp.setattr(axioms, "veto_core_member", None)
        assert equivalence_audit([p]).ok
        mp.setattr(axioms, "has_fractional_perfect_matching", lambda net: False)
        report = equivalence_audit([p])
    # c2, the core, no longer matches; its record holds no brute-force key
    assert report.discrepancies == [{"profile": serialize_profile(p), "candidate": "c2",
                                     "matching": False, "psc": True}]


def test_the_audit_solves_each_domination_graph_by_flow_up_to_the_scan_bound(monkeypatch):
    # the matching column runs Dinic once per candidate, and weak PSC reads
    # the same network by the scan, so the audit sets the two against
    # each other; the Pareto criterion's unit-capacity flows are not counted
    solved = []
    solve = FlowNetwork.solve
    monkeypatch.setattr(FlowNetwork, "solve", lambda net: solved.append(net) or solve(net))
    for m in range(2, matching.SCAN_MAX_RIGHT + 1):
        for p in profiles_of_m(m, 4, seed=370 + m):
            solved.clear()
            assert equivalence_audit([p]).ok, p.rankings
            hall = [net for net in solved if (net.left_supply, net.right_cap) == (p.m, p.n)]
            assert hall == [build_domination_graph(p, c) for c in range(m)], p.rankings


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

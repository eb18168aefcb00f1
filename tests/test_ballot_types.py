"""Identical voters are interchangeable: the max-flow checkers and the eating
rules work per ballot type, and must agree with one-node-per-voter oracles
and with profiles whose ballots were duplicated and shuffled."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, strategies as st

from vetoflow.axioms import (
    pareto_matching_criterion,
    veto_core,
    veto_core_member,
    weak_psc_satisfied,
)
from vetoflow.eating import phragmen_committee, probabilistic_serial, veto_by_consumption_winners
from vetoflow.matching import (
    Dinic,
    FlowNetwork,
    ballot_groups,
    build_domination_graph,
    extract_deficiency_witness,
    fractional_matching,
    max_bipartite_matching,
)
from vetoflow.profiles import (
    PreferenceProfile,
    VoterGroup,
    all_profiles,
    solid_coalitions,
    voter_groups,
)
from tests_support_random import profiles_strategy, random_profiles


def test_ballot_types_in_first_appearance_order(fix_p):
    p = PreferenceProfile.of([(1, 0), (0, 1), (1, 0), (1, 0)])
    assert p.ballot_types() == (((1, 0), (0, 2, 3)), ((0, 1), (1,)))
    assert p.ballot_types() is p.ballot_types()
    # the types are built with the profile but are not one of its fields
    q = PreferenceProfile.of([(1, 0), (0, 1), (1, 0), (1, 0)])
    assert p == q and hash(p) == hash(q)
    assert repr(p) == ("PreferenceProfile(rankings=((1, 0), (0, 1), (1, 0), (1, 0)), "
                       "candidate_names=('c1', 'c2'))")
    assert [bt.voters for bt in fix_p.ballot_types()] == [(0, 1), (2, 3)]
    # voters of one type share their position row
    pos = p.positions()
    assert pos[0] is pos[2] and pos[0] == (1, 0) and pos[1] == (0, 1)


def repeated_profiles(count: int, seed: int):
    """Profiles of up to 40 voters drawing from at most four distinct ballots."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m, types, n = rng.randint(1, 5), rng.randint(1, 4), rng.randint(1, 40)
        ballots = [tuple(rng.sample(range(m), m)) for _ in range(types)]
        out.append(PreferenceProfile.of([rng.choice(ballots) for _ in range(n)]))
    return out


def solid_coalitions_per_voter(p: PreferenceProfile):
    """Each prefix with its supporters, voter by voter, ordered by the
    ballot type of its first supporter and then by length: the order in
    which the PSC scan meets them, and so picks its witness."""
    type_of: dict[tuple[int, ...], int] = {}
    supporters: dict[frozenset[int], list[int]] = {}
    key: dict[frozenset[int], tuple[int, int]] = {}
    for i, r in enumerate(p.rankings):
        type_of.setdefault(r, len(type_of))
        for length in range(1, p.m + 1):
            prefix = frozenset(r[:length])
            supporters.setdefault(prefix, []).append(i)
            key.setdefault(prefix, (type_of[r], length))
    return [(prefix, supporters[prefix]) for prefix in sorted(supporters, key=key.__getitem__)]


def test_solid_coalitions_match_a_per_voter_grouping():
    merged = 0
    for p in [*random_profiles(300, seed=808, nmax=8), *repeated_profiles(150, seed=909)]:
        got = solid_coalitions(p)
        assert [(g.candidates, list(g.members())) for g in got] == solid_coalitions_per_voter(p)
        assert all(g.size == len(g.voters) for g in got)
        merged += any(len(g.runs) > 1 and len(g.candidates) < p.m for g in got)
    # proper prefixes shared by several ballot types must be common, not rare
    assert merged > 100


def networks(p: PreferenceProfile):
    """The domination network of every candidate and the PSC network of
    every candidate and committee size: the grouped FlowNetwork the checkers
    solve, each with the edge sets of its voters read off p.rankings."""
    for c in range(p.m):
        below = tuple(frozenset(r[r.index(c):]) for r in p.rankings)
        yield build_domination_graph(p, c), below
        prefixes = tuple(frozenset(r[: r.index(c) + 1]) for r in p.rankings)
        groups = ballot_groups(p, [frozenset(r[: r.index(c) + 1]) for r, _ in p.ballot_types()])
        for k in range(p.m):
            yield FlowNetwork(p.m, groups, k + 1, p.n), prefixes


def per_voter_flow(net: FlowNetwork, edges) -> tuple[int, frozenset[int]]:
    """Max flow and residual-reachable left nodes, one Dinic node per left
    node, left node i adjacent to ``edges[i]``."""
    sink = net.num_left + net.num_right + 1
    d = Dinic(sink + 1)
    for i in range(net.num_left):
        d.add_edge(0, 1 + i, net.left_supply)
    for i, adj in enumerate(edges):
        for c in sorted(adj):
            d.add_edge(1 + i, 1 + net.num_left + c, net.left_supply)
    for c in range(net.num_right):
        d.add_edge(1 + net.num_left + c, sink, net.right_cap)
    value = d.max_flow(0, sink)
    return value, frozenset(i for i in range(net.num_left) if d.level[1 + i] >= 0)


def test_merged_flow_matches_the_per_voter_network():
    checked = deficient = 0
    for p in repeated_profiles(150, seed=4242):
        for net, edges in networks(p):
            # the groups partition the voters, each voter in the group of its edge set
            members = [list(g.members()) for g in net.groups]
            assert sorted(sum(members, [])) == list(range(p.n)) == list(range(net.num_left))
            assert all(ms == sorted(ms) and len(ms) == g.size for g, ms in zip(net.groups, members))
            assert all(edges[i] == g.candidates for g, ms in zip(net.groups, members) for i in ms)
            assert len(set(net.edges)) == len(net.groups)
            value, flow = net.solve()
            expect_value, expect_side = per_voter_flow(net, edges)
            assert value == expect_value, (p.rankings, net)
            assert flow.source_side() == expect_side, (p.rankings, net)
            checked += 1
            deficient += value < net.num_left * net.left_supply
    # the family must exercise min cuts, not only perfect flows
    assert deficient > checked // 10


def assert_feasible_shares(net: FlowNetwork, edges, value: int, shares) -> None:
    """``shares`` is a flow of ``value`` on the one-node-per-left network:
    row i spends at most left node i's supply, on ``edges[i]`` only, and no
    right node takes more than its capacity."""
    assert len(shares) == net.num_left
    for row, adj in zip(shares, edges):
        assert sum(row) <= 1 and all(x == 0 or c in adj for c, x in enumerate(row))
    for c in range(net.num_right):
        assert sum(row[c] for row in shares) * net.left_supply <= net.right_cap
    assert sum(map(sum, shares)) * net.left_supply == value


def test_unmerged_groups_solve_like_the_merged_network():
    # one group per voter, equal edge sets left unmerged: each voter is its
    # own flow node.  Value and minimal cut are unique, so they equal the
    # merged network's; a max flow is not, so each share table is checked
    # as a flow of that value
    checked = shared = 0
    for p in repeated_profiles(150, seed=4242):
        for net, edges in networks(p):
            per_voter = tuple(VoterGroup(adj, ((i,),)) for i, adj in enumerate(edges))
            single = FlowNetwork(net.num_right, per_voter, net.left_supply, net.right_cap)
            value, flow = net.solve()
            single_value, single_flow = single.solve()
            assert single_value == value, (p.rankings, net)
            assert single_flow.source_side() == flow.source_side(), (p.rankings, net)
            assert len(single_flow.units_sent()) == p.n
            assert_feasible_shares(net, edges, value, flow.shares())
            assert_feasible_shares(net, edges, value, single_flow.shares())
            checked += 1
            shared += len(set(edges)) < len(edges)
    assert shared > checked // 2


def test_pareto_matching_hands_merged_types_to_voters_in_index_order():
    # the per-voter adjacency is the reference: its equal rows merge one
    # voter at a time, while the criterion merges whole ballot types
    interleaved = 0
    for p in repeated_profiles(150, seed=31):
        for c in range(p.m):
            below = [frozenset(r[r.index(c) + 1:]) for r in p.rankings]
            expect = max_bipartite_matching(voter_groups(below, zip(range(p.n))))
            ok, matching = pareto_matching_criterion(p, c)
            assert ok == (len(expect) == p.m - 1), (p.rankings, c)
            if ok:
                assert list(matching.items()) == list(expect.items()), (p.rankings, c)
            types = ballot_groups(p, [frozenset(r[r.index(c) + 1:]) for r, _ in p.ballot_types()])
            interleaved += ok and any(
                len(g.runs) > 1 and list(g.members()) != [i for run in g.runs for i in run]
                for g in types)
    assert interleaved > 20


def flow_outputs(p: PreferenceProfile):
    """Every max-flow result on p, one text line each: core verdicts with
    their witnesses, fractional matching rows, and PSC verdicts with their
    violations for every committee of 1..m-1 candidates."""
    for c in range(p.m):
        v = veto_core_member(p, c)
        w = v.witness
        yield repr((c, v.member, None if w is None else (sorted(w.voters), sorted(w.blocked_by))))
        yield repr(fractional_matching(build_domination_graph(p, c)))
    for k in range(1, p.m):
        for committee in itertools.combinations(range(p.m), k):
            v = weak_psc_satisfied(p, committee)
            x = v.violation
            yield repr((committee, v.satisfied, None if x is None
                        else (sorted(x.supporters), sorted(x.prefix_set), x.alternative)))


# SHA-256 of flow_outputs over the family below; a change to the max-flow
# engine must leave every flow, minimal cut and witness, and so this, alone
FLOW_PIN = "0a151fb56f00ee579e852b09ae5aabe12437f0fcfbcb95f3d5c271b0cdf09463"


def test_flow_outputs_match_the_pinned_digest():
    digest = hashlib.sha256()
    for p in [*all_profiles(3, 3), *repeated_profiles(80, seed=2718)]:
        digest.update(repr(p.rankings).encode())
        for line in flow_outputs(p):
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == FLOW_PIN


def test_merged_flow_value_matches_networkx():
    nx = pytest.importorskip("networkx")
    for p in repeated_profiles(60, seed=99):
        for net, edges in networks(p):
            g = nx.DiGraph()
            for i, adj in enumerate(edges):
                g.add_edge("s", ("v", i), capacity=net.left_supply)
                for c in adj:
                    g.add_edge(("v", i), ("c", c), capacity=net.left_supply)
            for c in range(net.num_right):
                g.add_edge(("c", c), "t", capacity=net.right_cap)
            expect, _ = nx.maximum_flow(g, "s", "t")
            assert net.solve()[0] == expect, (p.rankings, net)


@given(profiles_strategy, st.sampled_from([1, 2, 3]), st.randoms(use_true_random=False))
def test_duplicating_and_shuffling_ballots_changes_nothing(p, k, rnd):
    # voter j of q casts the ballot of voter origin[j] of p
    origin = [i for i in range(p.n) for _ in range(k)]
    rnd.shuffle(origin)
    q = PreferenceProfile(tuple(p.rankings[i] for i in origin), p.candidate_names)

    def lift(voters):
        return frozenset(j for j, i in enumerate(origin) if i in voters)

    assert veto_core(q) == veto_core(p)
    for c in range(p.m):
        a, b = veto_core_member(p, c), veto_core_member(q, c)
        assert a.member == b.member
        if a.witness is not None:
            assert b.witness.voters == lift(a.witness.voters)
            assert b.witness.blocked_by == a.witness.blocked_by
            cut_a, cut_b = extract_deficiency_witness(p, c), extract_deficiency_witness(q, c)
            assert cut_b.voters == lift(cut_a.voters)
            assert cut_b.dominated == cut_a.dominated

    assert veto_by_consumption_winners(q) == veto_by_consumption_winners(p)
    if k == 1:
        # a pure voter permutation: each share row moves with its voter
        shares = probabilistic_serial(p).shares
        assert probabilistic_serial(q).shares == tuple(shares[i] for i in origin)
    for size in range(p.m + 1):
        committee = phragmen_committee(p, size)
        assert phragmen_committee(q, size) == committee
        verdict_p, verdict_q = weak_psc_satisfied(p, committee), weak_psc_satisfied(q, committee)
        assert verdict_q.satisfied == verdict_p.satisfied
        if verdict_q.violation is not None:
            verdict_q.violation.validate(q, frozenset(committee))

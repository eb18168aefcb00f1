"""Identical voters are interchangeable: the max-flow checkers and the eating
rules work per ballot type, and must agree with one-node-per-voter oracles
and with profiles whose ballots were duplicated and shuffled."""

import hashlib
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from vetoflow import axioms
from vetoflow.axioms import (
    PscViolation,
    pareto_matching_criterion,
    veto_core,
    veto_core_member,
    weak_psc_satisfied,
)
from vetoflow.eating import phragmen_committee, probabilistic_serial, veto_by_consumption_winners
from vetoflow.matching import (
    Dinic,
    FlowNetwork,
    build_domination_graph,
    max_bipartite_matching,
)
from vetoflow.profiles import (
    MAX_VOTERS,
    PreferenceProfile,
    VoterGroup,
    all_profiles,
    clone_expand,
)
from vetoflow.profile_io import gen_impartial_culture, parse_profile
from tests_support_oracles import (
    fractional_matching_rows, solid_groups, voter_flow_shares, voter_groups)
from tests_support_random import (
    distinct_ballots,
    profiles_strategy,
    random_profiles,
    repeated_profiles,
)


def test_ballot_types_in_first_appearance_order(fix_p):
    p = PreferenceProfile.of([(1, 0), (0, 1), (1, 0), (1, 0)])
    assert p.ballot_types() == (((1, 0), 3), ((0, 1), 1))
    assert [p.voters_of([t]) for t in (0, 1)] == [[0, 2, 3], [1]]
    assert p.ballot_types() is p.ballot_types()
    # the types are built with the profile but are not one of its fields
    q = PreferenceProfile.of([(1, 0), (0, 1), (1, 0), (1, 0)])
    assert p == q and hash(p) == hash(q)
    assert repr(p) == ("PreferenceProfile(runs=(((1, 0), 1), ((0, 1), 1), ((1, 0), 2)), "
                       "candidate_names=('c1', 'c2'))")
    assert [fix_p.voters_of([t]) for t in (0, 1)] == [[0, 1], [2, 3]]
    # voters of one type share their position row
    pos = p.positions()
    assert pos[0] is pos[2] and pos[0] == (1, 0) and pos[1] == (0, 1)


def test_verdicts_allocate_nothing_per_voter():
    # MAX_VOTERS voters in four runs: construction, the eating rules, the
    # core with every candidate's verdict and validated Hall witness, and a
    # PSC check work on the ballot types alone, far below the memory of one
    # index per voter
    runs = (((0, 1, 2, 3), 400_000), ((3, 2, 1, 0), 300_000),
            ((1, 3, 0, 2), 200_000), ((2, 0, 3, 1), 100_000))
    tracemalloc.start()
    try:
        p = PreferenceProfile(runs, ("a", "b", "c", "d"))
        winners = veto_by_consumption_winners(p)
        committee = phragmen_committee(p, 2)
        core = veto_core(p)
        witnesses = [veto_core_member(p, c).witness for c in range(p.m)]
        for c, w in enumerate(witnesses):
            if w is not None:
                w.validate(p, c)
        satisfied = weak_psc_satisfied(p, committee).satisfied
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert p.n == MAX_VOTERS
    assert (winners, committee, core, satisfied) == ({1}, (0, 1), {1}, True)
    assert peak < 1 << 20
    assert [w and w.types for w in witnesses] == [{1}, None, {0, 2}, {0}]


def test_a_core_whose_non_members_solid_coalitions_veto_allocates_nothing_per_voter():
    # the 900 000 voters of top set {0} veto 1, 2 and 3, so the core reads
    # one min cut, for 0, and spells out no witness's voters
    runs = (((0, 1, 2, 3), 300_000), ((0, 1, 3, 2), 300_000),
            ((0, 2, 3, 1), 300_000), ((1, 2, 3, 0), 100_000))
    tracemalloc.start()
    try:
        p = PreferenceProfile(runs, ("a", "b", "c", "d"))
        core = veto_core(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert p.n == MAX_VOTERS and core == {0}
    assert peak < 1 << 20
    small = PreferenceProfile(tuple((r, count // 100_000) for r, count in runs), p.candidate_names)
    assert [c for c in range(small.m) if veto_core_member(small, c).member] == [0]


def grouping_per_voter(rankings) -> list[tuple[tuple[int, ...], list[int]]]:
    """Each distinct ranking with its voters, ranking by ranking in order
    of first voter, found voter by voter on the ranking's value."""
    voters: dict[tuple[int, ...], list[int]] = {}
    for i, r in enumerate(rankings):
        voters.setdefault(tuple(r), []).append(i)
    return list(voters.items())


@st.composite
def ballot_runs(draw):
    """Rankings drawn from a small pool in runs: a run repeats one ranking
    either as one shared tuple (as count lines give it) or as equal but
    distinct tuples, and runs of one ranking may be interleaved with others.
    Pool entries may repeat, so equal rankings also come from separate
    draws."""
    m = draw(st.integers(1, 4))
    pool = draw(st.lists(st.permutations(range(m)).map(tuple), min_size=1, max_size=4))
    return draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 4), st.booleans()),
                         min_size=1, max_size=8))


def assert_grouped_like_the_reference(p: PreferenceProfile, data) -> None:
    expect = grouping_per_voter(p.rankings)
    assert p.ballot_types() == tuple((r, len(vs)) for r, vs in expect)
    assert [p.voters_of([t]) for t in range(len(expect))] == [vs for _, vs in expect]
    # any set of types: their voters, read off the rankings
    types = data.draw(st.sets(st.integers(0, len(expect) - 1)))
    cast = {expect[t][0] for t in types}
    assert p.voters_of(types) == [i for i, r in enumerate(p.rankings) if r in cast]
    type_of = {i: t for t, (_, vs) in enumerate(expect) for i in vs}
    values = [object() for _ in expect]
    spread = p.per_voter(values)
    assert len(spread) == p.n
    assert all(spread[i] is values[type_of[i]] for i in range(p.n))
    pos = p.positions()
    assert all(pos[i][c] == r.index(c) for i, r in enumerate(p.rankings) for c in range(p.m))
    assert all(pos[i] is pos[expect[type_of[i]][1][0]] for i in range(p.n))
    chosen = data.draw(st.sets(st.integers(0, p.n - 1)))
    assert p.ballot_types_of(chosen) == tuple(
        bt for bt, (_, vs) in zip(p.ballot_types(), expect) if chosen.intersection(vs))
    assert p.ballot_types_of(list(chosen)) == p.ballot_types_of(chosen)
    for outside in (-1, p.n):
        with pytest.raises(ValueError, match="outside"):
            p.ballot_types_of([*chosen, outside])


@given(ballot_runs(), st.data())
def test_grouping_matches_a_per_voter_reference(runs, data):
    rankings = []
    for r, count, shared in runs:
        rankings += [r] * count if shared else [tuple(list(r)) for _ in range(count)]
    per_voter = PreferenceProfile.of(rankings)
    assert_grouped_like_the_reference(per_voter, data)
    # count lines, one per run, may repeat a ranking on adjacent and
    # non-adjacent lines
    text = "".join(f"{count}: {','.join(str(c + 1) for c in r)}\n" for r, count, _ in runs)
    parsed = parse_profile(text)
    assert parsed.rankings == tuple(rankings)
    assert_grouped_like_the_reference(parsed, data)
    # the same election as runs cut at random points, so that adjacent runs
    # cast one ranking
    split = []
    for r, count, _ in runs:
        cuts = sorted(data.draw(st.sets(st.integers(1, count - 1)))) if count > 1 else []
        split += [(r, b - a) for a, b in zip([0, *cuts], [*cuts, count])]
    direct = PreferenceProfile(tuple(split), per_voter.candidate_names)
    assert_grouped_like_the_reference(direct, data)
    # all three store the same merged runs and give the same views
    three = (per_voter, parsed, direct)
    assert all(q == per_voter and hash(q) == hash(per_voter) for q in three)
    merged = [(r, sum(count for _, count in g))
              for r, g in itertools.groupby(split, key=lambda run: run[0])]
    values = [object() for _ in per_voter.ballot_types()]
    chosen = data.draw(st.sets(st.integers(0, per_voter.n - 1)))
    views = [(q.runs, q.rankings, q.ballot_types(), q.per_voter(values), q.positions(),
              q.ballot_types_of(chosen)) for q in three]
    assert views == [views[0]] * 3
    assert list(per_voter.runs) == merged
    # each run carries its ballot type's one ranking tuple
    assert all(any(r is bt.ranking for bt in q.ballot_types()) for q in three for r, _ in q.runs)


def solid_coalitions_per_voter(p: PreferenceProfile, depth: int | None = None):
    """Each prefix of at most ``depth`` candidates (default m) with its
    supporters, voter by voter, ordered by the ballot type of its first
    supporter and then by length: the order in which the PSC scan meets
    them, and so picks its witness."""
    type_of: dict[tuple[int, ...], int] = {}
    supporters: dict[frozenset[int], list[int]] = {}
    key: dict[frozenset[int], tuple[int, int]] = {}
    for i, r in enumerate(p.rankings):
        type_of.setdefault(r, len(type_of))
        for length in range(1, (p.m if depth is None else depth) + 1):
            prefix = frozenset(r[:length])
            supporters.setdefault(prefix, []).append(i)
            key.setdefault(prefix, (type_of[r], length))
    return [(prefix, supporters[prefix]) for prefix in sorted(supporters, key=key.__getitem__)]


def test_solid_coalitions_match_a_per_voter_grouping():
    # at depth m and at a random smaller depth, where several ballot types
    # share one head
    rng = random.Random(1010)
    merged = 0
    for p in [*random_profiles(300, seed=808, nmax=8), *repeated_profiles(150, seed=909)]:
        for depth in (rng.randint(0, p.m - 1), p.m):
            got = solid_groups(p, depth)
            got_voters = [(g.candidates, p.voters_of(g.types)) for g in got]
            assert got_voters == solid_coalitions_per_voter(p, depth)
            assert all(g.size == len(vs) for g, (_, vs) in zip(got, got_voters))
        merged += any(len(g.types) > 1 and len(g.candidates) < p.m for g in got)
    # proper prefixes shared by several ballot types must be common, not rare
    assert merged > 100


def test_groups_below_match_a_per_type_grouping():
    # the groups a profile keeps for c merge the ballot types by each
    # type's own set of candidates weakly below c
    for p in [*all_profiles(3, 3), *repeated_profiles(150, seed=1717)]:
        for c in range(p.m):
            expect = voter_groups(p, [frozenset(r[r.index(c):]) for r, _ in p.ballot_types()])
            assert p.groups_below(c) == expect, (p.rankings, c)


def test_the_profile_keeps_its_grouped_views():
    p = PreferenceProfile.of([(0, 1, 2), (2, 1, 0), (0, 1, 2), (1, 0, 2)])
    assert all(p.groups_below(c) is p.groups_below(c) for c in range(p.m))
    # each candidate keeps its own groups, asked for in any order
    assert p.groups_below(2) == (VoterGroup(frozenset({2}), (0, 2), 3),
                                 VoterGroup(frozenset({0, 1, 2}), (1,), 1))
    assert p.groups_below(0) == (VoterGroup(frozenset({0, 1, 2}), (0,), 2),
                                 VoterGroup(frozenset({0}), (1,), 1),
                                 VoterGroup(frozenset({0, 2}), (2,), 1))
    # the kept views are not fields of the profile
    q = PreferenceProfile.of(p.rankings)
    assert p == q and hash(p) == hash(q)


def test_psc_and_pareto_networks_match_a_per_type_build(monkeypatch):
    # each network the checkers build must be the one grouped from each
    # ballot type's own edge set: for PSC, every type whose weak prefix down
    # to x has at most k candidates, for each x that ends one such prefix
    built, matched = [], []

    def record_network(*args, **kwargs):
        built.append(FlowNetwork(*args, **kwargs))
        return built[-1]

    def record_matching(p, groups):
        matched.append(tuple(groups))
        return max_bipartite_matching(p, groups)

    monkeypatch.setattr("vetoflow.axioms.FlowNetwork", record_network)
    monkeypatch.setattr("vetoflow.axioms.max_bipartite_matching", record_matching)
    rng = random.Random(1212)
    flows = 0
    for p in [*random_profiles(150, seed=1313, nmax=10), *repeated_profiles(150, seed=1414)]:
        for _ in range(3):
            committee = frozenset(rng.sample(range(p.m), rng.randint(0, p.m - 1)))
            k = len(committee)
            prefixes = {x: [frozenset(r[: r.index(x) + 1]) if r.index(x) < k else None
                            for r, _ in p.ballot_types()] for x in range(p.m)}
            expect = [FlowNetwork(p.m, voter_groups(p, sets), k + 1, p.n)
                      for x, sets in prefixes.items() if x not in committee and any(sets)]
            built.clear()
            verdict = axioms._psc_by_cuts(p, committee)
            # the networks are read in candidate order, up to the first violation
            assert built == expect[:len(built)], (p.rankings, committee)
            assert verdict.violation is not None or built == expect
            flows += len(built)
        for c in range(p.m):
            matched.clear()
            pareto_matching_criterion(p, c)
            below = [frozenset(r[r.index(c) + 1:]) for r, _ in p.ballot_types()]
            assert matched == [voter_groups(p, below)], (p.rankings, c)
    assert flows > 500


def test_a_cloned_domination_graph_groups_only_its_candidate():
    # a plurality-cloned profile has as many candidates as voters; grouping
    # the ballot types below every candidate at once would hold hundreds of
    # MiB here, one candidate's groups well under one
    p = gen_impartial_culture(1000, 5, seed=11)
    ce = clone_expand(p)
    tracemalloc.start()
    try:
        net = build_domination_graph(ce.expanded, ce.clones[0][0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ce.expanded.m == 1000 and net.num_left == 1000
    assert peak < 8 * 2**20, peak


def test_weak_psc_on_wide_ballots_walks_only_the_top_k():
    # two ballot types over 2000 candidates and a committee of one: only
    # each type's first candidate can end a violation's prefix, so the
    # checker builds one network of one group, not one of every type per x
    m = 2000
    names = tuple(f"c{j}" for j in range(m))
    up, down = tuple(range(m)), tuple(reversed(range(m)))
    p = PreferenceProfile(((up, 3), (down, 2)), names)
    tracemalloc.start()
    try:
        verdict = weak_psc_satisfied(p, {0})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 2 voters ranking m - 1 first fall short of 2 (k + 1) > n = 5
    assert verdict.satisfied
    assert peak < 2**20, peak
    # 3 of them clear it
    p = PreferenceProfile(((up, 2), (down, 3)), names)
    assert weak_psc_satisfied(p, {0}).violation == PscViolation(
        frozenset({m - 1}), frozenset({2, 3, 4}), m - 1)


def test_the_core_on_wide_ballots_walks_int_masks():
    # the same two types: the 3 voters ranking 0 first veto every candidate
    # outside their top 801, the 2 ranking m - 1 first every candidate
    # outside their top 1201, so only 799 and 800 go to a min cut, and both
    # are members; the walk keeps an int mask per prefix, not its candidates
    m = 2000
    names = tuple(f"c{j}" for j in range(m))
    up, down = tuple(range(m)), tuple(reversed(range(m)))
    p = PreferenceProfile(((up, 3), (down, 2)), names)
    tracemalloc.start()
    try:
        core = veto_core(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert core == {799, 800}
    assert peak < 4 * 2**20, peak


def psc_prescan_reference(p: PreferenceProfile, committee: frozenset[int]):
    """The first solid coalition, voter by voter off p.rankings, that
    clears the Droop threshold with a candidate outside the committee: its
    supporters and that candidate's least index, or None."""
    k = len(committee)
    for prefix, voters in solid_coalitions_per_voter(p):
        outside = prefix - committee
        if outside and len(voters) * (k + 1) > len(prefix) * p.n:
            return frozenset(voters), min(outside)
    return None


class NoFlowViolation:
    """A stand-in for the PSC networks whose min cut is empty, by scan or
    by flow, so a verdict shows the solid-coalition scan alone."""

    def __init__(self, num_right, groups, left_supply, right_cap):
        pass

    def cut(self):
        return frozenset(), frozenset()


def test_psc_prescan_matches_a_full_solid_coalition_scan(monkeypatch):
    rng = random.Random(2024)
    found = full = 0
    for p in [*random_profiles(200, seed=515, nmax=10), *repeated_profiles(200, seed=616)]:
        for _ in range(3):
            committee = frozenset(rng.sample(range(p.m), rng.randint(0, p.m - 1)))
            expect = psc_prescan_reference(p, committee)
            full_verdict = weak_psc_satisfied(p, committee)
            monkeypatch.setattr("vetoflow.axioms.FlowNetwork", NoFlowViolation)
            viol = weak_psc_satisfied(p, committee).violation
            monkeypatch.undo()
            got = None if viol is None else (viol.supporters, viol.alternative)
            assert got == expect
            if viol is not None:
                # the scan runs before any flow, so the full check agrees
                assert full_verdict.violation == viol
                found += 1
            full += full_verdict.violation is not None
    # the scan must meet violations often, and the flows must add some
    assert found > 100 and full > found


def networks(p: PreferenceProfile):
    """The domination network of every candidate and the PSC network of
    every candidate and committee size: the grouped FlowNetwork the checkers
    solve, each with the edge sets of its voters read off p.rankings."""
    for c in range(p.m):
        below = tuple(frozenset(r[r.index(c):]) for r in p.rankings)
        yield build_domination_graph(p, c), below
        prefixes = tuple(frozenset(r[: r.index(c) + 1]) for r in p.rankings)
        groups = voter_groups(p, [frozenset(r[: r.index(c) + 1]) for r, _ in p.ballot_types()])
        for k in range(p.m):
            yield FlowNetwork(p.m, groups, k + 1, p.n), prefixes


def per_voter_flow(net: FlowNetwork, edges) -> tuple[int, frozenset[int], frozenset[int]]:
    """Max flow, residual-reachable left nodes and the right nodes those
    have edges to, one Dinic node per left node, left node i adjacent to
    ``edges[i]``."""
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
    side = frozenset(i for i in range(net.num_left) if d.level[1 + i] >= 0)
    return value, side, frozenset().union(*(edges[i] for i in side))


def test_merged_flow_matches_the_per_voter_network():
    checked = deficient = 0
    for p in repeated_profiles(150, seed=4242):
        for net, edges in networks(p):
            # the groups partition the voters, each voter in the group of its edge set
            members = [p.voters_of(g.types) for g in net.groups]
            assert sorted(sum(members, [])) == list(range(p.n)) == list(range(net.num_left))
            assert all(ms == sorted(ms) and len(ms) == g.size for g, ms in zip(net.groups, members))
            assert all(edges[i] == g.candidates for g, ms in zip(net.groups, members) for i in ms)
            assert len(set(net.edges)) == len(net.groups)
            value, flow = net.solve()
            expect_value, expect_side, expect_right = per_voter_flow(net, edges)
            assert value == expect_value, (p.rankings, net)
            types, right = flow.cut()
            voters = frozenset(p.voters_of(types))
            assert (voters, right) == (expect_side, expect_right), (p.rankings, net)
            # the cut holds a voter exactly when some supply is left unsent
            assert (not voters) == (value == net.num_left * net.left_supply)
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
            per_voter = tuple(VoterGroup(adj, (i,), 1) for i, adj in enumerate(edges))
            single = FlowNetwork(net.num_right, per_voter, net.left_supply, net.right_cap)
            value, flow = net.solve()
            single_value, single_flow = single.solve()
            assert single_value == value, (p.rankings, net)
            cut = frozenset(p.voters_of(flow.cut()[0]))
            assert single_flow.cut()[0] == cut, (p.rankings, net)
            assert len(single_flow.units_sent()) == p.n
            assert_feasible_shares(net, edges, value, voter_flow_shares(p, flow))
            # the single network's group i is voter i, as type i of distinct ballots
            assert_feasible_shares(
                net, edges, value, voter_flow_shares(distinct_ballots(p.n), single_flow))
            checked += 1
            shared += len(set(edges)) < len(edges)
    assert shared > checked // 2


def test_pareto_matching_hands_merged_types_to_voters_in_index_order():
    # the per-voter adjacency is the reference, on voters that each cast
    # their own ballot: its equal rows merge one voter at a time, while the
    # criterion merges whole ballot types
    interleaved = 0
    for p in repeated_profiles(150, seed=31):
        for c in range(p.m):
            below = [frozenset(r[r.index(c) + 1:]) for r in p.rankings]
            q = distinct_ballots(p.n)
            expect = max_bipartite_matching(q, voter_groups(q, below))
            ok, matching = pareto_matching_criterion(p, c)
            assert ok == (len(expect) == p.m - 1), (p.rankings, c)
            if ok:
                assert list(matching.items()) == list(expect.items()), (p.rankings, c)
            groups = voter_groups(p, [frozenset(r[r.index(c) + 1:]) for r, _ in p.ballot_types()])
            interleaved += ok and any(
                len(g.types) > 1
                and p.voters_of(g.types) != [i for t in g.types for i in p.voters_of([t])]
                for g in groups)
    assert interleaved > 20


def flow_outputs(p: PreferenceProfile):
    """Every max-flow result on p, one text line each: core verdicts with
    their witnesses, fractional matching rows, and PSC verdicts with their
    violations for every committee of 1..m-1 candidates."""
    for c in range(p.m):
        v = veto_core_member(p, c)
        w = v.witness
        # the candidates outside the dominated set, which block c
        blocked = None if w is None else sorted(set(range(p.m)) - w.dominated)
        yield repr((c, v.member, None if w is None else (p.voters_of(w.types), blocked)))
        yield repr(fractional_matching_rows(p, c))
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
    q = PreferenceProfile.of(tuple(p.rankings[i] for i in origin), p.candidate_names)

    def lift(voters):
        return frozenset(j for j, i in enumerate(origin) if i in voters)

    assert veto_core(q) == veto_core(p)
    for c in range(p.m):
        a, b = veto_core_member(p, c), veto_core_member(q, c)
        assert a.member == b.member
        if a.witness is not None:
            assert frozenset(q.voters_of(b.witness.types)) == lift(p.voters_of(a.witness.types))
            assert b.witness.dominated == a.witness.dominated

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

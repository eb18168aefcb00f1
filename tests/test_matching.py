import random
from fractions import Fraction

import pytest

from vetoflow import matching
from vetoflow.matching import (
    CutWitness,
    Dinic,
    FlowNetwork,
    build_domination_graph,
    extract_deficiency_witness,
    has_fractional_perfect_matching,
    max_bipartite_matching,
)
from vetoflow.profiles import PreferenceProfile, VoterGroup, dominated_set
from tests_support_oracles import fractional_matching_rows, hall_check_bruteforce, voter_groups
from tests_support_random import distinct_ballots, random_profiles


def one_group_per_row(rows):
    """Voter groups with left node i alone on ``rows[i]``, on a profile
    whose voter i is ballot type i; equal rows merge."""
    return voter_groups(distinct_ballots(len(rows)), list(map(frozenset, rows)))


def matching_of(rows):
    """The maximum matching with left node i adjacent to ``rows[i]``."""
    return max_bipartite_matching(distinct_ballots(len(rows)), one_group_per_row(rows))


def test_dinic_on_a_small_network():
    # source 0, two middles, sink 3; bottleneck 3
    d = Dinic(4)
    d.add_edge(0, 1, 2)
    d.add_edge(0, 2, 2)
    d.add_edge(1, 3, 1)
    d.add_edge(2, 3, 2)
    assert d.max_flow(0, 3) == 3
    # saturated arcs cut 1 off; 0 and 1 stay connected through the residual
    assert [u for u, level in enumerate(d.level) if level >= 0] == [0, 1]


def test_domination_graph_edges(fix_p):
    g = build_domination_graph(fix_p, 1)
    assert [(grp.candidates, grp.types, grp.size) for grp in g.groups] == [
        (frozenset({1, 2}), (0,), 2),
        (frozenset({0, 1}), (1,), 2),
    ]
    assert [fix_p.voters_of(grp.types) for grp in g.groups] == [[0, 1], [2, 3]]


def test_domination_graph_validation():
    with pytest.raises(ValueError, match="out of range"):
        FlowNetwork(2, one_group_per_row([{0, 5}]), left_supply=2, right_cap=1)
    # edge num_right would be wired to the sink, edge -1 to a left node
    with pytest.raises(ValueError, match="out of range"):
        FlowNetwork(1, one_group_per_row([{1}]), left_supply=1, right_cap=0)
    with pytest.raises(ValueError, match="out of range"):
        FlowNetwork(1, one_group_per_row([{-1}]), left_supply=1, right_cap=1)
    # the check covers every group, not only the first
    good, bad = {0}, {1}
    with pytest.raises(ValueError, match="out of range"):
        FlowNetwork(1, one_group_per_row([good, bad, good, bad]), left_supply=1, right_cap=4)


def test_domination_graph_groups_hold_every_voter(fix_p):
    g = build_domination_graph(fix_p, 1)
    # groups built per voter hold the same voters under the same edge sets
    bare = distinct_ballots(fix_p.n)
    per_voter = one_group_per_row([r[r.index(1):] for r in fix_p.rankings])
    assert [(grp.candidates, bare.voters_of(grp.types)) for grp in per_voter] == [
        (grp.candidates, fix_p.voters_of(grp.types)) for grp in g.groups]
    assert (g.num_left, g.num_right, g.left_supply, g.right_cap) == (4, 3, 3, 4)


def test_fix_p_middle_candidate_has_matching(fix_p):
    g = build_domination_graph(fix_p, 1)
    assert has_fractional_perfect_matching(g)
    mu = fractional_matching_rows(fix_p, 1)
    assert mu is not None
    for row in mu:
        assert sum(row) == 1
    for c in range(3):
        assert sum(row[c] for row in mu) == Fraction(4, 3)
    # weights only sit on edges of the graph: candidates weakly below c2
    for r, row in zip(fix_p.rankings, mu):
        for c, w in enumerate(row):
            assert w == 0 or c in r[r.index(1):]


def test_fix_t_worst_candidate_has_no_matching(fix_t):
    g = build_domination_graph(fix_t, 2)
    assert not has_fractional_perfect_matching(g)
    assert fractional_matching_rows(fix_t, 2) is None
    w = extract_deficiency_witness(fix_t, 2)
    assert w is not None
    assert {0, 1} <= set(fix_t.voters_of(w.types))
    assert w.dominated == frozenset({2})
    w.validate(fix_t, 2)


def test_witness_none_when_matching_exists(fix_p):
    assert extract_deficiency_witness(fix_p, 1) is None


def test_single_candidate_always_matches():
    p = PreferenceProfile.of([(0,), (0,), (0,)])
    assert has_fractional_perfect_matching(build_domination_graph(p, 0))


def test_cut_witness_validation(fix_t):
    # fix_t's ballot type t is voter t
    with pytest.raises(ValueError, match="empty"):
        CutWitness(frozenset(), frozenset()).validate(fix_t, 2)
    with pytest.raises(ValueError, match="dominated"):
        CutWitness(frozenset({0, 1}), frozenset({1, 2})).validate(fix_t, 2)
    with pytest.raises(ValueError, match="Hall"):
        # type 2 ranks c on top, so this cut dominates everything
        CutWitness(frozenset({2}), dominated_set(fix_t, 2, [2])).validate(fix_t, 2)
    # the veto core's only witness check, so each clause alone must refuse:
    # type 0 dominates only c, and 1 * 3 = 3 * 1 is no strict violation
    with pytest.raises(ValueError, match="Hall"):
        CutWitness(frozenset({0}), frozenset({2})).validate(fix_t, 2)
    # type 0, voters 0-3, ranks 3 below 2 and dominates {2, 3}: 2 * 6 < 4 * 4
    # holds on its four voters, not on its one type, so each strict part of
    # that set passes the Hall test and must fail the dominated-set test
    p = PreferenceProfile.of([(0, 1, 2, 3)] * 4 + [(3, 2, 1, 0)] * 2)
    w = CutWitness(frozenset({0}), frozenset({2, 3}))
    w.validate(p, 2)
    for part in ({2}, {3}, set()):
        with pytest.raises(ValueError, match="dominated set does not match"):
            CutWitness(w.types, frozenset(part)).validate(p, 2)
    # an added type, an index that names no type, and a bool
    with pytest.raises(ValueError, match="dominated set does not match"):
        CutWitness(w.types | {1}, w.dominated).validate(p, 2)
    for bad in ({-1}, {2}, {0, 2}, {True}, {0, 1.0}):
        with pytest.raises(ValueError, match=r"ballot type index outside 0\.\.1"):
            CutWitness(frozenset(bad), w.dominated).validate(p, 2)


def test_hall_bruteforce_agrees_on_fixtures(fix_p, fix_t):
    for p in (fix_p, fix_t):
        for c in range(p.m):
            g = build_domination_graph(p, c)
            assert hall_check_bruteforce(p, c) == has_fractional_perfect_matching(g)


def test_hall_bruteforce_agrees_on_random_profiles():
    for p in random_profiles(300, seed=2024, nmax=8, mmax=5):
        for c in range(p.m):
            g = build_domination_graph(p, c)
            assert hall_check_bruteforce(p, c) == has_fractional_perfect_matching(g), (
                p.rankings,
                c,
            )


def test_witness_extraction_on_random_profiles():
    rng = random.Random(31)
    for p in random_profiles(200, seed=77, nmax=6, mmax=5):
        c = rng.randrange(p.m)
        w = extract_deficiency_witness(p, c)
        g = build_domination_graph(p, c)
        if has_fractional_perfect_matching(g):
            assert w is None
        else:
            w.validate(p, c)


def test_max_bipartite_matching_basics():
    assert matching_of([[]]) == {}
    assert matching_of([[0], [0]]) in ({0: 0}, {1: 0})
    complete = matching_of([[0, 1, 2]] * 3)
    assert sorted(complete) == [0, 1, 2]
    assert sorted(complete.values()) == [0, 1, 2]
    crossed = matching_of([[1], [0, 1]])
    assert crossed == {0: 1, 1: 0}


def test_max_bipartite_matching_respects_adjacency():
    rng = random.Random(5)
    for _ in range(100):
        left, right = rng.randint(1, 6), rng.randint(1, 6)
        adjacency = [
            [j for j in range(right) if rng.random() < 0.5] for _ in range(left)
        ]
        mu = matching_of(adjacency)
        assert len(set(mu.values())) == len(mu)
        for i, j in mu.items():
            assert j in adjacency[i]


def test_max_bipartite_matching_follows_long_augmenting_paths():
    # the last left vertex displaces the whole chain of 3000 before it, far
    # deeper than Python's default recursion limit; the 3001 voters cast the
    # first 3001 permutations of range(7)
    adjacency = [[i, i + 1] for i in range(3000)] + [[0]]
    mu = matching_of(adjacency)
    assert len(mu) == 3001
    assert mu[3000] == 0 and mu[0] == 1 and mu[2999] == 3000


def test_flow_network_follows_long_augmenting_paths():
    # the last phase augments along one path through every left node, far
    # deeper than Python's default recursion limit
    edges = tuple(frozenset({i, i + 1}) for i in range(3000)) + (frozenset({0}),)
    groups = voter_groups(distinct_ballots(3001), edges)
    value, flow = FlowNetwork(3001, groups, left_supply=1, right_cap=1).solve()
    assert value == 3001
    assert flow.cut()[0] == frozenset()
    sent = flow.units_sent()
    assert len(sent) == 3001
    assert sent[3000] == {0: 1}
    assert sent[0] == {1: 1}
    assert sent[1:3000] == [{i + 1: 1} for i in range(1, 3000)]


def random_network(rng: random.Random) -> FlowNetwork:
    """A network of up to ``SCAN_MAX_RIGHT`` right nodes, some of which no
    group reaches; edge sets may be empty or shared, and supplies and
    capacities may be 0."""
    num_right = rng.randint(0, matching.SCAN_MAX_RIGHT)
    reached = rng.sample(range(num_right), rng.randint(0, num_right))
    groups, types = [], 0
    for _ in range(rng.randint(0, 8)):
        size = rng.randint(1, 4)
        edges = frozenset(rng.sample(reached, rng.randint(0, len(reached))))
        groups.append(VoterGroup(edges, tuple(range(types, types + size)), size))
        types += size
    return FlowNetwork(num_right, tuple(groups), rng.choice((0, 1, 1, 2, 3, 5)),
                       rng.choice((0, 1, 2, 3, 4, 7)))


def test_the_subset_sum_cut_is_the_flows_minimal_min_cut():
    rng = random.Random(3737)
    cuts = 0
    for _ in range(4000):
        net = random_network(rng)
        cut = net.cut()
        assert cut == net.solve()[1].cut(), net
        cuts += bool(cut[0])
    assert 1000 < cuts < 3000


def test_max_bipartite_matching_splits_shared_rows_by_index():
    # rows 0, 2 and 3 are equal and share a flow node: its two matched right
    # nodes go, ascending, to the two lowest-index rows
    rows = [[2, 1], [0], [1, 2], [2, 1]]
    assert matching_of(rows) == {0: 1, 1: 0, 2: 2}

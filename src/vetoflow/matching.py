"""Domination graphs, fractional perfect matchings, and their certificates.

The central question: given a candidate c, can the voters be fractionally
matched to candidates so that every voter only uses candidates they rank
weakly below c, every voter hands out total weight 1, and every candidate
receives exactly n/m?  Scaling by m turns this into an integral max-flow
problem: voter supply m, candidate capacity n, and a perfect matching exists
iff the max flow is n*m.  The domination graph is built as that network
directly: ``FlowNetwork`` is the one network type, and it checks its own
edge endpoints.  Voters with the same edge set are interchangeable, so they
share one network node carrying their joint supply: a network takes its
left side as ``VoterGroup``s from ``profiles``, each an edge set (the
group's candidates) with its voters, built straight from the profile's
ballot types.  Solving a network and reading back its cut therefore never
walks the n voters; only outputs that are per voter (a witness's voter
set, a matching's rows) touch them.

When no matching exists, a Hall-style deficiency witness falls out of the
min cut: a voter set N' whose jointly dominated candidates D satisfy
|D| < m*|N'|/n.  The same Dinic engine, at unit capacities, finds the
one-to-one matchings of the Pareto-matching criterion.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .profiles import PreferenceProfile, VoterGroup, dominated_set, voter_groups


class Dinic:
    """Max flow with integer capacities, deterministic given insertion order."""

    def __init__(self, num_nodes: int) -> None:
        self.graph: list[list[list[int]]] = [[] for _ in range(num_nodes)]

    def add_edge(self, u: int, v: int, cap: int) -> None:
        # forward edge stores [target, capacity, index of reverse edge]
        self.graph[u].append([v, cap, len(self.graph[v])])
        self.graph[v].append([u, 0, len(self.graph[u]) - 1])

    def _bfs(self, s: int, t: int) -> bool:
        self.level = [-1] * len(self.graph)
        self.level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v, cap, _ in self.graph[u]:
                if cap > 0 and self.level[v] < 0:
                    self.level[v] = self.level[u] + 1
                    queue.append(v)
        return self.level[t] >= 0

    def max_flow(self, s: int, t: int) -> int:
        """The max flow value from s to t.  Each phase walks the level graph
        depth-first on an explicit stack of edges; a node's edge pointer only
        passes saturated edges and dead ends, and an augmentation resumes the
        walk at the tail of its first saturated edge.  The last BFS misses t,
        so ``level[v] >= 0`` then marks the minimal min cut's source side."""
        graph = self.graph
        total = 0
        while self._bfs(s, t):
            level = self.level
            it = [0] * len(graph)
            path: list[list[int]] = []  # edges from s to u
            u = s
            while True:
                if u == t:
                    pushed = min(edge[1] for edge in path)
                    for edge in path:
                        edge[1] -= pushed
                        graph[edge[0]][edge[2]][1] += pushed
                    total += pushed
                    del path[[edge[1] for edge in path].index(0):]
                elif it[u] < len(graph[u]):
                    edge = graph[u][it[u]]
                    if edge[1] > 0 and level[edge[0]] == level[u] + 1:
                        path.append(edge)
                    else:
                        it[u] += 1
                elif path:
                    # dead end: retreat and skip the edge that led here
                    path.pop()
                    it[path[-1][0] if path else s] += 1
                else:
                    break
                u = path[-1][0] if path else s
        return total


def ballot_groups(
    p: PreferenceProfile, edge_sets: Sequence[frozenset[int]]
) -> tuple[VoterGroup, ...]:
    """The voters of p as voter groups, ballot type t's voters sharing
    ``edge_sets[t]``.  Types come in first-appearance order, so the groups
    come in order of their first voter."""
    return voter_groups(edge_sets, (bt.voters for bt in p.ballot_types()))


@dataclass(frozen=True)
class FlowResult:
    """A solved network, read back per original left node.  The g-th group
    of ``network`` is node ``1 + g`` of ``dinic``."""

    dinic: Dinic
    network: FlowNetwork

    def source_side(self) -> frozenset[int]:
        """Left nodes reachable from the source in the residual network: the
        source side of the inclusion-minimal min cut.  That set is unique and
        invariant under swapping interchangeable left nodes, so it is a union
        of whole groups."""
        level = self.dinic.level
        groups = self.network.groups
        return frozenset().union(*(g.voters for k, g in enumerate(groups) if level[1 + k] >= 0))

    def units_sent(self) -> list[dict[int, int]]:
        """One dict per group, in group order: the units (original capacity
        minus residual) the group sent to each right node it reaches, right
        nodes ascending."""
        net = self.network
        first_right = 1 + len(net.groups)
        sent = []
        for k, g in enumerate(net.groups):
            arc_cap = g.size * net.left_supply
            sent.append({v - first_right: arc_cap - cap  # v = 0 is the source
                         for v, cap, _ in self.dinic.graph[1 + k] if v and cap < arc_cap})
        return sent

    def shares(self) -> tuple[tuple[Fraction, ...], ...]:
        """Row i: the fraction of left node i's supply sent to each right
        node.  A group's flow is split evenly over its members, which share
        one row."""
        net = self.network
        rows: list = [None] * net.num_left
        for g, sent in zip(net.groups, self.units_sent()):
            row = [Fraction(0)] * net.num_right
            for c, units in sent.items():
                row[c] = Fraction(units, g.size * net.left_supply)
            shared = tuple(row)
            for run in g.runs:
                for i in run:
                    rows[i] = shared
        return tuple(rows)


@dataclass(frozen=True)
class FlowNetwork:
    """The scaled bipartite network: left nodes given as ``groups`` of nodes
    that share an edge set (``candidates``), each supplying ``left_supply``
    units; every right node absorbs at most ``right_cap``.

    Left nodes of one group are interchangeable, so each group is one flow
    node carrying the group's total supply.  The flow value and the minimal
    min cut are those of the one-node-per-left network.  Groups may share an
    edge set; ``voter_groups`` merges equal ones into fewer flow nodes.  The
    group sizes add up to ``num_left``, and every edge must end at a right
    node ``0..num_right-1``."""

    num_right: int
    groups: tuple[VoterGroup, ...]
    left_supply: int
    right_cap: int

    def __post_init__(self) -> None:
        if any(v < 0 or v >= self.num_right for g in self.groups for v in g.candidates):
            raise ValueError("edge endpoint out of range")

    @property
    def num_left(self) -> int:
        return sum(g.size for g in self.groups)

    @property
    def edges(self) -> tuple[frozenset[int], ...]:
        """The edge sets, one per group and flow node."""
        return tuple(g.candidates for g in self.groups)

    def solve(self) -> tuple[int, FlowResult]:
        """Max flow value and the solved network."""
        groups = self.groups
        source = 0
        first_right = 1 + len(groups)
        sink = first_right + self.num_right
        dinic = Dinic(sink + 1)
        for k, g in enumerate(groups):
            cap = self.left_supply * g.size
            dinic.add_edge(source, 1 + k, cap)
            for c in sorted(g.candidates):
                dinic.add_edge(1 + k, first_right + c, cap)
        for c in range(self.num_right):
            dinic.add_edge(first_right + c, sink, self.right_cap)
        value = dinic.max_flow(source, sink)
        return value, FlowResult(dinic, self)


def build_domination_graph(p: PreferenceProfile, c: int) -> FlowNetwork:
    """The domination graph of candidate c as its scaled flow network: voter
    i is adjacent to every candidate they rank weakly below c (always
    including c itself), supplies m units, and every candidate absorbs at
    most n.  Voters of one edge set share one group, in order of first
    voter."""
    edges = [frozenset(r[r.index(c):]) for r, _ in p.ballot_types()]
    return FlowNetwork(p.m, ballot_groups(p, edges), left_supply=p.m, right_cap=p.n)


def has_fractional_perfect_matching(net: FlowNetwork) -> bool:
    """True iff the network saturates every left node's supply.  On a
    domination graph: weight 1 per voter can be spread over dominated
    candidates with every candidate receiving exactly n/m."""
    value, _ = net.solve()
    return value == net.num_left * net.left_supply


def fractional_matching(net: FlowNetwork) -> tuple[tuple[Fraction, ...], ...] | None:
    """A matching, row i giving voter i's weights, or None if infeasible.
    Voters of one group get the same row."""
    value, flow = net.solve()
    if value != net.num_left * net.left_supply:
        return None
    return flow.shares()


@dataclass(frozen=True)
class CutWitness:
    """A Hall violation: the voters in ``voters`` jointly dominate only
    ``dominated``, and |dominated| < m * |voters| / n."""

    voters: frozenset[int]
    dominated: frozenset[int]

    def validate(self, p: PreferenceProfile, c: int) -> None:
        if not self.voters:
            raise ValueError("witness voter set is empty")
        if self.dominated != dominated_set(p, c, self.voters):
            raise ValueError("dominated set does not match the profile")
        # strict inequality, cross-multiplied to stay in integers
        if len(self.dominated) * p.n >= p.m * len(self.voters):
            raise ValueError("witness does not violate the Hall condition")


def extract_deficiency_witness(p: PreferenceProfile, c: int) -> CutWitness | None:
    """A deficient voter set for candidate c, or None when a matching exists.

    The witness is read off the min cut: voters still reachable from the
    source in the residual network.
    """
    value, flow = build_domination_graph(p, c).solve()
    if value == p.n * p.m:
        return None
    voters = flow.source_side()
    witness = CutWitness(voters, dominated_set(p, c, voters))
    witness.validate(p, c)
    return witness


def max_bipartite_matching(groups: Sequence[VoterGroup]) -> dict[int, int]:
    """Maximum one-to-one matching, left index -> right index, by unit-capacity
    max flow over left ``groups``.  A group is one flow node; the units it
    sends go, right nodes ascending, to its members in ascending order."""
    num_right = 1 + max((max(g.candidates) for g in groups if g.candidates), default=-1)
    _, flow = FlowNetwork(num_right, tuple(groups), left_supply=1, right_cap=1).solve()
    pairs: list[tuple[int, int]] = []
    for g, sent in zip(groups, flow.units_sent()):
        pairs.extend(zip(g.members(), sent))
    return dict(sorted(pairs))

"""Domination graphs, fractional perfect matchings, and their certificates.

The central question: given a candidate c, can the voters be fractionally
matched to candidates so that every voter only uses candidates they rank
weakly below c, every voter hands out total weight 1, and every candidate
receives exactly n/m?  Scaling by m turns this into an integral max-flow
problem: voter supply m, candidate capacity n, and a perfect matching exists
iff the max flow is n*m.  The domination graph is built as that network
directly: ``FlowNetwork`` is the one network type, and it checks its own
edge endpoints.  Voters with the same edge set are interchangeable, so they
share one network node carrying their joint supply.  A network's left side
is ``VoterGroup``s: the profile's kept ``groups_below(c)``, each group's
candidates kept or trimmed, or weak PSC's prefix groups.  Solving
a network and reading back its cut or the units each group sent works on
ballot types; only a matching spells its voters out, from the profile.

The min cut is verdict and witness at once: no ballot type on its source
side means a matching exists, else those types, whose voters N' jointly
dominate the candidates D, are a Hall witness, |D| < m*|N'|/n.  Every
deficiency has a per-type form, as the rest of a type's voters keep D
and grow N'.  ``FlowNetwork.cut`` reads that cut for every checker, by
subset sums on small networks and by Dinic on flat edge arrays above;
the same Dinic finds the Pareto criterion's one-to-one matchings.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import reduce
from operator import and_

from .profiles import PreferenceProfile, VoterGroup, dominated_set


class Dinic:
    """Max flow with integer capacities, deterministic given insertion order.
    Edge e of ``adj[u]`` runs to ``to[e]``, residual ``cap[e]``, reverse ``e ^ 1``."""

    def __init__(self, num_nodes: int) -> None:
        self.adj: list[list[int]] = [[] for _ in range(num_nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int) -> None:
        self.adj[u].append(len(self.to))
        self.adj[v].append(len(self.to) + 1)
        self.to += (v, u)
        self.cap += (cap, 0)

    def _bfs(self, s: int, t: int) -> bool:
        to, cap = self.to, self.cap
        level = self.level = [-1] * len(self.adj)
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in self.adj[u]:
                v = to[e]
                if cap[e] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level[t] >= 0

    def max_flow(self, s: int, t: int) -> int:
        """The max flow value from s to t.  Each phase walks the level graph
        depth-first on an explicit stack of edges; a node's edge pointer only
        passes saturated edges and dead ends, and an augmentation resumes the
        walk at the tail of its first saturated edge.  The last BFS misses t,
        so ``level[v] >= 0`` then marks the minimal min cut's source side."""
        adj, to, cap = self.adj, self.to, self.cap
        total = 0
        while self._bfs(s, t):
            level = self.level
            it = [0] * len(adj)
            path: list[int] = []  # edge ids from s to u
            u = s
            while True:
                if u == t:
                    pushed = min(cap[e] for e in path)
                    for e in path:
                        cap[e] -= pushed
                        cap[e ^ 1] += pushed
                    total += pushed
                    del path[[cap[e] for e in path].index(0):]
                else:
                    # move u's pointer to its next unsaturated edge one level down
                    edges, i, deeper = adj[u], it[u], level[u] + 1
                    while i < len(edges) and (not cap[edges[i]] or level[to[edges[i]]] != deeper):
                        i += 1
                    it[u] = i
                    if i < len(edges):
                        path.append(edges[i])
                    elif path:
                        # dead end: retreat and skip the edge that led here
                        path.pop()
                        it[to[path[-1]] if path else s] += 1
                    else:
                        break
                u = to[path[-1]] if path else s
        return total


@dataclass(frozen=True)
class FlowResult:
    """A solved network, read back per group and ballot type.  The g-th
    group of ``network`` is node ``1 + g`` of ``dinic``."""

    dinic: Dinic
    network: FlowNetwork

    def cut(self) -> tuple[frozenset[int], frozenset[int]]:
        """The inclusion-minimal min cut: the ballot types the residual
        network reaches from the source, unique and so a union of whole
        groups, empty exactly when every left supply is saturated; and the
        right nodes they have edges to."""
        level = self.dinic.level
        groups = [g for k, g in enumerate(self.network.groups) if level[1 + k] >= 0]
        return (frozenset().union(*(g.types for g in groups)),
                frozenset().union(*(g.candidates for g in groups)))

    def units_sent(self) -> list[dict[int, int]]:
        """One dict per group, in group order: the units (original capacity
        minus residual) the group sent to each right node it reaches, right
        nodes ascending."""
        net = self.network
        first_right = 1 + len(net.groups)
        adj, to, cap = self.dinic.adj, self.dinic.to, self.dinic.cap
        sent = []
        for k, g in enumerate(net.groups):
            arc_cap = g.size * net.left_supply
            sent.append({to[e] - first_right: arc_cap - cap[e]  # to[e] = 0 is the source
                         for e in adj[1 + k] if to[e] and cap[e] < arc_cap})
        return sent


# ``FlowNetwork.cut`` scans up to this many right nodes and runs the flow
# above: the scan grows with 2^num_right, the flow with the groups.
SCAN_MAX_RIGHT = 7


@dataclass(frozen=True)
class FlowNetwork:
    """The scaled bipartite network: left nodes given as ``groups`` of nodes
    that share an edge set (``candidates``), each supplying ``left_supply``
    units; every right node absorbs at most ``right_cap``.

    Left nodes of one group are interchangeable, so each group is one flow
    node carrying the group's total supply.  The flow value and the minimal
    min cut are those of the one-node-per-left network.  Groups may share an
    edge set; the checkers merge equal ones into fewer flow nodes.  The
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

    def cut(self) -> tuple[frozenset[int], frozenset[int]]:
        """``FlowResult.cut``, with no flow up to ``SCAN_MAX_RIGHT`` right
        nodes.  With f(C) the left nodes whose edges lie inside C, the cut
        is empty unless left_supply f(C) - right_cap |C| has a positive
        maximum; then its right half is the least maximizer C, and its
        types are those of the groups inside C.  The objective is
        supermodular, so its maximizers are closed under intersection."""
        if self.num_right > SCAN_MAX_RIGHT:
            return self.solve()[1].cut()
        masks = [sum(1 << c for c in g.candidates) for g in self.groups]
        size = 1 << self.num_right
        f = [0] * size
        for mask, g in zip(masks, self.groups):
            f[mask] += g.size
        # zeta transform: f[s] becomes the sum over the masks inside s
        for b in range(self.num_right):
            bit = 1 << b
            for s in range(size):
                if s & bit:
                    f[s] += f[s ^ bit]
        gains = [self.left_supply * f[s] - self.right_cap * s.bit_count() for s in range(size)]
        best = max(gains)
        if best <= 0:
            return frozenset(), frozenset()
        least = reduce(and_, (s for s, gain in enumerate(gains) if gain == best))
        inside = [g for g, mask in zip(self.groups, masks) if mask | least == least]
        return (frozenset().union(*(g.types for g in inside)),
                frozenset().union(*(g.candidates for g in inside)))


def build_domination_graph(p: PreferenceProfile, c: int) -> FlowNetwork:
    """The domination graph of candidate c as its scaled flow network: voter
    i is adjacent to every candidate they rank weakly below c (always
    including c itself), supplies m units, and every candidate absorbs at
    most n.  Voters of one edge set share one group, in order of first
    voter: the profile's ``groups_below(c)``."""
    return FlowNetwork(p.m, p.groups_below(c), left_supply=p.m, right_cap=p.n)


def has_fractional_perfect_matching(net: FlowNetwork) -> bool:
    """True iff the network saturates every left node's supply.  On a
    domination graph: weight 1 per voter can be spread over dominated
    candidates with every candidate receiving exactly n/m.  Always by flow:
    the audit meets it with weak PSC's ``FlowNetwork.cut`` of this network."""
    return not net.solve()[1].cut()[0]


@dataclass(frozen=True)
class CutWitness:
    """A Hall violation: the N' voters of ballot types ``types``
    (``ballot_types()`` indices) jointly dominate only ``dominated``, and
    |dominated| < m * |N'| / n.  For c's domination graph it is also their
    veto of c, blocking with the candidates outside ``dominated``."""

    types: frozenset[int]
    dominated: frozenset[int]

    def validate(self, p: PreferenceProfile, c: int) -> None:
        if not self.types:
            raise ValueError("witness type set is empty")
        if self.dominated != dominated_set(p, c, self.types):
            raise ValueError("dominated set does not match the profile")
        size = sum(p.ballot_types()[t].count for t in self.types)
        # strict inequality, cross-multiplied to stay in integers
        if len(self.dominated) * p.n >= p.m * size:
            raise ValueError("witness does not violate the Hall condition")


def extract_deficiency_witness(p: PreferenceProfile, c: int) -> CutWitness | None:
    """The Hall witness of candidate c, or None when a matching exists:
    the minimal min cut of c's domination graph, the ballot types on its
    source side and the candidates they dominate.
    """
    types, dominated = build_domination_graph(p, c).cut()
    if not types:
        return None
    witness = CutWitness(types, dominated)
    witness.validate(p, c)
    return witness


def max_bipartite_matching(p: PreferenceProfile, groups: tuple[VoterGroup, ...]) -> dict[int, int]:
    """Maximum one-to-one matching, voter -> right index, by unit-capacity
    max flow, the voters of each group adjacent to its candidates.  A group
    is one flow node; the units it sends go, right nodes ascending, to its
    voters in ascending order."""
    num_right = 1 + max((max(g.candidates) for g in groups if g.candidates), default=-1)
    _, flow = FlowNetwork(num_right, groups, left_supply=1, right_cap=1).solve()
    pairs: list[tuple[int, int]] = []
    for g, sent in zip(groups, flow.units_sent()):
        if sent:
            pairs.extend(zip(p.voters_of(g.types), sent))
    return dict(sorted(pairs))

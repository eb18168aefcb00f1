"""Domination graphs, fractional perfect matchings, and their certificates.

The central question: given a candidate c, can the voters be fractionally
matched to candidates so that every voter only uses candidates they rank
weakly below c, every voter hands out total weight 1, and every candidate
receives exactly n/m?  Scaling by m turns this into an integral max-flow
problem: voter supply m, candidate capacity n, and a perfect matching exists
iff the max flow is n*m.  Voters with the same edge set are interchangeable,
so they share one network node carrying their joint supply.

When no matching exists, a Hall-style deficiency witness falls out of the
min cut: a voter set N' whose jointly dominated candidates D satisfy
|D| < m*|N'|/n.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .profiles import PreferenceProfile, dominated_set


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

    def _dfs(self, u: int, t: int, pushed: int) -> int:
        if u == t:
            return pushed
        while self.it[u] < len(self.graph[u]):
            edge = self.graph[u][self.it[u]]
            v, cap, rev = edge
            if cap > 0 and self.level[v] == self.level[u] + 1:
                flowed = self._dfs(v, t, min(pushed, cap))
                if flowed > 0:
                    edge[1] -= flowed
                    self.graph[v][rev][1] += flowed
                    return flowed
            self.it[u] += 1
        return 0

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        while self._bfs(s, t):
            self.it = [0] * len(self.graph)
            while True:
                pushed = self._dfs(s, t, 1 << 62)
                if pushed == 0:
                    break
                total += pushed
        return total

    def reachable_in_residual(self, s: int) -> frozenset[int]:
        """Nodes reachable from s using edges with leftover capacity."""
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v, cap, _ in self.graph[u]:
                if cap > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return frozenset(seen)


@dataclass(frozen=True)
class DominationGraph:
    """Bipartite graph for candidate c: voter i is adjacent to every candidate
    they rank weakly below c (always including c itself)."""

    candidate: int
    n: int
    m: int
    edges: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if len(self.edges) != self.n:
            raise ValueError("need one edge set per voter")
        # each distinct edge set once, in order of its first voter
        for adj in dict.fromkeys(self.edges):
            if self.candidate not in adj:
                i = self.edges.index(adj)
                raise ValueError(f"voter {i} must be adjacent to the pivot candidate")
            if any(c < 0 or c >= self.m for c in adj):
                raise ValueError("edge endpoint out of range")


def build_domination_graph(p: PreferenceProfile, c: int) -> DominationGraph:
    edges = p.per_voter([frozenset(r[r.index(c):]) for r, _ in p.ballot_types()])
    return DominationGraph(c, p.n, p.m, edges)


@dataclass(frozen=True)
class FlowResult:
    """A solved network, read back per original left node.

    Left nodes with equal edge sets share one Dinic node: ``groups`` maps
    each distinct edge set to its number of left nodes, and the g-th key is
    node ``1 + g`` of ``dinic``.
    """

    dinic: Dinic
    edges: tuple[frozenset[int], ...]
    groups: dict[frozenset[int], int]
    num_right: int
    left_supply: int

    def source_side(self) -> frozenset[int]:
        """Left nodes reachable from the source in the residual network: the
        source side of the inclusion-minimal min cut.  That set is unique and
        invariant under swapping interchangeable left nodes, so it is a union
        of whole groups."""
        reachable = self.dinic.reachable_in_residual(0)
        sides = {adj: 1 + g in reachable for g, adj in enumerate(self.groups)}
        return frozenset(i for i, adj in enumerate(self.edges) if sides[adj])

    def shares(self) -> tuple[tuple[Fraction, ...], ...]:
        """Row i: the fraction of left node i's supply sent to each right
        node.  A group's flow is split evenly over its members, which share
        one row."""
        first_right = 1 + len(self.groups)
        rows: dict[frozenset[int], tuple[Fraction, ...]] = {}
        for g, (adj, size) in enumerate(self.groups.items()):
            row = [Fraction(0)] * self.num_right
            scale = size * self.left_supply
            for v, cap, _ in self.dinic.graph[1 + g]:
                if first_right <= v < first_right + self.num_right:
                    sent = scale - cap  # original capacity minus residual
                    if sent > 0:
                        row[v - first_right] = Fraction(sent, scale)
            rows[adj] = tuple(row)
        return tuple(rows[adj] for adj in self.edges)


@dataclass(frozen=True)
class FlowNetwork:
    """The scaled bipartite network: every left node supplies ``left_supply``
    units, every right node absorbs at most ``right_cap``."""

    num_left: int
    num_right: int
    edges: tuple[frozenset[int], ...]
    left_supply: int
    right_cap: int

    def solve(self) -> tuple[int, FlowResult]:
        """Max flow value and the solved network.

        Left nodes with equal edge sets are interchangeable, so each such
        group becomes one node carrying the group's total supply.  The flow
        value and the minimal min cut are those of the one-node-per-left
        network."""
        groups = Counter(self.edges)
        source = 0
        sink = len(groups) + self.num_right + 1
        dinic = Dinic(sink + 1)
        for g, size in enumerate(groups.values()):
            dinic.add_edge(source, 1 + g, self.left_supply * size)
        for g, (adj, size) in enumerate(groups.items()):
            for c in sorted(adj):
                dinic.add_edge(1 + g, 1 + len(groups) + c, self.left_supply * size)
        for c in range(self.num_right):
            dinic.add_edge(1 + len(groups) + c, sink, self.right_cap)
        value = dinic.max_flow(source, sink)
        return value, FlowResult(dinic, self.edges, dict(groups), self.num_right, self.left_supply)


def domination_flow_network(g: DominationGraph) -> FlowNetwork:
    return FlowNetwork(g.n, g.m, g.edges, left_supply=g.m, right_cap=g.n)


def has_fractional_perfect_matching(g: DominationGraph) -> bool:
    """True iff weight 1 per voter can be spread over dominated candidates
    with every candidate receiving exactly n/m."""
    net = domination_flow_network(g)
    value, _ = net.solve()
    return value == g.n * g.m


def fractional_matching(g: DominationGraph) -> tuple[tuple[Fraction, ...], ...] | None:
    """A matching, row i giving voter i's weights, or None if infeasible.
    Voters with the same edge set get the same row."""
    net = domination_flow_network(g)
    value, flow = net.solve()
    if value != g.n * g.m:
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
    g = build_domination_graph(p, c)
    net = domination_flow_network(g)
    value, flow = net.solve()
    if value == g.n * g.m:
        return None
    voters = flow.source_side()
    witness = CutWitness(voters, dominated_set(p, c, voters))
    witness.validate(p, c)
    return witness


def max_bipartite_matching(adjacency: Sequence[Iterable[int]]) -> dict[int, int]:
    """Maximum one-to-one matching, left index -> right index, by augmenting paths.

    Each search is a depth-first walk on an explicit stack, so a path may be
    as long as the graph.  Right vertices are tried in increasing order.
    """
    adj = [sorted(set(row)) for row in adjacency]
    match_right: dict[int, int] = {}
    for root in range(len(adj)):
        visited: set[int] = set()
        # stack[k] is a left vertex with its untried neighbours; path[k] is
        # the right vertex through which stack[k + 1] was reached
        stack = [(root, iter(adj[root]))]
        path: list[int] = []
        while stack:
            c = next((c for c in stack[-1][1] if c not in visited), None)
            if c is None:
                stack.pop()
                if path:
                    path.pop()
                continue
            visited.add(c)
            path.append(c)
            if c in match_right:
                stack.append((match_right[c], iter(adj[match_right[c]])))
                continue
            for (i, _), d in zip(stack, path):
                match_right[d] = i
            break
    return {i: c for c, i in match_right.items()}


def hall_check_bruteforce(g: DominationGraph) -> bool:
    """Check |D(N')| >= m|N'|/n over all nonempty voter subsets directly."""
    if g.n > 20:
        raise ValueError("subset enumeration is limited to 20 voters")
    masks = [0] * g.n
    for i, adj in enumerate(g.edges):
        for c in adj:
            masks[i] |= 1 << c
    for sub in range(1, 1 << g.n):
        union = 0
        size = 0
        for i in range(g.n):
            if sub >> i & 1:
                union |= masks[i]
                size += 1
        if union.bit_count() * g.n < g.m * size:
            return False
    return True

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
|D| < m*|N'|/n.  The same Dinic engine, at unit capacities, finds the
one-to-one matchings of the Pareto-matching criterion.
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
        level = self.dinic.level
        sides = {adj: level[1 + g] >= 0 for g, adj in enumerate(self.groups)}
        return frozenset(i for i, adj in enumerate(self.edges) if sides[adj])

    def units_sent(self) -> dict[frozenset[int], dict[int, int]]:
        """Per group, keyed by its edge set: the units (original capacity minus
        residual) sent to each right node it reaches, right nodes ascending."""
        first_right = 1 + len(self.groups)
        sent = {}
        for g, (adj, size) in enumerate(self.groups.items()):
            arc_cap = size * self.left_supply
            sent[adj] = {v - first_right: arc_cap - cap  # v = 0 is the source
                         for v, cap, _ in self.dinic.graph[1 + g] if v and cap < arc_cap}
        return sent

    def shares(self) -> tuple[tuple[Fraction, ...], ...]:
        """Row i: the fraction of left node i's supply sent to each right
        node.  A group's flow is split evenly over its members, which share
        one row."""
        rows: dict[frozenset[int], tuple[Fraction, ...]] = {}
        for adj, sent in self.units_sent().items():
            row = [Fraction(0)] * self.num_right
            for c, units in sent.items():
                row[c] = Fraction(units, self.groups[adj] * self.left_supply)
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
        for g, (adj, size) in enumerate(groups.items()):
            dinic.add_edge(source, 1 + g, self.left_supply * size)
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
    """Maximum one-to-one matching, left index -> right index, by unit-capacity
    max flow.

    Left nodes with equal adjacency share one flow node.  Each unit that node
    sends goes, right nodes ascending, to its lowest-index member that is
    still unmatched.
    """
    edges = tuple(frozenset(row) for row in adjacency)
    num_right = 1 + max((max(row) for row in set(edges) if row), default=-1)
    value, flow = FlowNetwork(len(edges), num_right, edges, left_supply=1, right_cap=1).solve()
    targets = {adj: iter(sent) for adj, sent in flow.units_sent().items()}
    matching: dict[int, int] = {}
    for i, adj in enumerate(edges):
        c = next(targets[adj], None)
        if c is not None:
            matching[i] = c
            if len(matching) == value:
                break
    return matching


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

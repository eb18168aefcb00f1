"""Brute-force oracles shared across the test modules.  Each evaluates its
definition directly, voter by voter, without the grouping, flows or LPs of
the checkers it is compared with; the clone oracles run the plurality rules
on the cloned profile, one clone at a time."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Sequence

from vetoflow.matching import build_domination_graph, has_fractional_perfect_matching
from vetoflow.profile_io import DistanceMatrix
from vetoflow.profiles import PreferenceProfile, clone_expand, plurality_scores


def hall_check_bruteforce(p: PreferenceProfile, c: int) -> bool:
    """Check |D(N')| >= m|N'|/n over all nonempty voter subsets N', where
    D(N') holds the candidates some voter of N' ranks weakly below c."""
    if p.n > 20:
        raise ValueError("subset enumeration is limited to 20 voters")
    # each voter's edge set, read off that voter's own ranking
    masks = [sum(1 << x for x in r[r.index(c):]) for r in p.rankings]
    for sub in range(1, 1 << p.n):
        union = 0
        for i in range(p.n):
            if sub >> i & 1:
                union |= masks[i]
        if union.bit_count() * p.n < p.m * sub.bit_count():
            return False
    return True


def pareto_optimal_bruteforce(p: PreferenceProfile, matching: dict[int, int], k: int) -> bool:
    """Is there no size-k matching that weakly improves every currently
    matched voter and strictly improves someone?

    Losing one's match counts as getting worse; gaining a match counts as a
    strict improvement.
    """
    if p.n > 5 or p.m > 5:
        raise ValueError("brute force limited to n <= 5, m <= 5")
    pos = p.positions()

    def dominates(other: dict[int, int]) -> bool:
        strict = False
        for i, c in matching.items():
            if i not in other:
                return False
            if pos[i][other[i]] > pos[i][c]:
                return False
            if pos[i][other[i]] < pos[i][c]:
                strict = True
        for i in other:
            if i not in matching:
                strict = True
        return strict

    for voters in combinations(range(p.n), k):
        for cands in permutations(range(p.m), k):
            if dominates(dict(zip(voters, cands))):
                return False
    return True


def triangle_violations(matrix: Sequence[Sequence[Fraction]]) -> list[tuple[int, int, int]]:
    """All (x, y, z) with d(x,z) > d(x,y) + d(y,z)."""
    size = len(matrix)
    bad = []
    for x in range(size):
        for y in range(size):
            for z in range(size):
                if matrix[x][z] > matrix[x][y] + matrix[y][z]:
                    bad.append((x, y, z))
    return bad


def plurality_veto_cloned(p: PreferenceProfile, order: Sequence[int]) -> int:
    """Plurality veto on the plurality-cloned profile: the first n-1 voters
    in ``order`` each strike their least preferred clone still standing,
    and the origin of the last clone wins."""
    ce = clone_expand(p, plurality_scores(p))
    alive = [True] * ce.expanded.m
    for voter in order[: p.n - 1]:
        for e in reversed(ce.expanded.rankings[voter]):
            if alive[e]:
                alive[e] = False
                break
    return ce.origin[alive.index(True)]


def plurality_matching_winners_cloned(p: PreferenceProfile) -> frozenset[int]:
    """The origins of every clone whose domination graph in the
    plurality-cloned profile admits a fractional perfect matching, one flow
    per clone."""
    ce = clone_expand(p, plurality_scores(p))
    return frozenset(
        ce.origin[e] for e in range(ce.expanded.m)
        if has_fractional_perfect_matching(build_domination_graph(ce.expanded, e))
    )


def fraction_check(dm: DistanceMatrix, p: PreferenceProfile) -> list[str]:
    """``DistanceMatrix.check`` over Fractions, cell by cell; the reference
    for the integer check."""
    if len(dm.values) != p.n or any(len(r) != p.m for r in dm.values):
        return ["matrix shape is not voters x candidates"]
    d = dm.values
    bad = []
    for i, a in product(range(p.n), range(p.m)):
        if d[i][a] < 0:
            bad.append(f"negative distance at voter {i}, candidate {a}")
    pos = p.positions()
    for i, a, b in product(range(p.n), range(p.m), range(p.m)):
        if pos[i][a] < pos[i][b] and d[i][a] > d[i][b]:
            bad.append(f"voter {i} ranks {a} above {b} but sits closer to {b}")
    for i, j, a, b in product(range(p.n), range(p.n), range(p.m), range(p.m)):
        if d[i][a] > d[i][b] + d[j][b] + d[j][a]:
            bad.append(f"quadrangle violated at ({i},{j},{a},{b})")
    return bad

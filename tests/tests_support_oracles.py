"""Brute-force oracles shared across the test modules.  Each evaluates its
definition directly, voter by voter, without the grouping, flows or LPs of
the checkers it is compared with."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from typing import Sequence

from vetoflow.profiles import PreferenceProfile


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

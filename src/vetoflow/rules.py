"""Single-winner rules and assignment rules.

The distortion-oriented rules start from plurality scores.  Plurality veto
spends them directly: each voter but one takes a unit from their least
preferred candidate that still holds one.  Matching winners and the
composite rule run on the plurality-cloned profile, where every candidate
is replaced by as many clones as their plurality score, so that voter and
candidate counts agree; a winning clone elects the candidate whose clone
block holds it.
"""

from __future__ import annotations

from typing import Sequence

from .eating import EatingConfig, run_eating
from .matching import build_domination_graph, has_fractional_perfect_matching
from .profiles import PreferenceProfile, clone_expand, plurality_scores


def _check_voter_order(p: PreferenceProfile, order: Sequence[int] | None) -> tuple[int, ...]:
    if order is None:
        return tuple(range(p.n))
    return p.check_permutation(order, p.n, "order must be a permutation of all voters")


def plurality_veto(p: PreferenceProfile, order: Sequence[int] | None = None) -> int:
    """Every candidate starts with its plurality score; the first n-1 voters
    in ``order`` each take one unit from their least preferred candidate
    that still holds one.  The candidate holding the last unit wins."""
    order = _check_voter_order(p, order)
    score = list(plurality_scores(p))
    for voter in order[: p.n - 1]:
        for c in reversed(p.rankings[voter]):
            if score[c]:
                score[c] -= 1
                break
    return score.index(1)


def plurality_matching_winners(p: PreferenceProfile) -> frozenset[int]:
    """Candidates whose first clone's domination graph in the plurality-cloned
    profile admits a fractional perfect matching.

    Clones sit in one block, in index order, on every ballot, so the first
    clone's edge sets contain every later clone's; extra edges never lower
    a max flow, so the first clone alone decides.
    """
    ce = clone_expand(p)
    return frozenset(
        c for c, block in enumerate(ce.clones)
        if block and has_fractional_perfect_matching(build_domination_graph(ce.expanded, block[0]))
    )


def composite_distortion_rule(
    p: PreferenceProfile, tie_break: Sequence[int] | None = None
) -> int:
    """Clone by plurality score, consume clones worst-first until one remains,
    and return the candidate whose clone block holds that clone.  A tie-break
    over the candidates orders their clone blocks.

    Equivalently: the last candidate of the full sequential committee built on
    the reversed cloned profile.
    """
    ce = clone_expand(p)
    if tie_break is not None:
        tie_break = p.check_permutation(
            tie_break, p.m, "tie_break must be a permutation of all candidates")
        tie_break = tuple(e for c in tie_break for e in ce.clones[c])
    cfg = EatingConfig(direction="eat-worst", stop_eliminations=ce.expanded.m, tie_break=tie_break)
    last = run_eating(ce.expanded, cfg).eliminated_order()[-1]
    return next(c for c, block in enumerate(ce.clones) if last in block)


def serial_dictatorship(
    p: PreferenceProfile,
    order: Sequence[int] | None = None,
    k: int | None = None,
) -> dict[int, int]:
    """Voters pick their favourite remaining candidate one at a time.

    Only the first k picks happen (default: as many as fit), and the
    resulting voter -> candidate map is returned.
    """
    order = _check_voter_order(p, order)
    if k is None:
        k = min(p.n, p.m)
    if type(k) is not int or not 0 <= k <= min(p.n, p.m):
        raise ValueError(f"cannot match {k} pairs with {p.n} voters and {p.m} candidates")
    taken = [False] * p.m
    matching: dict[int, int] = {}
    for voter in order[:k]:
        for c in p.rankings[voter]:
            if not taken[c]:
                taken[c] = True
                matching[voter] = c
                break
    return matching

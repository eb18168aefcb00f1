"""Single-winner rules and assignment rules.

The distortion-oriented rules start from plurality scores.  Plurality veto
spends them directly: each voter but one takes a unit from their least
preferred candidate that still holds one.  Matching winners and the
composite rule run on the plurality-cloned profile, where every candidate
is replaced by as many clones as their plurality score, so that voter and
candidate counts agree; the winning clone is mapped back to its origin.
"""

from __future__ import annotations

from typing import Sequence

from .eating import EatingConfig, run_eating
from .matching import build_domination_graph, has_fractional_perfect_matching
from .profiles import CloneExpansion, PreferenceProfile, clone_expand, plurality_scores


def _check_voter_order(p: PreferenceProfile, order: Sequence[int] | None) -> tuple[int, ...]:
    if order is None:
        return tuple(range(p.n))
    order = tuple(order)
    if set(map(type, order)) - {int} or sorted(order) != list(range(p.n)):
        raise ValueError("order must be a permutation of all voters")
    return order


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
    ce = clone_expand(p, plurality_scores(p))
    return frozenset(
        c for c, block in enumerate(ce.clones)
        if block and has_fractional_perfect_matching(build_domination_graph(ce.expanded, block[0]))
    )


def _expanded_tie_break(
    ce: CloneExpansion, tie_break: Sequence[int] | None
) -> tuple[int, ...] | None:
    """Lift a tie-break order over original candidates to the clones."""
    if tie_break is None:
        return None
    tie_break = tuple(tie_break)
    if set(map(type, tie_break)) - {int} or sorted(tie_break) != list(range(len(ce.clones))):
        raise ValueError("tie_break must be a permutation of all candidates")
    return tuple(e for c in tie_break for e in ce.clones[c])


def composite_distortion_rule(
    p: PreferenceProfile, tie_break: Sequence[int] | None = None
) -> int:
    """Clone by plurality score, consume clones worst-first until one remains,
    and return that clone's origin.

    Equivalently: the last candidate of the full sequential committee built on
    the reversed cloned profile.
    """
    ce = clone_expand(p, plurality_scores(p))
    cfg = EatingConfig(
        direction="eat-worst",
        stop_eliminations=ce.expanded.m,
        tie_break=_expanded_tie_break(ce, tie_break),
    )
    last = run_eating(ce.expanded, cfg).eliminated_order()[-1]
    return ce.origin[last]


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
    if not 0 <= k <= min(p.n, p.m):
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

import random
from fractions import Fraction
from itertools import permutations

import pytest

from vetoflow.eating import EatingConfig, phragmen_committee, run_eating
from vetoflow.matching import FlowNetwork
from vetoflow.profiles import PreferenceProfile, all_profiles, plurality_scores
from vetoflow.rules import (
    composite_distortion_rule,
    plurality_matching_winners,
    plurality_veto,
    serial_dictatorship,
)
from tests_support_oracles import plurality_matching_winners_cloned, plurality_veto_cloned
from tests_support_random import random_profiles


def test_plurality_veto_winners(fix_t, fix_c, fix_p):
    assert plurality_veto(fix_t) == 1
    assert plurality_veto(fix_c) == 0
    assert plurality_veto(fix_p) == 0
    assert plurality_veto(fix_p, [3, 2, 1, 0]) == 2


def test_plurality_veto_single_voter():
    p = PreferenceProfile.of([(2, 0, 1)])
    assert plurality_veto(p) == 2


def test_plurality_veto_rejects_bad_order(fix_t):
    with pytest.raises(ValueError):
        plurality_veto(fix_t, [0, 1])
    with pytest.raises(ValueError):
        plurality_veto(fix_t, [0, 0, 1])


def test_orders_refuse_entries_that_are_not_ints(fix_t):
    # sorted([0.0, 1, 2]) == [0, 1, 2], so only the entry types tell these
    # apart from permutations; a float or bool index would reach the rankings.
    # fix_t has three voters and three candidates, so each is also a tie-break
    for order in ([0.0, 1, 2], (2, 1.0, 0), [True, 0, 2], [0, 1, Fraction(2)]):
        for rule in (plurality_veto, serial_dictatorship):
            with pytest.raises(ValueError, match="order must be a permutation of all voters"):
                rule(fix_t, order)
        for run in (lambda: composite_distortion_rule(fix_t, tie_break=order),
                    lambda: phragmen_committee(fix_t, 3, order),
                    lambda: run_eating(fix_t, EatingConfig(
                        stop_eliminations=1, tie_break=tuple(order)))):
            with pytest.raises(ValueError,
                               match="tie_break must be a permutation of all candidates"):
                run()


def test_plurality_matching_winners(fix_t, fix_c, fix_p):
    assert plurality_matching_winners(fix_t) == frozenset({0, 1})
    assert plurality_matching_winners(fix_c) == frozenset({0})
    assert plurality_matching_winners(fix_p) == frozenset({0, 2})


def test_plurality_matching_single_candidate():
    p = PreferenceProfile.of([(0,), (0,)])
    assert plurality_matching_winners(p) == frozenset({0})


def test_plurality_veto_lands_in_matching_winners():
    rng = random.Random(8)
    for p in random_profiles(300, seed=55):
        winners = plurality_matching_winners(p)
        order = list(range(p.n))
        rng.shuffle(order)
        assert plurality_veto(p, order) in winners


def test_clone_rules_match_the_clone_oracles_exhaustively():
    for n in range(1, 5):
        for m in range(1, 4):
            for p in all_profiles(n, m):
                assert plurality_matching_winners(p) == plurality_matching_winners_cloned(p)
                for order in permutations(range(n)):
                    assert plurality_veto(p, order) == plurality_veto_cloned(p, order)


def test_clone_rules_match_the_clone_oracles_on_random_profiles():
    rng = random.Random(21)
    for p in random_profiles(500, seed=34, nmax=15, mmax=6):
        order = list(range(p.n))
        rng.shuffle(order)
        assert plurality_veto(p, order) == plurality_veto_cloned(p, order)
        assert plurality_matching_winners(p) == plurality_matching_winners_cloned(p)


def test_matching_winners_solve_one_flow_per_scoring_candidate(monkeypatch):
    calls = []
    solve = FlowNetwork.solve
    monkeypatch.setattr(FlowNetwork, "solve", lambda net: calls.append(net) or solve(net))
    for p in random_profiles(200, seed=89, nmax=15, mmax=6):
        calls.clear()
        plurality_matching_winners(p)
        assert len(calls) <= sum(1 for s in plurality_scores(p) if s > 0)


def test_composite_rule(fix_p, fix_u, fix_t):
    assert composite_distortion_rule(fix_p) == 2
    assert composite_distortion_rule(fix_p, tie_break=(2, 1, 0)) == 0
    assert composite_distortion_rule(fix_u) == 0
    assert composite_distortion_rule(fix_t) == 1


def test_composite_rule_single_voter_every_tie_break():
    # one clone, of the voter's favourite, is all the cloned profile holds
    for m in range(1, 5):
        for ranking in permutations(range(m)):
            p = PreferenceProfile.of([ranking])
            for tie_break in permutations(range(m)):
                assert composite_distortion_rule(p, tie_break) == ranking[0]


def test_composite_winner_is_a_matching_winner():
    for p in random_profiles(200, seed=321):
        assert composite_distortion_rule(p) in plurality_matching_winners(p)


def test_serial_dictatorship(fix_s, fix_u, fix_t):
    assert serial_dictatorship(fix_s) == {0: 0, 1: 1}
    assert serial_dictatorship(fix_u) == {0: 0, 1: 1}
    assert serial_dictatorship(fix_u, [1, 0]) == {1: 0, 0: 1}
    assert serial_dictatorship(fix_u, k=1) == {0: 0}
    assert serial_dictatorship(fix_t, k=2) == {0: 0, 1: 1}
    assert serial_dictatorship(fix_t, [2, 0, 1]) == {2: 2, 0: 0, 1: 1}
    assert serial_dictatorship(fix_t, k=0) == {}
    for k in (-1, 4, True, 1.0, 1.5):
        with pytest.raises(ValueError, match=f"cannot match {k} pairs with 3 voters"):
            serial_dictatorship(fix_t, k=k)
    assert serial_dictatorship(PreferenceProfile.of([(1, 0)])) == {0: 1}


def test_serial_dictatorship_more_voters_than_candidates():
    p = PreferenceProfile.of([(0, 1), (0, 1), (1, 0)])
    assert serial_dictatorship(p) == {0: 0, 1: 1}

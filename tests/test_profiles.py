import tracemalloc

import pytest
from hypothesis import given, strategies as st

from vetoflow.profiles import (
    MAX_CELLS,
    PreferenceProfile,
    ProfileSizeError,
    all_profiles,
    clone_expand,
    dominated_set,
    plurality_scores,
    reverse_profile,
)
from tests_support_oracles import solid_groups, voter_groups
from tests_support_random import profiles_strategy


def test_validation_rejects_bad_input():
    with pytest.raises(ValueError, match="at least one voter"):
        PreferenceProfile.of((), ("a",))
    # no rankings means no inferred candidates either; the voters are named
    with pytest.raises(ValueError, match="at least one voter"):
        PreferenceProfile.of([])
    with pytest.raises(ValueError, match="at least one voter"):
        PreferenceProfile.of((), ())
    with pytest.raises(ValueError, match="at least one candidate"):
        PreferenceProfile.of(((),), ())
    with pytest.raises(ValueError):
        PreferenceProfile.of(((0,),), ())
    with pytest.raises(ValueError):
        PreferenceProfile.of(((0, 1),), ("a", "a"))
    with pytest.raises(ValueError):
        PreferenceProfile.of(((0, 0),), ("a", "b"))
    # the first voter who cast the first bad ranking is named
    with pytest.raises(ValueError, match="ranking of voter 2 is not"):
        PreferenceProfile.of([(0, 1), (0, 1), (1, 1), (0, 1), (1, 1), (0, 2)])
    with pytest.raises(ValueError):
        PreferenceProfile.of(((0,),), ("a b",))
    with pytest.raises(ValueError):
        PreferenceProfile.of(((0,),), ("a>b",))
    with pytest.raises(ValueError):
        PreferenceProfile.of(((0,),), ("",))
    with pytest.raises(ValueError):
        PreferenceProfile.of(((0,),), ("#x",))
    with pytest.raises(ValueError):
        PreferenceProfile.of(((0,),), ("1:x",))
    # clone names carry a "#" inside
    assert PreferenceProfile.of(((0,),), ("a#1",)).candidate_names == ("a#1",)


@pytest.mark.parametrize("count", [0, -1, True, 1.5])
def test_run_counts_must_be_positive_ints(count):
    with pytest.raises(ValueError, match="run counts must be positive ints"):
        PreferenceProfile((((0, 1), 2), ((1, 0), count)), ("a", "b"))


def test_a_billion_voters_are_refused_before_any_per_voter_allocation():
    tracemalloc.start()
    try:
        with pytest.raises(ProfileSizeError, match="more than 1000000 voters"):
            PreferenceProfile((((0, 1), 2), ((1, 0), 10**9)), ("a", "b"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_adjacent_equal_runs_merge():
    p = PreferenceProfile((((0, 1), 1), ((0, 1), 2), ((1, 0), 1), ((0, 1), 1)), ("a", "b"))
    assert p.runs == (((0, 1), 3), ((1, 0), 1), ((0, 1), 1))
    assert p == PreferenceProfile.of([(0, 1)] * 3 + [(1, 0), (0, 1)], ("a", "b"))
    assert p.n == 5 and p.ballot_types() == (((0, 1), 4), ((1, 0), 1))
    assert [p.voters_of([t]) for t in (0, 1)] == [[0, 1, 2, 4], [3]]
    assert p.per_voter("xy") == tuple("xxxyx")
    for values in ("x", "xyz"):
        with pytest.raises(ValueError, match=f"need one value per ballot type, got {len(values)}"):
            p.per_voter(values)


def test_voters_of_refuses_a_type_index_that_is_no_type():
    # one check serves every caller that takes ballot type indices; -1
    # would name the last type
    p = PreferenceProfile.of([(0, 1), (1, 0), (0, 1)])
    assert p.voters_of([1, 0]) == [0, 1, 2] and p.voters_of([]) == []
    assert p.check_types((1, 0, 1)) == {0, 1} and dominated_set(p, 1, [1]) == {1, 0}
    for bad in (2, 5, -1, True, 0.0, "0"):
        for check in (p.voters_of, p.check_types, lambda ts: dominated_set(p, 1, ts)):
            with pytest.raises(ValueError, match=r"ballot type index outside 0\.\.1"):
                check([0, bad])


def test_of_defaults_names():
    p = PreferenceProfile.of([(1, 0)])
    assert p.candidate_names == ("c1", "c2")
    assert p.n == 1 and p.m == 2


def test_positions(fix_t):
    assert fix_t.positions()[0] == (0, 1, 2)
    assert fix_t.positions()[2] == (2, 1, 0)


def test_name_index(fix_t):
    assert fix_t.name_index("b") == 1
    with pytest.raises(KeyError):
        fix_t.name_index("zz")


def test_reverse_profile_flips(fix_t):
    r = reverse_profile(fix_t)
    assert r.rankings[0] == (2, 1, 0)
    assert r.rankings[1] == (2, 0, 1)
    assert r.candidate_names == fix_t.candidate_names


@given(profiles_strategy)
def test_reverse_is_an_involution(p):
    assert reverse_profile(reverse_profile(p)) == p


def test_plurality_scores(fix_p, fix_t, fix_c):
    assert plurality_scores(fix_p) == (2, 0, 2)
    assert plurality_scores(fix_t) == (1, 1, 1)
    assert plurality_scores(fix_c) == (2, 1, 0)


@given(profiles_strategy)
def test_plurality_scores_sum_to_n(p):
    assert sum(plurality_scores(p)) == p.n


def test_clone_expand_by_plurality(fix_c):
    ce = clone_expand(fix_c)
    assert ce.expanded.m == 3
    assert ce.expanded.candidate_names == ("a#1", "a#2", "b#1")
    assert ce.clones == ((0, 1), (2,), ())
    # voter 3 ranked b>a>c, so the expansion is b#1 > a#1 > a#2
    assert ce.expanded.rankings[2] == (2, 0, 1)
    assert ce.expanded.rankings[0] == (0, 1, 2)
    assert ce.expanded.n == fix_c.n


def test_clone_expand_errors():
    # n voters get n clones, so n * n cells: 3162 * 3162 fit under
    # MAX_CELLS, 3163 * 3163 do not and are refused before allocating
    assert 3162 ** 2 <= MAX_CELLS < 3163 ** 2
    ce = clone_expand(PreferenceProfile((((0, 1), 3162),), ("a", "b")))
    assert ce.expanded.m == 3162 and ce.clones[1] == ()
    big = PreferenceProfile((((0, 1), 3163),), ("a", "b"))
    tracemalloc.start()
    try:
        with pytest.raises(ProfileSizeError, match="cloning 3163 voters onto 3163 clones"):
            clone_expand(big)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_dominated_set(fix_p, fix_t):
    # c2 for type 0, voters v1 and v2 (c1>c2>c3): weakly below c2 is {c2, c3}
    assert dominated_set(fix_p, 1, [0]) == frozenset({1, 2})
    assert dominated_set(fix_p, 1, [0, 1]) == frozenset({0, 1, 2})
    assert dominated_set(fix_p, 1, []) == frozenset()
    assert dominated_set(fix_t, 2, [0, 1]) == frozenset({2})


def test_solid_coalitions(fix_p):
    got = {sc.candidates: frozenset(fix_p.voters_of(sc.types)) for sc in solid_groups(fix_p, 3)}
    assert got[frozenset({0})] == frozenset({0, 1})
    assert got[frozenset({2})] == frozenset({2, 3})
    assert got[frozenset({0, 1})] == frozenset({0, 1})
    assert got[frozenset({1, 2})] == frozenset({2, 3})
    assert got[frozenset({0, 1, 2})] == frozenset({0, 1, 2, 3})
    assert len(got) == 5
    # a shallower walk keeps only the prefixes of at most that many candidates
    assert [sc.candidates for sc in solid_groups(fix_p, 1)] == [frozenset({0}), frozenset({2})]
    assert solid_groups(fix_p, 0) == ()


@given(profiles_strategy)
def test_solid_coalition_supporters_are_maximal(p):
    for depth in range(p.m + 1):
        got = solid_groups(p, depth)
        for sc in got:
            r = len(sc.candidates)
            expect = frozenset(
                i for i in range(p.n) if frozenset(p.rankings[i][:r]) == sc.candidates
            )
            assert frozenset(p.voters_of(sc.types)) == expect and expect and r <= depth
            assert sc.size == len(expect)
        # every prefix of at most depth candidates is one group
        assert len(got) == len({frozenset(r[:j]) for r in p.rankings for j in range(1, depth + 1)})


# a profile of up to 30 voters casting rankings of 3 candidates, so that
# the runs of several ballot types interleave, and a candidate set for each
# ballot type, drawn from few sets, so that several types share one
profile_sets_strategy = st.lists(
    st.permutations(range(3)).map(tuple), min_size=1, max_size=30
).flatmap(
    lambda rankings: st.tuples(
        st.just(PreferenceProfile.of(rankings)),
        st.lists(st.sampled_from([frozenset(), frozenset({0}), frozenset({1, 3})]),
                 min_size=len(set(rankings)), max_size=len(set(rankings)))))


@given(profile_sets_strategy)
def test_voter_groups_merge_equal_sets_in_first_appearance_order(case):
    p, sets = case
    groups = voter_groups(p, sets)
    assert [g.candidates for g in groups] == list(dict.fromkeys(sets))
    # the voters of a group, read off the rankings
    set_of = {r: cs for (r, _), cs in zip(p.ballot_types(), sets)}
    for g in groups:
        assert g.types == tuple(t for t, cs in enumerate(sets) if cs == g.candidates)
        voters = [i for i, r in enumerate(p.rankings) if set_of[r] == g.candidates]
        assert p.voters_of(g.types) == voters
        assert g.size == len(voters)
    with pytest.raises(ValueError):
        voter_groups(p, sets[:-1])
    with pytest.raises(ValueError):
        voter_groups(p, sets + [frozenset()])


def test_all_profiles_counts():
    assert sum(1 for _ in all_profiles(2, 2)) == 4
    assert sum(1 for _ in all_profiles(1, 3)) == 6
    assert sum(1 for _ in all_profiles(3, 2)) == 8
    first = next(iter(all_profiles(2, 3)))
    assert first.rankings == ((0, 1, 2), (0, 1, 2))


def test_all_profiles_distinct():
    seen = {p.rankings for p in all_profiles(2, 3)}
    assert len(seen) == 36
    assert all(len(r) == 2 for r in seen)

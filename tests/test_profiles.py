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
    solid_coalitions,
    voter_groups,
)
from tests_support_random import profiles_strategy


def test_validation_rejects_bad_input():
    with pytest.raises(ValueError, match="at least one voter"):
        PreferenceProfile((), ("a",))
    # no rankings means no inferred candidates either; the voters are named
    with pytest.raises(ValueError, match="at least one voter"):
        PreferenceProfile.of([])
    with pytest.raises(ValueError, match="at least one voter"):
        PreferenceProfile((), ())
    with pytest.raises(ValueError, match="at least one candidate"):
        PreferenceProfile(((),), ())
    with pytest.raises(ValueError):
        PreferenceProfile(((0,),), ())
    with pytest.raises(ValueError):
        PreferenceProfile(((0, 1),), ("a", "a"))
    with pytest.raises(ValueError):
        PreferenceProfile(((0, 0),), ("a", "b"))
    # the first voter who cast the first bad ranking is named
    with pytest.raises(ValueError, match="ranking of voter 2 is not"):
        PreferenceProfile.of([(0, 1), (0, 1), (1, 1), (0, 1), (1, 1), (0, 2)])
    with pytest.raises(ValueError):
        PreferenceProfile(((0,),), ("a b",))
    with pytest.raises(ValueError):
        PreferenceProfile(((0,),), ("a>b",))
    with pytest.raises(ValueError):
        PreferenceProfile(((0,),), ("",))
    with pytest.raises(ValueError):
        PreferenceProfile(((0,),), ("#x",))
    with pytest.raises(ValueError):
        PreferenceProfile(((0,),), ("1:x",))
    # clone names carry a "#" inside
    assert PreferenceProfile(((0,),), ("a#1",)).candidate_names == ("a#1",)


def test_of_defaults_names():
    p = PreferenceProfile.of([(1, 0)])
    assert p.candidate_names == ("c1", "c2")
    assert p.n == 1 and p.m == 2


def test_positions_and_prefers(fix_t):
    assert fix_t.positions()[0] == (0, 1, 2)
    assert fix_t.positions()[2] == (2, 1, 0)
    assert fix_t.prefers(0, 0, 2)
    assert not fix_t.prefers(2, 0, 2)
    assert not fix_t.prefers(1, 1, 1)


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
    ce = clone_expand(fix_c, plurality_scores(fix_c))
    assert ce.expanded.m == 3
    assert ce.expanded.candidate_names == ("a#1", "a#2", "b#1")
    assert ce.origin == (0, 0, 1)
    assert ce.clones == ((0, 1), (2,), ())
    # voter 3 ranked b>a>c, so the expansion is b#1 > a#1 > a#2
    assert ce.expanded.rankings[2] == (2, 0, 1)
    assert ce.expanded.rankings[0] == (0, 1, 2)
    assert ce.expanded.n == fix_c.n


def test_clone_expand_errors(fix_s):
    with pytest.raises(ValueError):
        clone_expand(fix_s, (1,))
    with pytest.raises(ValueError):
        clone_expand(fix_s, (-1, 2))
    with pytest.raises(ValueError):
        clone_expand(fix_s, (0, 0))
    # two voters over MAX_CELLS // 2 + 1 clones: refused before allocating
    with pytest.raises(ProfileSizeError, match="ranking cells"):
        clone_expand(fix_s, (MAX_CELLS // 2, 1))


@given(profiles_strategy)
def test_clone_expand_identity_frequencies(p):
    ce = clone_expand(p, (1,) * p.m)
    assert ce.expanded.rankings == p.rankings
    assert ce.origin == tuple(range(p.m))


def test_dominated_set(fix_p, fix_t):
    # c2 for voter v1 (c1>c2>c3): weakly below c2 is {c2, c3}
    assert dominated_set(fix_p, 1, [0]) == frozenset({1, 2})
    assert dominated_set(fix_p, 1, [0, 2]) == frozenset({0, 1, 2})
    assert dominated_set(fix_t, 2, [0, 1]) == frozenset({2})


def test_solid_coalitions(fix_p):
    got = {sc.candidates: sc.voters for sc in solid_coalitions(fix_p)}
    assert got[frozenset({0})] == frozenset({0, 1})
    assert got[frozenset({2})] == frozenset({2, 3})
    assert got[frozenset({0, 1})] == frozenset({0, 1})
    assert got[frozenset({1, 2})] == frozenset({2, 3})
    assert got[frozenset({0, 1, 2})] == frozenset({0, 1, 2, 3})
    assert len(got) == 5


@given(profiles_strategy)
def test_solid_coalition_supporters_are_maximal(p):
    for sc in solid_coalitions(p):
        r = len(sc.candidates)
        expect = frozenset(
            i for i in range(p.n) if frozenset(p.rankings[i][:r]) == sc.candidates
        )
        assert sc.voters == expect and sc.voters
        assert sc.size == len(expect)


# candidate sets, and for each an ascending run of voters: voter v joins
# run owner[v] mod the number of sets, so runs of equal sets interleave
set_runs_strategy = st.tuples(
    st.lists(st.frozensets(st.integers(0, 3), max_size=3), min_size=1, max_size=8),
    st.lists(st.integers(0, 7), max_size=30),
).map(lambda t: (t[0], [tuple(v for v, o in enumerate(t[1]) if o % len(t[0]) == k)
                        for k in range(len(t[0]))]))


@given(set_runs_strategy)
def test_voter_groups_merge_equal_sets_in_first_appearance_order(case):
    sets, runs = case
    groups = voter_groups(sets, runs)
    assert [g.candidates for g in groups] == list(dict.fromkeys(sets))
    for g in groups:
        assert g.runs == tuple(run for cs, run in zip(sets, runs) if cs == g.candidates)
        assert list(g.members()) == sorted(g.voters)
        assert g.voters == frozenset(v for run in g.runs for v in run)
        assert g.size == len(g.voters)
    with pytest.raises(ValueError):
        voter_groups(sets, runs[:-1])
    with pytest.raises(ValueError):
        voter_groups(sets + [frozenset()], runs)


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

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from vetoflow import profile_io
from vetoflow.profiles import PreferenceProfile
from vetoflow.profile_io import (
    MetricInstance,
    ProfileSizeError,
    empirical_social_cost,
    format_rational,
    gen_euclidean,
    gen_impartial_culture,
    parse_metric,
    parse_profile,
    parse_rational,
    serialize_metric,
    serialize_profile,
)
from tests_support_random import profiles_strategy


NATIVE_T = "3 3\na b c\na>b>c\nb>a>c\nc>b>a\n"


def test_parse_native(fix_t):
    assert parse_profile(NATIVE_T) == fix_t


def test_parse_native_with_comments_and_blanks(fix_t):
    text = "# an election\n\n3 3\n  a b c\na>b>c\n# middle note\nb>a>c\nc>b>a\n"
    assert parse_profile(text) == fix_t


def test_native_round_trip(fix_p):
    assert parse_profile(serialize_profile(fix_p)) == fix_p


@given(profiles_strategy, st.data())
def test_round_trip_any_profile(p, data):
    # every profile the constructor accepts comes back; names may carry a
    # "#" inside, like clone names, and about half of the draws put a name
    # that would read as a comment or a count line last
    name = st.from_regex(r"[ab1][ab1#]{0,2}", fullmatch=True)
    names = data.draw(st.lists(name, min_size=p.m, max_size=p.m, unique=True))
    hostile = data.draw(st.one_of(st.none(), st.sampled_from(["#", "#a", "1:", "1:a", "a:b"])))
    if hostile is not None:
        names[-1] = hostile
    try:
        p = PreferenceProfile(p.rankings, tuple(names))
    except ValueError:
        return
    assert parse_profile(serialize_profile(p)) == p


def test_parse_count_lines():
    text = "2: 1,2,3\n1: 3,2,1\n"
    p = parse_profile(text)
    assert p.n == 3 and p.m == 3
    assert p.rankings == ((0, 1, 2), (0, 1, 2), (2, 1, 0))
    assert p.candidate_names == ("c1", "c2", "c3")


def test_parse_count_lines_with_names():
    text = (
        "# ALTERNATIVE NAME 1: left\n"
        "# ALTERNATIVE NAME 2: right\n"
        "1: 1,2\n"
        "1: 2,1\n"
    )
    p = parse_profile(text)
    assert p.candidate_names == ("left", "right")
    assert p.rankings == ((0, 1), (1, 0))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="duplicate candidate, line 4"):
        parse_profile("2 2\na b\na>b\na>a\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_profile("2 2\na a\na>a\na>a\n")
    with pytest.raises(ValueError, match="unknown candidate 'z', line 3"):
        parse_profile("2 2\na b\nz>b\nb>a\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_profile("two two\na b\n")
    with pytest.raises(ValueError, match="no ballot data"):
        parse_profile("# only comments\n")
    with pytest.raises(ValueError, match="3 voters"):
        parse_profile("2 3\na b\na>b\nb>a\n")


def test_parse_count_line_errors():
    with pytest.raises(ValueError, match="duplicate candidate, line 2"):
        parse_profile("1: 1,2\n1: 1,1\n")
    with pytest.raises(ValueError, match="permutation"):
        parse_profile("1: 1,3\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_profile("1: 1,2\n1: 1,2,3\n")


def test_count_lines_are_capped_by_their_running_total(monkeypatch):
    monkeypatch.setattr(profile_io, "MAX_VOTERS", 5)
    assert parse_profile("3: 1,2\n2: 2,1\n").n == 5
    with pytest.raises(ProfileSizeError, match="more than 5 voters, line 3"):
        parse_profile("3: 1,2\n# comment\n3: 2,1\n")


def test_rational_round_trip():
    assert format_rational(Fraction(3)) == "3/1"
    assert format_rational(Fraction(-5, 4)) == "-5/4"
    assert parse_rational("7/2") == Fraction(7, 2)
    assert parse_rational(" 3 ") == Fraction(3)
    with pytest.raises(ValueError):
        parse_rational("inf")


def test_gen_impartial_culture_is_deterministic():
    a = gen_impartial_culture(5, 4, seed=11)
    b = gen_impartial_culture(5, 4, seed=11)
    c = gen_impartial_culture(5, 4, seed=12)
    assert a == b
    assert a != c
    assert a.n == 5 and a.m == 4


def test_gen_euclidean_consistency():
    inst = gen_euclidean(6, 4, seed=3)
    # MetricInstance.__post_init__ would have raised on an inconsistent ranking
    assert inst.profile.n == 6 and inst.profile.m == 4
    for row in inst.distances:
        assert all(0 <= x <= 1 for x in row)
    again = gen_euclidean(6, 4, seed=3)
    assert again == inst


def euclidean_reference(n: int, m: int, seed: int) -> tuple[list, list]:
    """Rankings and distances of ``gen_euclidean``, computed in Fractions
    with explicit (distance, index) sort keys."""
    rng = random.Random(seed)

    def point():
        return Fraction(rng.randrange(1001), 1000), Fraction(rng.randrange(1001), 1000)

    voters = [point() for _ in range(n)]
    cands = [point() for _ in range(m)]
    dist = [tuple(max(abs(vx - cx), abs(vy - cy)) for cx, cy in cands) for vx, vy in voters]
    rankings = [tuple(sorted(range(m), key=lambda c: (row[c], c))) for row in dist]
    return rankings, dist


def test_gen_euclidean_matches_the_fraction_reference():
    ties = 0
    for n, m, seed in [(1, 1, 0), (7, 3, 1), (50, 40, 2), (30, 60, 3)]:
        inst = gen_euclidean(n, m, seed)
        rankings, dist = euclidean_reference(n, m, seed)
        assert inst.profile.rankings == tuple(rankings)
        assert inst.distances == tuple(dist)
        ties += sum(len(set(row)) < m for row in dist)
    # equal distances must occur, so the tie-break by index is exercised
    assert ties > 10


def test_metric_instance_rejects_mismatch(fix_s):
    with pytest.raises(ValueError, match="shape"):
        MetricInstance(fix_s, ((Fraction(0),),))
    with pytest.raises(ValueError, match="nonnegative"):
        MetricInstance(fix_s, ((Fraction(-1), Fraction(0)), (Fraction(0), Fraction(1))))
    with pytest.raises(ValueError, match="disagrees"):
        # voter 1 prefers a but sits closer to b
        MetricInstance(fix_s, ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(0))))


def test_fix_s_has_an_equal_cost_embedding(fix_s):
    # voters at the two sites: both candidates end up with social cost 1
    inst = MetricInstance(
        fix_s, ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    )
    assert empirical_social_cost(inst, 0) == 1
    assert empirical_social_cost(inst, 1) == 1


def test_metric_round_trip():
    inst = gen_euclidean(4, 3, seed=9)
    text = serialize_metric(inst)
    back = parse_metric(text, inst.profile)
    assert back == inst


def test_parse_metric_bad_shape(fix_s):
    with pytest.raises(ValueError):
        parse_metric("1/1 2/1\n", fix_s)

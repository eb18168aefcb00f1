import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from vetoflow import profile_io
from vetoflow.profiles import PreferenceProfile
from vetoflow.profile_io import (
    DistanceMatrix,
    ProfileSizeError,
    format_rational,
    gen_euclidean,
    gen_impartial_culture,
    parse_metric,
    parse_profile,
    parse_rational,
    serialize_profile,
)
from tests_support_oracles import fraction_check, parse_profile_reference
from tests_support_random import profiles_strategy, random_profiles


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
        p = PreferenceProfile.of(p.rankings, tuple(names))
    except ValueError:
        return
    assert parse_profile(serialize_profile(p)) == p


def test_parse_count_lines():
    text = "2: 1,2,3\n1: 3,2,1\n"
    p = parse_profile(text)
    assert p.n == 3 and p.m == 3
    assert p.rankings == ((0, 1, 2), (0, 1, 2), (2, 1, 0))
    assert p.candidate_names == ("c1", "c2", "c3")


def test_count_lines_become_runs():
    # one run per line with a nonzero count; equal adjacent lines merge
    p = parse_profile("2: 1,2\n0: 2,1\n1: 1,2\n3: 2,1\n")
    assert p.runs == (((0, 1), 3), ((1, 0), 3))
    assert serialize_profile(p) == "2 6\nc1 c2\n" + "c1>c2\n" * 3 + "c2>c1\n" * 3
    with pytest.raises(ValueError, match="no ballot data"):
        parse_profile("0: 1,2\n")


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
    with pytest.raises(ValueError, match="missing candidate name line"):
        parse_profile("2 2\n")
    with pytest.raises(ValueError, match="header says 3 candidates, name line has 2, line 2"):
        parse_profile("3 2\na b\na>b\nb>a\n")
    with pytest.raises(ValueError, match="ballot ranks 1 of 2 candidates, line 4"):
        parse_profile("2 2\na b\na>b\nb\n")


def test_parse_count_line_errors():
    with pytest.raises(ValueError, match="duplicate candidate, line 2"):
        parse_profile("1: 1,2\n1: 1,1\n")
    with pytest.raises(ValueError, match="permutation"):
        parse_profile("1: 1,3\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_profile("1: 1,2\n1: 1,2,3\n")


def test_alternative_names_are_refused_outside_the_slate_or_twice():
    # a name for an id outside 1..m, or a second name for one id, would
    # otherwise be dropped or overwrite the first without a word
    with pytest.raises(ValueError, match="alternative 7 is outside 1..2, line 1"):
        parse_profile("# ALTERNATIVE NAME 7: x\n1: 1,2\n")
    with pytest.raises(ValueError, match="alternative 0 is outside 1..2, line 2"):
        parse_profile("1: 2,1\n# ALTERNATIVE NAME 0: x\n1: 1,2\n")
    with pytest.raises(ValueError, match="alternative 2 is named twice, line 3"):
        parse_profile("# ALTERNATIVE NAME 2: b\n1: 1,2\n# alternative name 2: c\n")
    # names given before or after the ballots, for any subset of the slate
    p = parse_profile("1: 2,1,3\n# ALTERNATIVE NAME 3: z\n# ALTERNATIVE NAME 1: x\n")
    assert p.candidate_names == ("x", "c2", "z")


def test_count_lines_are_capped_by_their_running_total(monkeypatch):
    monkeypatch.setattr(profile_io, "MAX_VOTERS", 5)
    assert parse_profile("3: 1,2\n2: 2,1\n").n == 5
    with pytest.raises(ProfileSizeError, match="more than 5 voters, line 3"):
        parse_profile("3: 1,2\n# comment\n3: 2,1\n")


_PAD = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def reader_texts(draw) -> str:
    """Count-line or native texts, well formed or not: ballots mixed with
    comments, alternative names before, between and after them, blank and
    indented lines, and now and then a malformed line."""
    m = draw(st.integers(1, 4))
    names = "abcd"[:m]
    perm = st.permutations(range(m))
    count = st.one_of(st.integers(0, 3).map(str), st.integers(0, 3).map(str),
                      st.sampled_from(["12", "2000000", "1" * 5000]))
    ids = st.one_of(perm.map(lambda r: [str(c + 1) for c in r]), perm.map(lambda r: [str(c + 1) for c in r]),
                    st.lists(st.sampled_from(["0", "1", "2", "5", "+2", " 3", "x", ""]), max_size=5))
    count_line = st.builds(lambda a, c, b, w, r: f"{a}{c}{b}:{w}{','.join(r)}",
                           _PAD, count, _PAD, _PAD, ids)
    ballot = st.builds(lambda a, r: a + ">".join(names[c] for c in r), _PAD, perm)
    alt_name = st.builds(
        lambda a, word, k, name: f"{a}# {word} {k}: {name}",
        _PAD, st.sampled_from(["ALTERNATIVE NAME", "alternative name", "ALTERNATIVE  NAME"]),
        st.integers(0, m + 1), st.sampled_from(["x", "y", " z ", "a:b", "#w", "c1"]))
    note = st.one_of(alt_name, st.sampled_from(["", "   ", "\t", "#", "# a note", "  # indented note"]))
    malformed = st.sampled_from(["x: 1,2", "3 1,2", "1,2", ": 1", "a>b>", "1 2 3", "9: 1,2,3,4,5"])
    if draw(st.booleans()):
        body = draw(st.lists(st.one_of(count_line, count_line, note), max_size=8))
    else:
        n = draw(st.integers(0, 3))
        header = draw(st.sampled_from([f"{m} {n}", f"{m} {n}", f"{m} {n} 1", "x y"]))
        body = [header, draw(_PAD) + " ".join(names), *draw(st.lists(ballot, min_size=n, max_size=n + 1))]
        for line in draw(st.lists(note, max_size=4)):
            body.insert(draw(st.integers(0, len(body))), line)
    if draw(st.integers(0, 3)) == 0:
        body.insert(draw(st.integers(0, len(body))), draw(malformed))
    return draw(st.sampled_from(["\n", "\r\n"])).join(body)


def _read(reader, text):
    try:
        return reader(text)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=300)
@given(reader_texts())
@example("# ALTERNATIVE NAME 2: b\n1: 1,2\n3: 2,2\n# alternative name 2: c\n")
@example("1: 1,2\n# ALTERNATIVE NAME 2: b\n# ALTERNATIVE NAME 2: c\n1: 2,\n")
@example("  # ALTERNATIVE NAME 1: x\n\t2 : 2, 1\n\n# ALTERNATIVE NAME 2: y\n")
@example("1" * 5000 + ": 1,2\n")
@example("2 1\n# ALTERNATIVE NAME 1: x\na b\n  b > a \n")
def test_reader_matches_the_reference_reader(text):
    assert _read(parse_profile, text) == _read(parse_profile_reference, text)


def test_rational_round_trip():
    assert format_rational(Fraction(3)) == "3/1"
    assert format_rational(Fraction(-5, 4)) == "-5/4"
    assert parse_rational("7/2") == Fraction(7, 2)
    assert parse_rational(" 3 ") == Fraction(3)
    assert parse_rational("-0/3") == 0
    rng = random.Random(3)
    for _ in range(200):
        x = Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**12))
        assert parse_rational(format_rational(x)) == x
    # only what format_rational writes: a zero denominator or an exponent is
    # refused as malformed before any arithmetic, so no ZeroDivisionError and
    # no time that grows with 10**2000000
    for text in ["inf", "1/0", "-3/00", "1e2000000", "1.5", ".5", "+3", "1/-2", "3/ 4",
                 "1_000", "nan", "", "1/2/3", "\u0661/2"]:
        with pytest.raises(ValueError, match="rational p/q"):
            parse_rational(text)


def test_gen_impartial_culture_is_deterministic():
    a = gen_impartial_culture(5, 4, seed=11)
    b = gen_impartial_culture(5, 4, seed=11)
    c = gen_impartial_culture(5, 4, seed=12)
    assert a == b
    assert a != c
    assert a.n == 5 and a.m == 4


def test_gen_euclidean_consistency():
    p, dm = gen_euclidean(6, 4, seed=3)
    # the generator runs no check of its own; its output must pass one
    assert p.n == 6 and p.m == 4
    assert dm.check(p) == []
    for row in dm.values:
        assert all(0 <= x <= 1 for x in row)
    assert gen_euclidean(6, 4, seed=3) == (p, dm)
    for n, m, seed in [(1, 1, 0), (7, 3, 1), (25, 6, 2)]:
        p, dm = gen_euclidean(n, m, seed)
        assert dm.check(p) == []


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
        p, dm = gen_euclidean(n, m, seed)
        rankings, dist = euclidean_reference(n, m, seed)
        assert p.rankings == tuple(rankings)
        assert dm.values == tuple(dist)
        ties += sum(len(set(row)) < m for row in dist)
    # equal distances must occur, so the tie-break by index is exercised
    assert ties > 10


def test_metric_instance_rejects_mismatch(fix_s):
    F = Fraction
    with pytest.raises(ValueError, match=r"^matrix shape is not voters x candidates$"):
        DistanceMatrix(((F(0),),)).validate(fix_s)
    with pytest.raises(ValueError, match=r"^negative distance at voter 0, candidate 0"):
        DistanceMatrix(((F(-1), F(0)), (F(0), F(1)))).validate(fix_s)
    with pytest.raises(ValueError, match=r"^voter 0 ranks 0 above 1 but sits closer to 1"):
        # voter 0 prefers a but sits closer to b
        DistanceMatrix(((F(2), F(1)), (F(1), F(0)))).validate(fix_s)
    # hair-width nudges over mixed denominators: 1/3 is just above 333/1000
    # and 667/1000 just above 2/3; a negative distance in a later row comes
    # before voter 0's disagreement
    for rows, first in (
        (((F(0), F(1)), (F(333, 1000), F(1, 3))), "voter 1 ranks 1 above 0"),
        (((F(2, 3), F(667, 1000)), (F(1), F(1, 2))), None),
        (((F(667, 1000), F(2, 3)), (F(1), F(1, 2))), "voter 0 ranks 0 above 1"),
        (((F(2), F(1)), (F(-1, 7), F(0))), "negative distance at voter 1"),
    ):
        dm = DistanceMatrix(rows)
        msgs = dm.check(fix_s)
        assert msgs == fraction_check(dm, fix_s)
        assert (msgs[0].startswith(first) if msgs else first is None), rows
        if first is not None:
            with pytest.raises(ValueError, match="^" + first):
                parse_metric(dm.to_text(), fix_s)


def test_metric_instance_checks_match_the_fraction_reference():
    rng = random.Random(17)
    kinds = set()
    for p in random_profiles(300, seed=909, nmax=5, mmax=5):
        # ballot-consistent distances over mixed denominators, then a few
        # cells nudged by tiny amounts either way
        cells = sorted(Fraction(rng.randint(0, 30), rng.randint(1, 12)) for _ in range(p.m))
        rows = [[Fraction(0)] * p.m for _ in range(p.n)]
        for row, ranking in zip(rows, p.rankings):
            for a, x in zip(ranking, cells):
                row[a] = x
        for _ in range(rng.randint(0, 2)):
            i, a = rng.randrange(p.n), rng.randrange(p.m)
            rows[i][a] += Fraction(rng.choice([-1, 1]), rng.randint(50, 1000))
        dm = DistanceMatrix(tuple(map(tuple, rows)))
        msgs = dm.check(p)
        assert msgs == fraction_check(dm, p), (p.rankings, rows)
        kinds |= {msg.split()[0] for msg in msgs} or {None}
    # clean matrices, negative cells, disagreeing voters and broken
    # quadrangles all occur
    assert kinds == {None, "negative", "voter", "quadrangle"}


def test_fix_s_has_an_equal_cost_embedding(fix_s):
    # voters at the two sites: both candidates end up with social cost 1
    dm = DistanceMatrix(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))))
    assert dm.check(fix_s) == []
    assert dm.cost(0) == 1
    assert dm.cost(1) == 1
    assert type(dm.cost(0)) is Fraction


def test_metric_round_trip():
    p, dm = gen_euclidean(4, 3, seed=9)
    text = dm.to_text()
    assert parse_metric(text, p) == dm
    assert parse_metric("# distances\n\n" + text, p) == dm


def test_parse_metric_bad_shape(fix_s):
    with pytest.raises(ValueError):
        parse_metric("1/1 2/1\n", fix_s)


def test_parse_metric_refuses_a_matrix_that_extends_to_no_metric():
    # every voter's distances agree with the ballot, but voter 0 sits too
    # far from candidate 2: the quadrangle row (0, 1, 1, 0) fails too
    p = PreferenceProfile.of([(0, 1, 2), (1, 0, 2), (2, 1, 0)])
    text = "0 5/2 9/2\n1 0 2\n2 1/3 0\n"
    with pytest.raises(ValueError, match=r"quadrangle violated at \(0,1,1,0\)"):
        parse_metric(text, p)
    with pytest.raises(ValueError, match="rational p/q"):
        parse_metric("0 1/0 1\n1 0 1\n1 1 0\n", p)

"""The witness validators and the eating trace's balance check work per
ballot type.  Each is compared here with a per-voter reference: a Hall
witness on sets of ballot types spelled out voter by voter, a PSC violation
on voter sets that take whole ballot types or split them.  Forged witnesses
must still be refused."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from vetoflow.axioms import PscViolation, veto_core_member
from vetoflow.eating import EatingConfig, EatingTrace, run_eating
from vetoflow.matching import CutWitness, extract_deficiency_witness
from vetoflow.profiles import PreferenceProfile, dominated_set, reverse_profile
from tests_support_oracles import fraction_column_sums, fraction_row_sums, int_rows


def dominated_set_per_voter(p, c, voters):
    out = set()
    for i in voters:
        r = p.rankings[i]
        out.update(r[r.index(c):])
    return frozenset(out)


def voters_per_ranking(p, types):
    """The voters who cast the ranking of a type in ``types``, found voter
    by voter on the rankings."""
    cast = {p.ballot_types()[t].ranking for t in types}
    return frozenset(i for i, r in enumerate(p.rankings) if r in cast)


def cut_witness_refusal(p, w, c):
    """The reason a voter-by-voter check refuses w, or None if it holds."""
    if not w.types:
        return "empty"
    if any(type(t) is not int or not 0 <= t < len(p.ballot_types()) for t in w.types):
        return "outside"
    voters = voters_per_ranking(p, w.types)
    if w.dominated != dominated_set_per_voter(p, c, voters):
        return "does not match"
    if len(w.dominated) >= Fraction(p.m * len(voters), p.n):
        return "Hall"
    return None


def psc_violation_refusal(p, v, committee, k):
    """The reason a voter-by-voter check refuses v, or None if it holds."""
    if not v.supporters:
        return "empty"
    if v.alternative in committee:
        return "already"
    if not v.prefix_set - committee:
        return "uncommitted"
    union = set()
    for i in v.supporters:
        r = p.rankings[i]
        union.update(r[: r.index(v.alternative) + 1])
    if union != v.prefix_set:
        return "union"
    if len(v.supporters) * (k + 1) <= len(v.prefix_set) * p.n:
        return "Droop"
    return None


def refusal(validate):
    try:
        validate()
    except ValueError as exc:
        return str(exc)
    return None


def repeated_profile(rng):
    m, types, n = rng.randint(1, 5), rng.randint(1, 4), rng.randint(1, 30)
    ballots = [tuple(rng.sample(range(m), m)) for _ in range(types)]
    return PreferenceProfile.of([rng.choice(ballots) for _ in range(n)])


def type_sets(p, rng):
    """Random sets of ballot types, each type alone, and all of them."""
    everything = range(len(p.ballot_types()))
    for _ in range(4):
        yield frozenset(t for t in everything if rng.random() < rng.random())
    for t in everything:
        yield frozenset({t})
    yield frozenset(everything)


def voter_sets(p, rng):
    """Random voter sets, and for each ballot type its whole voter set and a
    part of it that splits the type."""
    for _ in range(4):
        yield frozenset(i for i in range(p.n) if rng.random() < rng.random())
    for t in range(len(p.ballot_types())):
        voters = p.voters_of([t])
        yield frozenset(voters)
        yield frozenset(rng.sample(voters, max(1, len(voters) // 2)))


def subsets(rng, items):
    return frozenset(x for x in items if rng.random() < 0.5)


def test_per_type_validators_agree_with_per_voter_references():
    rng = random.Random(8080)
    held = {"cut": 0, "psc": 0}
    refused = {"cut": set(), "psc": set()}
    refused_split = set()  # PSC refusals on voter sets that split a type
    split = boundary = smaller = weighted = 0
    for _ in range(250):
        p = repeated_profile(rng)
        for types in type_sets(p, rng):
            voters = voters_per_ranking(p, types)
            for c in range(p.m):
                dominated = dominated_set_per_voter(p, c, voters)
                assert dominated_set(p, c, types) == dominated
                bad = rng.choice((-1, len(p.ballot_types()), 0.5, True))
                # the true set, a part of it and a random set, each claimed by
                # the types and by the types plus an index that may be no type
                for claimed in (dominated, subsets(rng, dominated), subsets(rng, range(p.m))):
                    for w in (CutWitness(types, claimed), CutWitness(types | {bad}, claimed)):
                        expect = cut_witness_refusal(p, w, c)
                        got = refusal(lambda: w.validate(p, c))
                        assert (got is None) == (expect is None), (p.rankings, w, c, got)
                        if expect is not None:
                            assert expect in got, (p.rankings, w, c, got)
                            refused["cut"].add(expect)
                        held["cut"] += expect is None
                        boundary += len(claimed) * p.n == p.m * len(voters) and claimed == dominated
                        smaller += claimed < dominated
                        # counting types instead of voters would flip the Hall test
                        weighted += claimed == dominated and (
                            (len(claimed) * p.n < p.m * len(voters))
                            != (len(claimed) * p.n < p.m * len(types)))
        for voters in voter_sets(p, rng):
            splits = any(0 < len(voters.intersection(p.voters_of([t]))) < count
                         for t, (_, count) in enumerate(p.ballot_types()))
            split += splits
            committee = subsets(rng, range(p.m))
            for x in set(range(p.m)) - committee:
                union = frozenset().union(
                    *(p.rankings[i][: p.rankings[i].index(x) + 1] for i in voters))
                k = len(committee)
                for prefix in (union, union ^ {rng.randrange(p.m)}):
                    v = PscViolation(prefix, voters, x)
                    expect = psc_violation_refusal(p, v, committee, k)
                    got = refusal(lambda: v.validate(p, committee))
                    assert (got is None) == (expect is None), (p.rankings, v, committee, k, got)
                    if expect is not None:
                        assert expect in got, (p.rankings, v, committee, k, got)
                        refused["psc"].add(expect)
                        if splits:
                            refused_split.add(expect)
                    held["psc"] += expect is None
    # every outcome of both validators occurs, PSC's on many sets that split
    # a type; the cut check meets its Hall boundary, strict parts of the
    # dominated set, both of which it must refuse, and types whose sizes
    # decide the Hall test
    assert held["cut"] > 100 and held["psc"] > 100
    assert refused["cut"] >= {"empty", "outside", "does not match", "Hall"}
    assert refused["psc"] >= {"empty", "union", "Droop"}
    assert refused_split >= {"union", "Droop"}
    assert split > 500 and boundary > 500 and smaller > 5000 and weighted > 1000


def test_forged_witnesses_are_refused(fix_t):
    # fix_t's ballot type t is voter t
    c = 2
    w = veto_core_member(fix_t, c).witness
    w.validate(fix_t, c)
    # type 2 ranks c first, so with it the types dominate everything
    with pytest.raises(ValueError, match="dominated set does not match"):
        replace(w, types=w.types | {2}).validate(fix_t, c)
    for types in ({-1}, {3}, w.types | {3}, {True}):
        with pytest.raises(ValueError, match="outside"):
            replace(w, types=frozenset(types)).validate(fix_t, c)
        with pytest.raises(ValueError, match="outside"):
            dominated_set(fix_t, c, types)

    # two types of different sizes: voters 0-3 cast one ballot, 4-5 another
    p = PreferenceProfile.of([(0, 1, 2, 3)] * 4 + [(3, 2, 1, 0)] * 2)
    # four of six voters dominate one of four candidates: 1 * 6 < 4 * 4,
    # though one type of two would not be: 1 * 6 >= 4 * 1
    w = CutWitness(frozenset({0}), frozenset({3}))
    w.validate(p, 3)
    with pytest.raises(ValueError, match="dominated set does not match"):
        replace(w, types=w.types | {1}).validate(p, 3)

    rev = reverse_profile(p)  # voters 0-3 now rank 3 first, 4-5 rank 0 first
    committee = frozenset({0})
    v = PscViolation(frozenset({3}), frozenset({0, 1, 2, 3}), 3)
    v.validate(rev, committee)
    with pytest.raises(ValueError, match="union"):
        PscViolation(frozenset({2, 3}), v.supporters, 3).validate(rev, committee)
    with pytest.raises(ValueError, match="union"):
        # voter 4 ranks 0, 1 and 2 above 3
        PscViolation(v.prefix_set, v.supporters | {4}, 3).validate(rev, committee)
    # three of six voters: 3 * (k + 1) <= 1 * 6
    with pytest.raises(ValueError, match="Droop"):
        PscViolation(frozenset({3}), frozenset({1, 2, 3}), 3).validate(rev, committee)
    with pytest.raises(ValueError, match="outside"):
        PscViolation(frozenset({3}), frozenset({0, 1, 6}), 3).validate(rev, committee)


def test_witness_validators_refuse_non_voters():
    # voters 0-3 cast one ballot, 4-5 the reverse; each witness holds as
    # given, and one extra member that is no type, or no voter, must make
    # it fail
    p = PreferenceProfile.of([(0, 1, 2, 3)] * 4 + [(3, 2, 1, 0)] * 2)
    rev = reverse_profile(p)
    cut = extract_deficiency_witness(p, 3)
    psc = PscViolation(frozenset({3}), frozenset({0, 1, 2, 3}), 3)
    assert cut.types == {0}
    cut.validate(p, 3)
    psc.validate(rev, frozenset({0}))
    for bad in (0.5, "1", -1, 2, True):
        outside = r"ballot type index outside 0\.\.1"
        with pytest.raises(ValueError, match=outside):
            CutWitness(cut.types | {bad}, cut.dominated).validate(p, 3)
        with pytest.raises(ValueError, match=outside):
            dominated_set(p, 3, {0, bad})
    for bad in (0.5, "1", -1, p.n):
        with pytest.raises(ValueError, match="voter index outside 0..5"):
            PscViolation(psc.prefix_set, psc.supporters | {bad}, 3).validate(rev, frozenset({0}))


def fraction_trace_refusal(p, trace):
    """The message of the trace's balance check, worked out voter by voter
    in Fractions on the rows spread to the voters, or None."""
    shares = p.per_voter(trace.consumption)
    for i, total in enumerate(fraction_row_sums(shares)):
        if total != trace.elapsed:
            return f"voter {i} consumption does not add up to the elapsed time"
    for c, total in enumerate(fraction_column_sums(shares)):
        if c in trace.survivors:
            if total >= 1:
                return f"survivor {c} was fully consumed"
        elif total != 1:
            return f"eliminated candidate {c} absorbed {total}, not 1"
    for i, row in enumerate(shares):
        if min(row) < 0:
            return f"voter {i} consumption is negative"
    return None


def test_integer_balance_check_agrees_with_fractions():
    # random type rows, each standing for its type's voters; the survivors
    # are either the candidates eaten less than 1 or a random set
    rng = random.Random(77)
    outcomes = set()
    for _ in range(400):
        m, types, n = rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 8)
        ballots = [tuple(rng.sample(range(m), m)) for _ in range(types)]
        p = PreferenceProfile.of([rng.choice(ballots) for _ in range(n)])
        rows = tuple(tuple(Fraction(rng.randint(0, 6), rng.randint(1, 6)) for _ in range(m))
                     for _ in p.ballot_types())
        columns = fraction_column_sums(p.per_voter(rows))
        for elapsed in {sum(rows[0]), Fraction(1)}:
            for survivors in (frozenset(c for c in range(m) if columns[c] < 1),
                              frozenset(c for c in range(m) if rng.random() < 0.5)):
                gone = tuple(c for c in range(m) if c not in survivors)
                # an event time lies in (0, elapsed], so a run of elapsed 0 has none
                events = ((elapsed or Fraction(1), gone),) if gone else ()
                trace = EatingTrace(events, *int_rows(rows), survivors, elapsed)
                if gone and not elapsed:
                    with pytest.raises(ValueError, match="event times must lie in"):
                        trace.validate(p)
                    continue
                expect = fraction_trace_refusal(p, trace)
                assert refusal(lambda: trace.validate(p)) == expect, (p.rankings, trace)
                outcomes.add(None if expect is None else expect.split()[0])
    assert outcomes == {None, "voter", "survivor", "eliminated"}


def test_balance_check_resolves_the_smallest_unit():
    rng = random.Random(5)
    for _ in range(40):
        m = rng.randint(2, 5)
        n = rng.randint(m, 12)
        ballots = [tuple(rng.sample(range(m), m)) for _ in range(3)]
        p = PreferenceProfile.of([rng.choice(ballots) for _ in range(n)])
        elapsed = Fraction(m, n)  # m <= n, so every candidate is eaten by then
        trace = run_eating(p, EatingConfig(stop_time=elapsed))
        trace.validate(p)
        assert not trace.survivors
        shares = p.per_voter(trace.consumption)
        assert fraction_row_sums(shares) == (elapsed,) * n
        assert fraction_column_sums(shares) == (Fraction(1),) * m
        # the run's one denominator is that of its cells
        den, _ = int_rows(trace.consumption)
        assert trace.den == den
        unit = Fraction(1, den)
        # ballot type t alone loses one unit of column c
        t, c = rng.randrange(len(trace.consumption)), rng.randrange(m)
        count = p.ballot_types()[t].count
        short = list(trace.consumption[t])
        short[c] -= unit
        rows = trace.consumption[:t] + (tuple(short),) + trace.consumption[t + 1:]
        with pytest.raises(ValueError, match=f"voter {p.voters_of([t])[0]} consumption does not"):
            EatingTrace(trace.events, *int_rows(rows), trace.survivors, elapsed).validate(p)
        # the same unit moved inside type t's row to a column that is full:
        # the rows balance, and the lower of the two columns is off by the
        # unit once per voter of type t
        d = (c + 1) % m
        moved = list(short)
        moved[d] += unit
        rows = trace.consumption[:t] + (tuple(moved),) + trace.consumption[t + 1:]
        columns = fraction_column_sums(p.per_voter(rows))
        assert (columns[c], columns[d]) == (1 - count * unit, 1 + count * unit)
        first = min(c, d)
        with pytest.raises(ValueError, match=f"eliminated candidate {first} absorbed "
                                             f"{columns[first]}, not 1"):
            EatingTrace(trace.events, *int_rows(rows), trace.survivors, elapsed).validate(p)

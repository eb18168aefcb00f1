"""The witness validators and the probabilistic-serial balance check work per
ballot type.  Each is compared here with a per-voter reference on voter sets
that take whole ballot types or split them, and forged witnesses must still
be refused."""

import math
import random
from fractions import Fraction

import pytest

from vetoflow.axioms import PscViolation, VetoWitness, veto_core_member, veto_power
from vetoflow.eating import FractionalAssignment, probabilistic_serial
from vetoflow.profiles import PreferenceProfile, dominated_set, reverse_profile


def dominated_set_per_voter(p, c, voters):
    out = set()
    for i in voters:
        r = p.rankings[i]
        out.update(r[r.index(c):])
    return frozenset(out)


def veto_witness_refusal(p, w, c):
    """The reason a voter-by-voter check refuses w, or None if it holds."""
    if not w.voters:
        return "empty"
    if c in w.blocked_by:
        return "itself"
    for i in w.voters:
        r = p.rankings[i]
        if any(b not in r[: r.index(c)] for b in w.blocked_by):
            return "does not rank"
    if len(w.blocked_by) < p.m - veto_power(p.n, p.m, len(w.voters)):
        return "too small"
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


def voter_sets(p, rng):
    """Random voter sets, and for each ballot type its whole voter set and a
    part of it that splits the type."""
    for _ in range(4):
        yield frozenset(i for i in range(p.n) if rng.random() < rng.random())
    for bt in p.ballot_types():
        yield frozenset(bt.voters)
        yield frozenset(rng.sample(bt.voters, max(1, len(bt.voters) // 2)))


def subsets(rng, items):
    return frozenset(x for x in items if rng.random() < 0.5)


def test_per_type_validators_agree_with_per_voter_references():
    rng = random.Random(8080)
    held = {"veto": 0, "psc": 0}
    refused = {"veto": set(), "psc": set()}
    split = 0
    for _ in range(250):
        p = repeated_profile(rng)
        for voters in voter_sets(p, rng):
            split += any(0 < len(voters & set(bt.voters)) < len(bt.voters)
                         for bt in p.ballot_types())
            for c in range(p.m):
                assert dominated_set(p, c, voters) == dominated_set_per_voter(p, c, voters)
                above = frozenset(range(p.m)).intersection(
                    *(p.rankings[i][: p.rankings[i].index(c)] for i in voters))
                for blocked in (above, subsets(rng, above), subsets(rng, range(p.m))):
                    w = VetoWitness(voters, blocked)
                    expect = veto_witness_refusal(p, w, c)
                    got = refusal(lambda: w.validate(p, c))
                    assert (got is None) == (expect is None), (p.rankings, w, c, got)
                    if expect is not None:
                        assert expect in got, (p.rankings, w, c, got)
                        refused["veto"].add(expect)
                    held["veto"] += expect is None
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
                    held["psc"] += expect is None
    # every outcome of both validators occurs, on many sets that split a type
    assert held["veto"] > 100 and held["psc"] > 100
    assert refused["veto"] >= {"empty", "itself", "does not rank", "too small"}
    assert refused["psc"] >= {"empty", "union", "Droop"}
    assert split > 500


def test_forged_witnesses_are_refused(fix_t):
    c = 2
    w = veto_core_member(fix_t, c).witness
    w.validate(fix_t, c)
    # voter 2 ranks c first, so every blocker sits below c for them
    with pytest.raises(ValueError, match="voter 2 does not rank"):
        VetoWitness(w.voters | {2}, w.blocked_by).validate(fix_t, c)
    for voters in ({-1}, {fix_t.n}, w.voters | {fix_t.n}):
        with pytest.raises(ValueError, match="outside"):
            VetoWitness(frozenset(voters), w.blocked_by).validate(fix_t, c)
        with pytest.raises(ValueError, match="outside"):
            dominated_set(fix_t, c, voters)

    # a type split in two: voters 0-3 cast one ballot, 4-5 another
    p = PreferenceProfile.of([(0, 1, 2, 3)] * 4 + [(3, 2, 1, 0)] * 2)
    # three of six voters veto one of four candidates: three must block
    w = VetoWitness(frozenset({1, 2, 3}), frozenset({0, 1, 2}))
    w.validate(p, 3)
    with pytest.raises(ValueError, match="voter 4 does not rank"):
        VetoWitness(w.voters | {4}, w.blocked_by).validate(p, 3)

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


def fraction_row_sums(shares):
    return tuple(sum(row, Fraction(0)) for row in shares)


def fraction_column_sums(shares):
    return tuple(sum((row[c] for row in shares), Fraction(0)) for c in range(len(shares[0])))


def fraction_refusal(shares, row_sum):
    """The message of a Fraction-by-Fraction balance check, or None."""
    for i, total in enumerate(fraction_row_sums(shares)):
        if total != row_sum:
            return f"row {i} sums to {total}, expected {row_sum}"
    for c, total in enumerate(fraction_column_sums(shares)):
        if total > 1:
            return f"column {c} exceeds 1"
    return None


def shared_rows(rng, rows, n):
    """n voters, each holding one of the given row objects."""
    return tuple(rng.choice(rows) for _ in range(n))


def test_integer_balance_check_agrees_with_fractions():
    rng = random.Random(77)
    outcomes = set()
    for _ in range(400):
        m, n = rng.randint(1, 4), rng.randint(1, 8)
        rows = [tuple(Fraction(rng.randint(0, 6), rng.randint(1, 6)) for _ in range(m))
                for _ in range(rng.randint(1, 3))]
        shares = shared_rows(rng, rows, n)
        a = FractionalAssignment(shares)
        assert a.row_sums() == fraction_row_sums(shares)
        assert a.column_sums() == fraction_column_sums(shares)
        for row_sum in {sum(rows[0]), Fraction(1)}:
            expect = fraction_refusal(shares, row_sum)
            assert refusal(lambda: a.validate(row_sum)) == expect, (shares, row_sum)
            outcomes.add(None if expect is None else expect.split()[0])
    assert outcomes == {None, "row", "column"}


def test_balance_check_resolves_the_smallest_unit():
    rng = random.Random(5)
    for _ in range(40):
        m = rng.randint(2, 5)
        n = rng.randint(m, 12)
        ballots = [tuple(rng.sample(range(m), m)) for _ in range(3)]
        p = PreferenceProfile.of([rng.choice(ballots) for _ in range(n)])
        a = probabilistic_serial(p)
        row_sum = Fraction(m, n)  # k = m <= n, so every candidate is eaten
        a.validate(row_sum)
        assert a.row_sums() == fraction_row_sums(a.shares) == (row_sum,) * n
        assert a.column_sums() == fraction_column_sums(a.shares) == (Fraction(1),) * m
        den = math.lcm(*(v.denominator for row in a.shares for v in row))
        unit = Fraction(1, den)
        # voter i alone loses one unit of column c
        i, c = rng.randrange(n), rng.randrange(m)
        short = list(a.shares[i])
        short[c] -= unit
        shares = a.shares[:i] + (tuple(short),) + a.shares[i + 1:]
        with pytest.raises(ValueError, match=f"row {i} sums to {row_sum - unit},"):
            FractionalAssignment(shares).validate(row_sum)
        # the same unit moved inside voter i's row to a column that is full
        d = (c + 1) % m
        moved = list(short)
        moved[d] += unit
        shares = a.shares[:i] + (tuple(moved),) + a.shares[i + 1:]
        assert FractionalAssignment(shares).column_sums()[d] == 1 + unit
        with pytest.raises(ValueError, match=f"column {d} exceeds 1"):
            FractionalAssignment(shares).validate(row_sum)

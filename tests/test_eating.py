import hashlib
import itertools
import math
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from vetoflow.eating import (
    EatingConfig,
    EatingTrace,
    phragmen_committee,
    probabilistic_serial,
    run_eating,
    veto_by_consumption_winners,
)
from vetoflow.profiles import PreferenceProfile, all_profiles, reverse_profile
from tests_support_oracles import int_rows
from tests_support_random import random_profiles, repeated_profiles


def per_step_eating(p: PreferenceProfile, cfg: EatingConfig) -> EatingTrace:
    """``run_eating`` with the per-voter loop that adds each step's duration
    to every eater's row; the reference for the accumulation per stretch.
    Its trace holds one consumption row per voter, not per ballot type,
    over the lcm of its cells' denominators."""
    order = [r if cfg.direction == "eat-best" else r[::-1] for r in p.rankings]
    rank = {c: c for c in range(p.m)} if cfg.tie_break is None else {
        c: r for r, c in enumerate(cfg.tie_break)
    }
    alive = [True] * p.m
    absorbed = [Fraction(0)] * p.m
    consumption = [[Fraction(0)] * p.m for _ in range(p.n)]
    events = []
    t = Fraction(0)
    while True:
        gone = p.m - sum(alive)
        if cfg.stop_time is not None and t == cfg.stop_time:
            break
        if cfg.stop_eliminations is not None and gone >= cfg.stop_eliminations:
            break
        if gone == p.m:
            break
        eating = [next(c for c in row if alive[c]) for row in order]
        count = {c: eating.count(c) for c in set(eating)}
        dt = min((1 - absorbed[c]) / k for c, k in count.items())
        if cfg.stop_time is not None:
            dt = min(dt, cfg.stop_time - t)
        t += dt
        for i, c in enumerate(eating):
            consumption[i][c] += dt
        for c, k in count.items():
            absorbed[c] += dt * k
        batch = sorted((c for c in count if absorbed[c] == 1), key=rank.__getitem__)
        if batch:
            events.append((t, tuple(batch)))
            for c in batch:
                alive[c] = False
    survivors = frozenset(c for c in range(p.m) if alive[c])
    return EatingTrace(tuple(events), *int_rows(consumption), survivors, t)


def test_config_validation():
    with pytest.raises(ValueError, match="stopping"):
        EatingConfig()
    with pytest.raises(ValueError, match="direction"):
        EatingConfig(direction="sideways", stop_time=Fraction(1))
    with pytest.raises(ValueError, match="stopping"):
        EatingConfig(stop_time=Fraction(1), stop_eliminations=1)
    for bound in ({"stop_time": Fraction(-1)}, {"stop_eliminations": -1}):
        with pytest.raises(ValueError, match="must be nonnegative"):
            EatingConfig(**bound)


def test_config_takes_only_exact_bounds(fix_u):
    # a float time would run the exact loop into float cells and elapsed time
    for bound in ({"stop_time": 0.5}, {"stop_time": True}, {"stop_eliminations": 1.5},
                  {"stop_eliminations": True}, {"stop_eliminations": Fraction(1)}):
        with pytest.raises(TypeError, match="must be an int"):
            EatingConfig(**bound)
    assert run_eating(fix_u, EatingConfig(stop_time=1)) == run_eating(
        fix_u, EatingConfig(stop_time=Fraction(1)))


def test_eat_worst_trace_on_fix_t(fix_t):
    # worst choices are c, c, a: c dies at 1/2, then a is shared by two eaters
    cfg = EatingConfig(direction="eat-worst", stop_time=Fraction(2, 3))
    trace = run_eating(fix_t, cfg)
    assert trace.events == ((Fraction(1, 2), (2,)),)
    assert trace.survivors == frozenset({0, 1})
    assert trace.elapsed == Fraction(2, 3)
    absorbed = [sum(row[c] for row in trace.consumption) for c in range(3)]
    assert absorbed == [Fraction(5, 6), Fraction(1, 6), Fraction(1)]
    trace.validate(fix_t)


def test_eat_best_trace_on_fix_u(fix_u):
    cfg = EatingConfig(stop_time=Fraction(1))
    trace = run_eating(fix_u, cfg)
    assert trace.events == ((Fraction(1, 2), (0,)), (Fraction(1), (1,)))
    assert trace.survivors == frozenset()
    # both voters cast one ballot type, so the trace holds one row
    assert trace.consumption == ((Fraction(1, 2), Fraction(1, 2)),)
    assert fix_u.per_voter(trace.consumption) == (
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 2)),
    )
    assert trace.eliminated_order() == (0, 1)
    trace.validate(fix_u)


def test_zero_time_run(fix_t):
    cfg = EatingConfig(stop_time=Fraction(0))
    trace = run_eating(fix_t, cfg)
    assert trace.events == ()
    assert trace.elapsed == 0
    assert trace.survivors == frozenset({0, 1, 2})
    trace.validate(fix_t)


def test_starvation_raises(fix_u):
    with pytest.raises(ValueError, match="consumed at time 1, before the bound 2"):
        run_eating(fix_u, EatingConfig(stop_time=Fraction(2)))


def test_simultaneous_batch_and_tie_break(fix_s):
    # opposed tops: both candidates die together at time 1
    cfg = EatingConfig(stop_eliminations=1)
    trace = run_eating(fix_s, cfg)
    assert trace.events == ((Fraction(1), (0, 1)),)
    cfg = EatingConfig(stop_eliminations=1, tie_break=(1, 0))
    trace = run_eating(fix_s, cfg)
    assert trace.events == ((Fraction(1), (1, 0)),)
    with pytest.raises(ValueError, match="permutation"):
        run_eating(fix_s, EatingConfig(stop_eliminations=1, tie_break=(0,)))
    with pytest.raises(ValueError, match="cannot eliminate more candidates than exist"):
        run_eating(fix_s, EatingConfig(stop_eliminations=3))


def test_trace_validate_catches_tampering(fix_u, fix_p, fix_s):
    cfg = EatingConfig(stop_time=Fraction(1))
    trace = run_eating(fix_u, cfg)
    bad = replace(trace, survivors=frozenset({1}))
    with pytest.raises(ValueError, match="survivor was also eliminated"):
        bad.validate(fix_u)
    half, zero = Fraction(1, 2), Fraction(0)
    # fix_u's one ballot type stands for voters 0 and 1
    for rows, message in [
        (((half, zero),), "voter 0 consumption does not add up"),
        # the row balances, but its two voters give candidate 0 3/2
        (((Fraction(3, 4), Fraction(1, 4)),), "eliminated candidate 0 absorbed 3/2, not 1"),
    ]:
        bad = EatingTrace(trace.events, *int_rows(rows), trace.survivors, trace.elapsed)
        with pytest.raises(ValueError, match=message):
            bad.validate(fix_u)
    # fix_p's second ballot type is cast first by voter 2, who eats less than
    # the elapsed time
    split = run_eating(fix_p, EatingConfig(stop_time=half))
    split.validate(fix_p)
    rows = (split.consumption[0], (zero, zero, Fraction(1, 4)))
    with pytest.raises(ValueError, match="voter 2 consumption does not add up"):
        EatingTrace(split.events, *int_rows(rows), split.survivors, split.elapsed).validate(fix_p)
    # a survivor may not be eaten up
    early = run_eating(fix_u, EatingConfig(stop_time=Fraction(1, 2)))
    early.validate(fix_u)
    bad = replace(early, events=(), survivors=frozenset({0, 1}))
    with pytest.raises(ValueError, match="survivor 0 was fully consumed"):
        bad.validate(fix_u)
    bad = replace(trace, events=((Fraction(1, 2), (0,)), (Fraction(1, 2), (1,))))
    with pytest.raises(ValueError, match="increasing"):
        bad.validate(fix_u)
    # fix_u eats candidate 0 up at 1/2 and candidate 1 at 1; the rows still
    # balance when an event repeats a candidate or one goes missing
    for events, message in [
        (((half, (0,)), (Fraction(1), (1, 0))), "candidate eliminated twice"),
        (((half, (0,)),), "every candidate must be a survivor or eliminated"),
    ]:
        with pytest.raises(ValueError, match=message):
            replace(trace, events=events).validate(fix_u)
    # fix_s eats both candidates up at 1, its run's end; its one event may
    # not fall after the end, at 0 or before
    both = run_eating(fix_s, cfg)
    both.validate(fix_s)
    for time in (Fraction(5), Fraction(-1), Fraction(0)):
        bad = replace(both, events=((time, (0, 1)),))
        with pytest.raises(ValueError, match=re.escape("event times must lie in (0, 1]")):
            bad.validate(fix_s)
    # the rows are int numerators over a positive int denominator
    for den in (0, -2, 2.0, Fraction(2), True):
        with pytest.raises(ValueError, match="is not a positive int"):
            replace(both, den=den).validate(fix_s)
    for rows in (((1.0, 0), (0, 1)), ((Fraction(1), 0), (0, 1)), ((True, 0), (0, 1))):
        with pytest.raises(ValueError, match="every share must be an int numerator"):
            replace(both, rows=rows).validate(fix_s)


def test_runs_are_deterministic_and_conservative():
    for p in random_profiles(100, seed=404):
        cfg = EatingConfig(direction="eat-worst", stop_eliminations=max(0, p.m - 1))
        a = run_eating(p, cfg)
        b = run_eating(p, cfg)
        assert a == b
        a.validate(p)
        # unit eating speed: total consumed equals elapsed times voters
        types = p.ballot_types()
        assert len(a.consumption) == len(types)
        total = sum(bt.count * sum(row) for bt, row in zip(types, a.consumption))
        assert total == a.elapsed * p.n


def interval_cases(rng: random.Random, count: int):
    """Profiles of up to 60 voters drawn from pools of up to 24 rankings
    over at most 6 candidates, each with configs that stop after a random
    number of eliminations, at time 0, exactly at an event time, strictly
    between two consecutive times of the full run, and on a grid of times."""
    for _ in range(count):
        m = rng.randint(1, 6)
        pool = [tuple(rng.sample(range(m), m)) for _ in range(rng.randint(1, 24))]
        p = PreferenceProfile.of([rng.choice(pool) for _ in range(rng.randint(1, 60))])
        direction = rng.choice(["eat-best", "eat-worst"])
        tie_break = tuple(rng.sample(range(p.m), p.m))
        # everything is eaten at m/n, so no bound up to the last event starves the run
        full = run_eating(p, EatingConfig(direction, stop_eliminations=p.m))
        times = [Fraction(0)] + [t for t, _ in full.events]
        i = rng.randrange(len(times) - 1)
        stop_times = [
            Fraction(0),
            rng.choice(times[1:]),
            (times[i] + times[i + 1]) / 2,
            Fraction(rng.randint(0, p.m * 4), 4 * p.n),
        ]
        configs = [EatingConfig(direction, stop_eliminations=rng.randint(0, p.m),
                                tie_break=tie_break)]
        configs += [EatingConfig(direction, stop_time=s, tie_break=tie_break)
                    for s in stop_times]
        yield p, configs


def test_eating_matches_the_per_step_reference():
    rng = random.Random(17)
    repeated = many_types = 0
    for p, configs in interval_cases(rng, 300):
        repeated += p.n > len(p.ballot_types())
        many_types += len(p.ballot_types()) >= 10
        for cfg in configs:
            trace = run_eating(p, cfg)
            reference = per_step_eating(p, cfg)
            spread = replace(trace, rows=p.per_voter(trace.rows))
            assert spread == reference, (p.rankings, cfg)
            # the voters of a ballot type eat alike in the reference too
            for t in range(len(p.ballot_types())):
                assert len({reference.rows[i] for i in p.voters_of([t])}) == 1
            trace.validate(p)
    # most profiles repeat some ballots, and many cast ten or more types
    assert repeated > 250 and many_types > 50


def test_every_consumption_cell_is_one_interval():
    # a voter eats each candidate over one stretch between two of the run's
    # times, so every cell is 0 or a difference of two of them
    rng = random.Random(29)
    for p, configs in interval_cases(rng, 120):
        for cfg in configs:
            trace = run_eating(p, cfg)
            times = sorted({Fraction(0), trace.elapsed, *(t for t, _ in trace.events)})
            spans = {b - a for a, b in itertools.combinations(times, 2)} | {0}
            for row in trace.consumption:
                assert set(row) <= spans, (p.rankings, cfg, row)


def test_a_trace_is_over_the_lcm_of_its_times_denominators():
    rng = random.Random(31)
    for p, configs in interval_cases(rng, 120):
        for cfg in configs:
            trace = run_eating(p, cfg)
            times = [trace.elapsed, *(t for t, _ in trace.events)]
            assert trace.den == math.lcm(*(t.denominator for t in times)), (p.rankings, cfg)


def test_a_time_bound_coprime_to_the_running_denominator_cuts_a_step(fix_u, fix_p):
    # both runs eat in halves and quarters, so the loop's denominator is a
    # power of 2 when a bound over 3 or 5 cuts the step that would end at 1
    # or at 3/4
    for p, stop, den in ((fix_u, Fraction(2, 3), 6), (fix_p, Fraction(3, 5), 10)):
        cfg = EatingConfig(stop_time=stop)
        trace = run_eating(p, cfg)
        assert trace.elapsed == stop and trace.den == den
        assert replace(trace, rows=p.per_voter(trace.rows)) == per_step_eating(p, cfg)
        trace.validate(p)


def test_the_loop_builds_no_fraction(monkeypatch):
    # every ranking of 5 candidates, so 120 ballot types; only the events,
    # the elapsed time and the starvation message are Fractions
    rng = random.Random(3)
    p = PreferenceProfile.of([r for r in itertools.permutations(range(5))
                              for _ in range(rng.randint(1, 40))])
    assert len(p.ballot_types()) == 120
    full = run_eating(p, EatingConfig(stop_eliminations=5))
    stop, starved = Fraction(5, p.n), Fraction(6, p.n)
    real = Fraction.__new__
    built = []

    def counting(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)

    for cfg in (EatingConfig(stop_time=stop), EatingConfig(stop_eliminations=2),
                EatingConfig(direction="eat-worst", stop_eliminations=4)):
        built.clear()
        monkeypatch.setattr(Fraction, "__new__", counting)
        trace = run_eating(p, cfg)
        monkeypatch.undo()
        assert len(built) == len(trace.events) + 1
    built.clear()
    monkeypatch.setattr(Fraction, "__new__", counting)
    with pytest.raises(ValueError, match="all candidates consumed"):
        run_eating(p, EatingConfig(stop_time=starved))
    monkeypatch.undo()
    assert len(built) == len(full.events) + 1


def test_veto_by_consumption_winners(fix_t, fix_p, fix_u):
    assert veto_by_consumption_winners(fix_t) == frozenset({1})
    assert veto_by_consumption_winners(fix_p) == frozenset({1})
    assert veto_by_consumption_winners(fix_u) == frozenset({0})
    single = PreferenceProfile.of([(0,), (0,)])
    assert veto_by_consumption_winners(single) == frozenset({0})


def test_veto_by_consumption_tied_finish(fix_s):
    # both fall in the final batch, so both are winners
    assert veto_by_consumption_winners(fix_s) == frozenset({0, 1})


def test_phragmen_committee(fix_p, fix_u):
    assert phragmen_committee(fix_u, 1) == (0,)
    assert phragmen_committee(fix_p, 2) == (0, 2)
    assert phragmen_committee(fix_p, 0) == ()
    full = phragmen_committee(fix_p, 3)
    assert sorted(full) == [0, 1, 2]
    for k in (-1, 4, True, 1.0, 1.5):
        with pytest.raises(ValueError, match=f"committee size {k} out of range"):
            phragmen_committee(fix_p, k)


def test_phragmen_validates_the_tie_break_for_an_empty_committee(fix_p):
    for k in (0, 1):
        with pytest.raises(ValueError, match="permutation"):
            phragmen_committee(fix_p, k, tie_break=(0, 0, 1))
    assert phragmen_committee(fix_p, 0, tie_break=(2, 1, 0)) == ()


def test_phragmen_tie_break_changes_order(fix_s):
    assert phragmen_committee(fix_s, 1) == (0,)
    assert phragmen_committee(fix_s, 1, tie_break=(1, 0)) == (1,)


def test_phragmen_matches_reverse_eat_worst():
    for p in random_profiles(200, seed=99):
        rev = reverse_profile(p)
        worst = run_eating(
            rev, EatingConfig(direction="eat-worst", stop_eliminations=p.m)
        ).eliminated_order()
        for k in range(p.m + 1):
            assert phragmen_committee(p, k) == worst[:k]


def test_probabilistic_serial_shares(fix_u, fix_s):
    assert probabilistic_serial(fix_u).shares == (
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 2)),
    )
    assert probabilistic_serial(fix_s).shares == (
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    )
    zero = probabilistic_serial(fix_s, k=0)
    assert all(x == 0 for row in zero.shares for x in row)
    for k in (-1, 3, True, 1.0, 1.5, Fraction(1)):
        with pytest.raises(ValueError, match=f"cannot assign {k} candidates out of 2"):
            probabilistic_serial(fix_s, k=k)


def test_probabilistic_serial_row_and_column_sums():
    for p in random_profiles(150, seed=1234):
        for k in range(min(p.n, p.m) + 1):
            mu = probabilistic_serial(p, k)
            for row in mu.shares:
                assert sum(row) == Fraction(k, p.n)
            for c in range(p.m):
                assert sum(row[c] for row in mu.shares) <= 1


def test_balance_checks_refuse_malformed_matrices(fix_u, fix_s):
    half = Fraction(1, 2)
    both = run_eating(fix_s, EatingConfig(stop_time=Fraction(1)))  # both fall at 1
    assert both.consumption == ((1, 0), (0, 1))
    unanimous = run_eating(fix_u, EatingConfig(stop_time=Fraction(1)))
    for p, trace, rows, elapsed, message in [
        # fix_u's one type row counts for both voters, so each column takes 2
        (fix_u, unanimous, ((1, 1),), Fraction(2), "eliminated candidate 0 absorbed 2, not 1"),
        # one row for two ballot types, and one row per voter for one type
        (fix_s, both, ((1, 1),), Fraction(2), "1 share rows, expected 2"),
        (fix_u, unanimous, ((half, half),) * 2, None, "2 share rows, expected 1"),
        (fix_s, both, (), None, "0 share rows, expected 2"),
        (fix_s, both, ((1, 0, 0), (0, 1, 0)), None, "row 0 has 3 shares, not 2"),
        (fix_s, both, ((1,), (1,)), None, "row 0 has 1 shares, not 2"),
        (fix_s, both, ((1, 0), (0, 0, 1)), None, "row 1 has 3 shares, not 2"),
        # rows and columns balance, but the shares are negative
        (fix_s, both, ((3 * half, -half), (-half, 3 * half)), None,
         "voter 0 consumption is negative"),
    ]:
        den, rows = int_rows(rows)
        bad = replace(trace, den=den, rows=rows, elapsed=elapsed or trace.elapsed)
        with pytest.raises(ValueError, match=message):
            bad.validate(p)


def test_probabilistic_serial_checks_the_rows_it_returns(monkeypatch):
    # probabilistic_serial validates the trace run_eating hands back, its
    # ballot types' rows weighted by their voters, so each tampering must
    # still be refused: a type row that misses k/n, a column eaten past 1,
    # a column off 1 only once each row counts for its voters, one row per
    # voter instead of one per type, and a trace that never ran
    p = PreferenceProfile.of([(0, 1, 2), (1, 0, 2), (0, 1, 2), (2, 1, 0), (1, 0, 2)])
    real = run_eating

    def tampered(change):
        def fake(q, cfg):
            return change(real(q, cfg))
        return fake

    def rows(make_rows):
        def change(trace):
            den, rows = int_rows(make_rows(list(trace.consumption)))
            return replace(trace, den=den, rows=rows)
        return change

    def bump_type(rows):
        rows[1] = (rows[1][0] + Fraction(1, 7), *rows[1][1:])
        return rows

    def overfill(rows):
        # every row still sums to k/n = 3/5, but all of it is candidate 0
        full = (Fraction(3, 5), Fraction(0), Fraction(0))
        return [full] * len(rows)

    def reweigh(rows):
        # the real rows are (1/2, 0, 1/10) for two voters, (0, 1/2, 1/10) for
        # two and (0, 0, 3/5) for one; moving 1/10 between columns 0 and 2 in
        # opposite directions in the first and last type keeps every row sum
        # and every unweighted column sum, but leaves 9/10 in column 0
        tenth = Fraction(1, 10)
        assert rows == [(5 * tenth, 0, tenth), (0, 5 * tenth, tenth), (0, 0, 6 * tenth)]
        return [(4 * tenth, 0, 2 * tenth), rows[1], (tenth, 0, 5 * tenth)]

    def never_ran(trace):
        # all-zero rows, no event and every candidate surviving balance
        # against an elapsed time of 0, which is not k/n
        den, zeros = int_rows(tuple((Fraction(0),) * p.m for _ in trace.consumption))
        return replace(trace, events=(), den=den, rows=zeros,
                       survivors=frozenset(range(p.m)), elapsed=Fraction(0))

    for change, message in ((rows(bump_type), "voter 1 consumption does not add up"),
                            (rows(overfill), "eliminated candidate 0 absorbed 3, not 1"),
                            (rows(reweigh), "eliminated candidate 0 absorbed 9/10, not 1"),
                            (rows(p.per_voter), "5 share rows, expected 3"),
                            (never_ran, "eating stopped at 0, not at 3/5")):
        monkeypatch.setattr("vetoflow.eating.run_eating", tampered(change))
        with pytest.raises(ValueError, match=message):
            probabilistic_serial(p)
    # the never-run trace passes the trace's own check
    never_ran(real(p, EatingConfig(stop_time=Fraction(3, 5)))).validate(p)
    # the untampered trace, passed through the same way, is accepted and its
    # rows spread to the voters
    monkeypatch.setattr("vetoflow.eating.run_eating", tampered(lambda trace: trace))
    cfg = EatingConfig(direction="eat-best", stop_time=Fraction(3, 5))
    assert probabilistic_serial(p).shares == p.per_voter(real(p, cfg).consumption)


def eating_outputs(p: PreferenceProfile):
    """One line per rule output and per trace of the three eating rules."""
    yield f"veto {sorted(veto_by_consumption_winners(p))}"
    for k in range(p.m + 1):
        yield f"committee {k} {phragmen_committee(p, k)}"
    yield f"serial {probabilistic_serial(p).shares}"
    for cfg in (EatingConfig(direction="eat-worst", stop_eliminations=p.m - 1),
                EatingConfig(direction="eat-best", stop_eliminations=p.m),
                EatingConfig(direction="eat-best", stop_time=Fraction(min(p.n, p.m), p.n))):
        events = run_eating(p, cfg).events
        yield "events " + "\n".join(f"({t}, {' '.join(map(str, batch))})" for t, batch in events)


# SHA-256 of eating_outputs over the family below; a change to the eating
# loop must leave every winner, committee, share and event, and so this, alone
EATING_PIN = "8dc3d983b86168fe124ed5c3adf2ad7f30c1a60a58d718de73d2fe509f446941"


def test_eating_outputs_match_the_pinned_digest():
    digest = hashlib.sha256()
    for p in [*all_profiles(3, 3), *repeated_profiles(120, seed=1618)]:
        digest.update(repr(p.rankings).encode())
        for line in eating_outputs(p):
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == EATING_PIN

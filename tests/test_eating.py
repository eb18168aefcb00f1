import random
from fractions import Fraction

import pytest

from vetoflow.eating import (
    EatingConfig,
    EatingTrace,
    FractionalAssignment,
    phragmen_committee,
    probabilistic_serial,
    run_eating,
    veto_by_consumption_winners,
)
from vetoflow.profiles import PreferenceProfile, reverse_profile
from tests_support_random import random_profile, random_profiles


def per_step_eating(p: PreferenceProfile, cfg: EatingConfig) -> EatingTrace:
    """``run_eating`` with the per-voter loop that adds each step's duration
    to every eater's row; the reference for the accumulation per stretch."""
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
    return EatingTrace(tuple(events), tuple(map(tuple, consumption)), survivors, t)


def test_config_validation():
    with pytest.raises(ValueError, match="stopping"):
        EatingConfig()
    with pytest.raises(ValueError, match="direction"):
        EatingConfig(direction="sideways", stop_time=Fraction(1))
    with pytest.raises(ValueError, match="stopping"):
        EatingConfig(stop_time=Fraction(1), stop_eliminations=1)
    with pytest.raises(ValueError, match="nonnegative"):
        EatingConfig(stop_time=Fraction(-1))


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
    assert trace.consumption == (
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


def test_format_events(fix_u):
    trace = run_eating(fix_u, EatingConfig(stop_time=Fraction(1)))
    assert trace.format_events() == "(1/2, 0)\n(1, 1)"
    assert trace.format_events(fix_u.candidate_names) == "(1/2, a)\n(1, b)"


def test_trace_validate_catches_tampering(fix_u):
    cfg = EatingConfig(stop_time=Fraction(1))
    trace = run_eating(fix_u, cfg)
    bad = EatingTrace(trace.events, trace.consumption, frozenset({1}), trace.elapsed)
    with pytest.raises(ValueError):
        bad.validate(fix_u)
    bad = EatingTrace(
        ((Fraction(1, 2), (0,)), (Fraction(1, 2), (1,))),
        trace.consumption,
        trace.survivors,
        trace.elapsed,
    )
    with pytest.raises(ValueError, match="increasing"):
        bad.validate(fix_u)


def test_runs_are_deterministic_and_conservative():
    for p in random_profiles(100, seed=404):
        cfg = EatingConfig(direction="eat-worst", stop_eliminations=max(0, p.m - 1))
        a = run_eating(p, cfg)
        b = run_eating(p, cfg)
        assert a == b
        a.validate(p)
        # unit eating speed: total consumed equals elapsed times voters
        total = sum(sum(row) for row in a.consumption)
        assert total == a.elapsed * p.n


def test_eating_matches_the_per_step_reference():
    # ballots drawn from a small pool, so most profiles repeat some of them
    rng = random.Random(17)
    for _ in range(150):
        pool = random_profile(rng, nmax=3, mmax=5)
        p = PreferenceProfile.of(
            [rng.choice(pool.rankings) for _ in range(rng.randint(1, 9))], pool.candidate_names
        )
        direction = rng.choice(["eat-best", "eat-worst"])
        tie_break = tuple(rng.sample(range(p.m), p.m))
        configs = [
            EatingConfig(direction, stop_eliminations=rng.randint(0, p.m), tie_break=tie_break),
            # everything is eaten at m/n, so no bound here starves the run
            EatingConfig(direction, stop_time=Fraction(rng.randint(0, p.m * 4), 4 * p.n)),
        ]
        for cfg in configs:
            trace = run_eating(p, cfg)
            assert trace == per_step_eating(p, cfg), (p.rankings, cfg)
            trace.validate(p)


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
    with pytest.raises(ValueError):
        phragmen_committee(fix_p, 4)


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
    with pytest.raises(ValueError):
        probabilistic_serial(fix_s, k=3)


def test_probabilistic_serial_row_and_column_sums():
    for p in random_profiles(150, seed=1234):
        for k in range(min(p.n, p.m) + 1):
            mu = probabilistic_serial(p, k)
            for row in mu.shares:
                assert sum(row) == Fraction(k, p.n)
            for c in range(p.m):
                assert sum(row[c] for row in mu.shares) <= 1


def test_fractional_assignment_helpers(fix_u):
    mu = probabilistic_serial(fix_u)
    assert mu.row_sums() == (Fraction(1), Fraction(1))
    assert mu.column_sums() == (Fraction(1), Fraction(1))
    # shared row objects count once per voter holding them
    half = (Fraction(1, 2), Fraction(1, 2))
    heavy = (Fraction(1), Fraction(1, 2))
    assert FractionalAssignment((half, half, half)).column_sums() == (Fraction(3, 2),) * 2
    with pytest.raises(ValueError, match="column 0 exceeds 1"):
        FractionalAssignment((half, half, half)).validate(row_sum=Fraction(1))
    with pytest.raises(ValueError, match="row 1 sums to 3/2"):
        FractionalAssignment((half, heavy, heavy)).validate(row_sum=Fraction(1))

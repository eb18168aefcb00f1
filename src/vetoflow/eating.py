"""A simultaneous eating engine and the rules that are instances of it.

All voters consume candidates at unit speed.  Under ``eat-best`` each voter
eats their favourite candidate still available, under ``eat-worst`` their
least favourite.  A candidate is eliminated the moment its absorbed total
reaches 1; eliminations are simultaneous, so several candidates can fall in
one batch.  Everything is exact, and the loop runs on ints over one running
denominator, per ballot type: when a batch dies only the types eating it
move on.  A type eats each candidate over one interval between two of the
run's times (0, the elimination events and the end), so every consumption
cell is 0 or a difference of two such times, filled once at the end.

Veto by consumption, Phragmen-style sequential committees, and the
probabilistic serial assignment are all thin drivers over this loop.  A
trace keeps one row of int numerators per ballot type over one denominator,
and its balance check runs in ints, weighing row t by the size of type t.
Probabilistic serial checks that its run stopped at k/n, validates its own
trace and spreads the type rows, as Fractions, to the voters; no other
consumption row is spread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Sequence

from .profiles import PreferenceProfile


@dataclass(frozen=True)
class EatingConfig:
    """Run parameters.  Exactly one stopping condition must be set: an int or
    Fraction ``stop_time``, or an int ``stop_eliminations``.  ``tie_break``
    orders each elimination batch and defaults to ascending index."""

    direction: str = "eat-best"
    stop_time: int | Fraction | None = None
    stop_eliminations: int | None = None
    tie_break: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.direction not in ("eat-best", "eat-worst"):
            raise ValueError(f"unknown direction {self.direction!r}")
        if (self.stop_time is None) == (self.stop_eliminations is None):
            raise ValueError("need exactly one stopping condition")
        if self.stop_time is not None and type(self.stop_time) not in (int, Fraction):
            raise TypeError(f"stop_time must be an int or Fraction: {self.stop_time!r}")
        if self.stop_eliminations is not None and type(self.stop_eliminations) is not int:
            raise TypeError(f"stop_eliminations must be an int: {self.stop_eliminations!r}")
        if self.stop_time is not None and self.stop_time < 0:
            raise ValueError("stop_time must be nonnegative")
        if self.stop_eliminations is not None and self.stop_eliminations < 0:
            raise ValueError("stop_eliminations must be nonnegative")


@dataclass(frozen=True)
class EatingTrace:
    """What a run did: elimination events as (time, batch) with the batch in
    tie-break order, the consumption matrix as int numerators over ``den``
    with one row per ballot type in ``p.ballot_types()`` order, who
    survived, and the total elapsed time.  A run's ``den`` is the lcm of the
    denominators of its times, so equal runs give equal traces."""

    events: tuple[tuple[Fraction, tuple[int, ...]], ...]
    den: int
    rows: tuple[tuple[int, ...], ...]
    survivors: frozenset[int]
    elapsed: Fraction

    @property
    def consumption(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rows as Fractions, one Fraction per distinct numerator;
        ``p.per_voter(consumption)`` gives one row per voter."""
        view = {v: Fraction(v, self.den) for v in set(chain.from_iterable(self.rows))}
        spread = {row: tuple(map(view.__getitem__, row)) for row in set(self.rows)}
        return tuple(map(spread.__getitem__, self.rows))

    def eliminated_order(self) -> tuple[int, ...]:
        return tuple(c for _, batch in self.events for c in batch)

    def validate(self, p: PreferenceProfile) -> None:
        times = [t for t, _ in self.events]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("event times must be strictly increasing")
        if times and not (0 < times[0] and times[-1] <= self.elapsed):
            raise ValueError(f"event times must lie in (0, {self.elapsed}]")
        gone = self.eliminated_order()
        if len(gone) != len(set(gone)):
            raise ValueError("candidate eliminated twice")
        if self.survivors & set(gone):
            raise ValueError("survivor was also eliminated")
        if self.survivors | set(gone) != set(range(p.m)):
            raise ValueError("every candidate must be a survivor or eliminated")
        den, rows, m = self.den, self.rows, p.m
        if type(den) is not int or den < 1:
            raise ValueError(f"trace denominator {den!r} is not a positive int")
        # row t stands for the voters of ballot type t; a miss names its first voter
        weights = [count for _, count in p.ballot_types()]
        if len(rows) != len(weights):
            raise ValueError(f"{len(rows)} share rows, expected {len(weights)}")
        for i, row in enumerate(rows):
            if len(row) != m:
                raise ValueError(f"row {i} has {len(row)} shares, not {m}")
        cells = list(chain.from_iterable(rows))  # row t's cells are cells[t * m:(t + 1) * m]
        if set(map(type, cells)) - {int}:
            raise ValueError("every share must be an int numerator")
        want, off = divmod(self.elapsed.numerator * den, self.elapsed.denominator)
        for t, total in enumerate(map(sum, rows)):
            if off or total != want:
                raise ValueError(f"voter {p.voters_of([t])[0]} consumption"
                                 " does not add up to the elapsed time")
        for c in range(m):
            total = sum(map(mul, cells[c::m], weights))
            if c in self.survivors:
                if total >= den:
                    raise ValueError(f"survivor {c} was fully consumed")
            elif total != den:
                raise ValueError(f"eliminated candidate {c} absorbed {Fraction(total, den)}, not 1")
        if min(cells, default=0) < 0:
            t = [v < 0 for v in cells].index(True) // m
            raise ValueError(f"voter {p.voters_of([t])[0]} consumption is negative")


def _batch_key(cfg: EatingConfig, m: int):
    if cfg.tie_break is None:
        return lambda c: c
    tie_break = PreferenceProfile.check_permutation(
        cfg.tie_break, m, "tie_break must be a permutation of all candidates")
    rank = {c: r for r, c in enumerate(tie_break)}
    return lambda c: rank[c]


def run_eating(p: PreferenceProfile, cfg: EatingConfig) -> EatingTrace:
    """Run the loop until a stopping condition fires.  The trace holds one
    consumption row per ballot type.

    With a time bound T the run must be able to keep eating until T; if all
    candidates are gone strictly before T the instance starves and this
    raises.  Eliminations happening exactly at T are still recorded.  With an
    elimination bound k the run stops as soon as at least k candidates are
    gone; a simultaneous batch is never split, so more than k can fall.

    The time t and each absorbed total are int numerators over a running
    denominator ``den``, which grows by what each step's length needs.
    """
    m = p.m
    if cfg.stop_eliminations is not None and cfg.stop_eliminations > m:
        raise ValueError("cannot eliminate more candidates than exist")
    key = _batch_key(cfg, m)
    stop = cfg.stop_time
    # the loop runs per ballot type: order[b] walks type b's ranking, eaters[c]
    # lists the types eating c and count[c] their voters.  times[] holds each
    # step's time as (numerator, den); a type eats c over one interval, from
    # times[start[b]], and closed[] gets each as (type, c, start, end)
    types = p.ballot_types()
    best = cfg.direction == "eat-best"
    order = [iter(bt.ranking if best else reversed(bt.ranking)) for bt in types]
    weight = [count for _, count in types]
    start, movers = [0] * len(types), range(len(types))
    alive, absorbed = [True] * m, [0] * m
    eaters, count, closed, events = {}, {}, [], []
    den, t, times, eliminated = 1, 0, [(0, 1)], 0

    while True:
        if stop is not None and t * stop.denominator == stop.numerator * den:
            break
        if cfg.stop_eliminations is not None and eliminated >= cfg.stop_eliminations:
            break
        if eliminated == m:
            # only a time bound can still be pending once everything is gone
            raise ValueError(f"all candidates consumed at time {Fraction(t, den)},"
                             f" before the bound {stop}")
        for b in movers:
            for c in order[b]:
                if alive[c]:
                    break
            eaters.setdefault(c, []).append(b)
            count[c] = count.get(c, 0) + weight[b]

        # the step is r / (k * den) long for the least r / k; over den * scale
        # it is dt = r // gcd(r, k), as scale = k // gcd(r, k)
        r, k = 1, 0
        for c, kc in count.items():
            rc = den - absorbed[c]
            if rc * k < r * kc:
                r, k = rc, kc
        g = math.gcd(r, k)
        scale, dt = k // g, r // g
        if stop is not None and (t * scale + dt) * stop.denominator > stop.numerator * den * scale:
            # the bound cuts the step: put it over lcm(den, the bound's denominator)
            scale = math.lcm(den, stop.denominator) // den
            dt = stop.numerator * (den * scale // stop.denominator) - t * scale
        # only eaten candidates rescale: the others have absorbed 0 or are dead
        den, t = den * scale, t * scale
        for c in count:
            absorbed[c] *= scale
        t += dt
        times.append((t, den))
        batch, movers = [], []
        for c, kc in count.items():
            absorbed[c] += dt * kc
            if absorbed[c] == den:
                batch.append(c)
        if batch:
            batch.sort(key=key)
            events.append((Fraction(t, den), tuple(batch)))
            eliminated += len(batch)
            now = len(times) - 1
            for c in batch:
                alive[c] = False
                del count[c]
                for b in eaters.pop(c):
                    closed.append((b, c, start[b], now))
                    start[b] = now
                    movers.append(b)
        elif stop is None or t * stop.denominator != stop.numerator * den:
            raise RuntimeError("an eating step ended before the bound without an elimination")

    closed += [(b, c, start[b], len(times) - 1) for c, bs in eaters.items() for b in bs]
    # each cell is the difference of two times, put over the lcm of their
    # reduced denominators
    lcm = math.lcm(*(d // math.gcd(a, d) for a, d in times))
    at = [a * lcm // d for a, d in times]
    rows = [[0] * m for _ in types]
    for b, c, s, e in closed:
        rows[b][c] = at[e] - at[s]
    return EatingTrace(tuple(events), lcm, tuple(map(tuple, rows)),
                       frozenset(c for c in range(m) if alive[c]), Fraction(t, den))

def veto_by_consumption_winners(p: PreferenceProfile) -> frozenset[int]:
    """Winners when voters eat their least favourite available candidate.

    Candidates are consumed until one is left; that survivor wins.  If the
    final elimination takes out every remaining candidate at once, those
    simultaneously consumed candidates tie for the win.
    """
    cfg = EatingConfig(direction="eat-worst", stop_eliminations=p.m - 1)
    trace = run_eating(p, cfg)
    if trace.survivors:
        return trace.survivors
    return frozenset(trace.events[-1][1])


def phragmen_committee(
    p: PreferenceProfile, k: int, tie_break: Sequence[int] | None = None
) -> tuple[int, ...]:
    """The first k candidates fully consumed when everyone eats their favourite.

    This is the sequential committee order; ties inside a batch follow
    ``tie_break``.
    """
    if type(k) is not int or not 0 <= k <= p.m:
        raise ValueError(f"committee size {k} out of range")
    cfg = EatingConfig(
        direction="eat-best",
        stop_eliminations=k,
        tie_break=None if tie_break is None else tuple(tie_break),
    )
    trace = run_eating(p, cfg)
    return trace.eliminated_order()[:k]


@dataclass(frozen=True)
class FractionalAssignment:
    """Row i gives voter i's probability share of each candidate."""

    shares: tuple[tuple[Fraction, ...], ...]


def probabilistic_serial(p: PreferenceProfile, k: int | None = None) -> FractionalAssignment:
    """Simultaneous eating shares after time k/n, eating favourites first.

    With the default k = min(n, m) every voter ends up with total share
    k/n and no candidate is over-assigned.
    """
    if k is None:
        k = min(p.n, p.m)
    if type(k) is not int or not 0 <= k <= p.m:
        raise ValueError(f"cannot assign {k} candidates out of {p.m}")
    elapsed = Fraction(k, p.n)
    trace = run_eating(p, EatingConfig(direction="eat-best", stop_time=elapsed))
    # the trace checks its own type rows against its own elapsed time, each
    # row weighted by its voters, so that time must be k/n
    if trace.elapsed != elapsed:
        raise ValueError(f"eating stopped at {trace.elapsed}, not at {elapsed}")
    trace.validate(p)
    return FractionalAssignment(p.per_voter(trace.consumption))

"""A simultaneous eating engine and the rules that are instances of it.

All voters consume candidates at unit speed.  Under ``eat-best`` each voter
eats their favourite candidate still available, under ``eat-worst`` their
least favourite.  A candidate is eliminated the moment its absorbed total
reaches 1; eliminations are simultaneous, so several candidates
can fall in one batch.  Everything runs on exact rationals.

A voter eats each candidate over one interval between two of the run's
times (0, the elimination events and the end), so every consumption cell
is 0 or a difference of two such times.  The loop runs per ballot type and
assigns each cell once, when its interval closes, sharing the difference
among all types whose intervals have the same ends.

Veto by consumption, Phragmen-style sequential committees, and the
probabilistic serial assignment are all thin drivers over this loop.

A trace keeps one consumption row per ballot type, and its balance check
weighs row t by the size of type t.  Probabilistic serial checks that its
run stopped at k/n, validates its own trace and then spreads the type rows
to the voters; no other consumption row is spread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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
    tie-break order, the consumption matrix with one row per ballot type in
    ``p.ballot_types()`` order (``p.per_voter(consumption)`` gives one row
    per voter), who survived, and the total elapsed time."""

    events: tuple[tuple[Fraction, tuple[int, ...]], ...]
    consumption: tuple[tuple[Fraction, ...], ...]
    survivors: frozenset[int]
    elapsed: Fraction

    def eliminated_order(self) -> tuple[int, ...]:
        return tuple(c for _, batch in self.events for c in batch)

    def validate(self, p: PreferenceProfile) -> None:
        times = [t for t, _ in self.events]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("event times must be strictly increasing")
        gone = self.eliminated_order()
        if len(gone) != len(set(gone)):
            raise ValueError("candidate eliminated twice")
        if self.survivors & set(gone):
            raise ValueError("survivor was also eliminated")
        if self.survivors | set(gone) != set(range(p.m)):
            raise ValueError("every candidate must be a survivor or eliminated")
        # row t stands for the voters of ballot type t; a miss names its first voter
        den, totals, columns, negative = _balance(
            self.consumption, [count for _, count in p.ballot_types()], p.m)
        e = self.elapsed
        for t, total in enumerate(totals):
            if total * e.denominator != e.numerator * den:
                raise ValueError(f"voter {p.voters_of([t])[0]} consumption"
                                 " does not add up to the elapsed time")
        for c in range(p.m):
            total = columns[c]
            if c in self.survivors:
                if total >= 1:
                    raise ValueError(f"survivor {c} was fully consumed")
            elif total != 1:
                raise ValueError(f"eliminated candidate {c} absorbed {total}, not 1")
        if negative is not None:
            raise ValueError(f"voter {p.voters_of([negative])[0]} consumption is negative")


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
    """
    m = p.m
    if cfg.stop_eliminations is not None and cfg.stop_eliminations > m:
        raise ValueError("cannot eliminate more candidates than exist")
    key = _batch_key(cfg, m)
    best_first = cfg.direction == "eat-best"
    # identical voters always eat the same candidate, so the loop runs per
    # ballot type: one cursor and one consumption row, weighted by its voters.
    # A type eats each candidate over one interval, from the time its previous
    # candidate died (or 0) to the time this one dies (or the run stops).
    # times[] holds 0 and the time after each step, start[b] indexes the
    # start of type b's interval, and each cell is assigned once, when the
    # interval closes; the types closing one at the same time share each
    # difference times[now] - times[start]
    types = p.ballot_types()
    order = [bt.ranking if best_first else bt.ranking[::-1] for bt in types]
    weight = [count for _, count in types]
    cursor = [0] * len(types)
    start = [0] * len(types)
    alive = [True] * m
    zero = Fraction(0)
    absorbed = [zero] * m
    consumption = [[zero] * m for _ in types]
    events: list[tuple[Fraction, tuple[int, ...]]] = []
    eliminated = 0
    t = zero
    times = [t]

    while True:
        if cfg.stop_time is not None and t == cfg.stop_time:
            break
        if cfg.stop_eliminations is not None and eliminated >= cfg.stop_eliminations:
            break
        if eliminated == m:
            # only a time bound can still be pending once everything is gone
            raise ValueError(
                f"all candidates consumed at time {t}, before the bound {cfg.stop_time}"
            )

        count: dict[int, int] = {}
        spans: dict[int, Fraction] = {}
        now = len(times) - 1
        for b, row in enumerate(order):
            j = cursor[b]
            if not alive[row[j]]:
                s = start[b]
                if s not in spans:
                    spans[s] = t - times[s]
                consumption[b][row[j]] = spans[s]
                start[b] = now
                while not alive[row[j]]:
                    j += 1
                cursor[b] = j
            count[row[j]] = count.get(row[j], 0) + weight[b]

        dt = min((1 - absorbed[c]) / k for c, k in count.items())
        if cfg.stop_time is not None and t + dt > cfg.stop_time:
            dt = cfg.stop_time - t
        t += dt
        times.append(t)
        batch = []
        for c, n_eating in count.items():
            absorbed[c] += dt * n_eating
            if absorbed[c] == 1:
                batch.append(c)
        if batch:
            batch.sort(key=key)
            events.append((t, tuple(batch)))
            for c in batch:
                alive[c] = False
            eliminated += len(batch)

    spans = {s: t - times[s] for s in set(start)}
    for b, row in enumerate(order):
        consumption[b][row[cursor[b]]] = spans[start[b]]
    return EatingTrace(
        events=tuple(events),
        consumption=tuple(map(tuple, consumption)),
        survivors=frozenset(c for c in range(m) if alive[c]),
        elapsed=t,
    )


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


def _balance(
    rows: Sequence[tuple], weights: Sequence[int], m: int
) -> tuple[int, list[int], list[Fraction], int | None]:
    """Sum a share matrix whose row i stands for ``weights[i]`` voters, on
    integer numerators over one common denominator.  Returns that
    denominator, each row's total as a numerator over it, the column sums
    with row i counted ``weights[i]`` times, and the index of the first row
    holding a negative share, or None.  A matrix with other than one row
    per weight, or a row not m wide, is refused.  The caller reports a
    negative share only after the row and column sums, so a matrix that
    also misses a sum is refused for the sum."""
    if len(rows) != len(weights):
        raise ValueError(f"{len(rows)} share rows, expected {len(weights)}")
    dens = {v.denominator for row in rows for v in row}
    den = math.lcm(*dens)
    scale = {d: den // d for d in dens}
    nums = [[v.numerator * scale[v.denominator] for v in row] for row in rows]
    negative = None
    for i, row in enumerate(nums):
        if len(row) != m:
            raise ValueError(f"row {i} has {len(row)} shares, not {m}")
        if negative is None and min(row, default=0) < 0:
            negative = i
    columns = [Fraction(sum(row[c] * w for row, w in zip(nums, weights)), den)
               for c in range(m)]
    return den, list(map(sum, nums)), columns, negative


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

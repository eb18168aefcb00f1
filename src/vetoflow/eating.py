"""A simultaneous eating engine and the rules that are instances of it.

All voters consume candidates at unit speed.  Under ``eat-best`` each voter
eats their favourite candidate still available, under ``eat-worst`` their
least favourite.  A candidate is eliminated the moment its absorbed total
reaches 1; eliminations are simultaneous, so several candidates
can fall in one batch.  Everything runs on exact rationals.

Veto by consumption, Phragmen-style sequential committees, and the
probabilistic serial assignment are all thin drivers over this loop.
"""

from __future__ import annotations

import math
from collections import Counter
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
    tie-break order, the full consumption matrix, who survived, and the
    total elapsed time."""

    events: tuple[tuple[Fraction, tuple[int, ...]], ...]
    consumption: tuple[tuple[Fraction, ...], ...]
    survivors: frozenset[int]
    elapsed: Fraction

    def eliminated_order(self) -> tuple[int, ...]:
        return tuple(c for _, batch in self.events for c in batch)

    def format_events(self, names: Sequence[str] | None = None) -> str:
        """One line per elimination event, ``(t, name ...)``, for golden files."""
        out = []
        for t, batch in self.events:
            label = " ".join(str(c) if names is None else names[c] for c in batch)
            out.append(f"({t}, {label})")
        return "\n".join(out)

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
        for i, row in enumerate(self.consumption):
            if sum(row) != self.elapsed:
                raise ValueError(f"voter {i} consumption does not add up to the elapsed time")
        for c in range(p.m):
            total = sum(row[c] for row in self.consumption)
            if c in self.survivors:
                if total >= 1:
                    raise ValueError(f"survivor {c} was fully consumed")
            elif total != 1:
                raise ValueError(f"eliminated candidate {c} absorbed {total}, not 1")


def _batch_key(cfg: EatingConfig, m: int):
    if cfg.tie_break is None:
        return lambda c: c
    if sorted(cfg.tie_break) != list(range(m)):
        raise ValueError("tie_break must be a permutation of all candidates")
    rank = {c: r for r, c in enumerate(cfg.tie_break)}
    return lambda c: rank[c]


def run_eating(p: PreferenceProfile, cfg: EatingConfig) -> EatingTrace:
    """Run the loop until a stopping condition fires.

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
    # ballot type: one cursor and one consumption row, weighted by its voters;
    # a row gains t - start[b] when its cursor moves on, and once at the end
    types = p.ballot_types()
    order = [bt.ranking if best_first else bt.ranking[::-1] for bt in types]
    weight = [len(bt.voters) for bt in types]
    cursor = [0] * len(types)
    start = [Fraction(0)] * len(types)
    alive = [True] * m
    absorbed = [Fraction(0)] * m
    consumption = [[Fraction(0)] * m for _ in types]
    events: list[tuple[Fraction, tuple[int, ...]]] = []
    eliminated = 0
    t = Fraction(0)

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
        for b, row in enumerate(order):
            j = cursor[b]
            if not alive[row[j]]:
                consumption[b][row[j]] += t - start[b]
                start[b] = t
                while not alive[row[j]]:
                    j += 1
                cursor[b] = j
            count[row[j]] = count.get(row[j], 0) + weight[b]

        dt = min((1 - absorbed[c]) / k for c, k in count.items())
        if cfg.stop_time is not None and t + dt > cfg.stop_time:
            dt = cfg.stop_time - t
        t += dt
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

    for b, row in enumerate(order):
        consumption[b][row[cursor[b]]] += t - start[b]
    return EatingTrace(
        events=tuple(events),
        consumption=p.per_voter([tuple(row) for row in consumption]),
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
    if not 0 <= k <= p.m:
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

    def row_sums(self) -> tuple[Fraction, ...]:
        den, rows = self._numerators()
        total = {id(row): Fraction(sum(nums), den) for row, _, nums in rows}
        return tuple(map(total.__getitem__, map(id, self.shares)))

    def column_sums(self) -> tuple[Fraction, ...]:
        den, rows = self._numerators()
        totals = _column_numerators(rows, len(self.shares[0]))
        return tuple(Fraction(total, den) for total in totals)

    def validate(self, row_sum: Fraction) -> None:
        """Every row sums to ``row_sum`` and no column exceeds 1; the checks
        compare integer numerators over one common denominator."""
        den, rows = self._numerators()
        for row, _, nums in rows:
            total = sum(nums)
            if total * row_sum.denominator != row_sum.numerator * den:
                i = self.shares.index(row)
                raise ValueError(f"row {i} sums to {Fraction(total, den)}, expected {row_sum}")
        for c, total in enumerate(_column_numerators(rows, len(self.shares[0]))):
            if total > den:
                raise ValueError(f"column {c} exceeds 1")

    def _numerators(self) -> tuple[int, list[tuple[tuple, int, list[int]]]]:
        """A common denominator of all shares, and each distinct row with its
        multiplicity and its shares as numerators over that denominator."""
        rows = _distinct_rows(self.shares)
        den = math.lcm(*[v.denominator for row, _ in rows for v in row])
        return den, [(row, mult, [v.numerator * (den // v.denominator) for v in row])
                     for row, mult in rows]


def _column_numerators(rows: list[tuple[tuple, int, list[int]]], m: int) -> list[int]:
    return [sum(nums[c] * mult for _, mult, nums in rows) for c in range(m)]


def _distinct_rows(rows: Sequence[tuple]) -> list[tuple[tuple, int]]:
    """Each distinct row object with its multiplicity, in order of first
    appearance.  Voters of one ballot type share one row object."""
    counts = Counter(map(id, rows))
    objects = dict(zip(map(id, rows), rows))
    return [(objects[key], mult) for key, mult in counts.items()]


def probabilistic_serial(p: PreferenceProfile, k: int | None = None) -> FractionalAssignment:
    """Simultaneous eating shares after time k/n, eating favourites first.

    With the default k = min(n, m) every voter ends up with total share
    k/n and no candidate is over-assigned.
    """
    if k is None:
        k = min(p.n, p.m)
    if not 0 <= k <= p.m:
        raise ValueError(f"cannot assign {k} candidates out of {p.m}")
    cfg = EatingConfig(direction="eat-best", stop_time=Fraction(k, p.n))
    trace = run_eating(p, cfg)
    assignment = FractionalAssignment(trace.consumption)
    assignment.validate(row_sum=Fraction(k, p.n))
    return assignment

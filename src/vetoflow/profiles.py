"""Preference profiles and the basic operations every other module builds on.

A profile is a sequence of strict rankings over a common candidate set,
stored as ballot runs: ``(ranking, count)`` pairs in voter order, as count
lines hand them over.  Candidates are integer indices everywhere; display
names live alongside in ``candidate_names`` and only matter for parsing and
printing.

Identical voters are interchangeable, so the checkers work per ballot type,
a ranking and its count.  The runs are the profile's one voter index: one
pass groups them into types and allocates nothing per voter, ``voters_of``
lists the voters of some types, and ``per_voter`` spreads per-type values,
as ``rankings`` and ``positions()`` do on first use.

A voter group ties a candidate set to ballot types.  The profile keeps
two groupings, built on first use: ``groups_below(c)`` merges types that
rank the same candidates below c, for the flow networks, and
``solid_coalitions`` merges types with equal prefixes by int mask.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence, TypeVar

T = TypeVar("T")

# rankings are stored cell by cell; generators, clone expansion and the CLI
# cap their total before allocating
MAX_CELLS = 10**7
# per-voter views and outputs spell out at most this many voters
MAX_VOTERS = 1_000_000


class ProfileSizeError(ValueError):
    """The input asks for more voters, candidates or ranking cells than
    the caps allow."""


class BallotType(NamedTuple):
    """One distinct ranking and the number of voters who cast it."""

    ranking: tuple[int, ...]
    count: int


@dataclass(frozen=True)
class PreferenceProfile:
    """An ordinal election as ballot runs in voter order: ``(ranking, count)``
    says the next ``count`` voters cast ``ranking``, a strict order best first.

    Every ranking must be a permutation of ``range(m)`` where
    ``m == len(candidate_names)``, and every count a positive int; the counts
    add up to at most ``MAX_VOTERS``.  Adjacent equal runs merge, so equal
    elections compare and hash equal.
    """

    runs: tuple[tuple[tuple[int, ...], int], ...]
    candidate_names: tuple[str, ...]

    def __post_init__(self) -> None:
        # an empty profile infers no candidates, so voters are checked first
        if len(self.runs) == 0:
            raise ValueError("profile needs at least one voter")
        m = len(self.candidate_names)
        if m == 0:
            raise ValueError("profile needs at least one candidate")
        for name in self.candidate_names:
            # names must survive a round trip through the text format: a
            # leading "#" would read as a comment, a ":" as a count line
            if (not name or any(ch.isspace() for ch in name) or name.startswith("#")
                    or any(ch in name for ch in ">,:")):
                raise ValueError(f"bad candidate name: {name!r}")
        if len(set(self.candidate_names)) != m:
            raise ValueError("duplicate candidate names")
        # one pass, capping each count; starts[k] is the first voter of
        # merged run k, and starts[-1] is n
        index: dict[tuple[int, ...], int] = {}
        counts: list[int] = []
        run_types: list[int] = []
        starts = [0]
        full = frozenset(range(m))
        for ranking, count in self.runs:
            if type(count) is not int or count < 1:
                raise ValueError(f"run counts must be positive ints, got {count!r}")
            n = starts[-1]
            if n + count > MAX_VOTERS:
                raise ProfileSizeError(f"more than {MAX_VOTERS} voters")
            t = index.setdefault(ranking, len(index))
            if t == len(counts):
                if len(ranking) != m or frozenset(ranking) != full:
                    raise ValueError(f"ranking of voter {n} is not a permutation of 0..{m - 1}")
                counts.append(0)
            counts[t] += count
            if run_types[-1:] != [t]:  # else the run extends the previous one
                run_types.append(t)
                starts.append(n)
            starts[-1] += count
        types = tuple(map(BallotType, index, counts))
        object.__setattr__(self, "runs", tuple(
            (types[t].ranking, b - a) for t, a, b in zip(run_types, starts, starts[1:])))
        object.__setattr__(self, "_ballot_types", types)
        object.__setattr__(self, "_run_types", run_types)
        object.__setattr__(self, "_starts", starts)

    @classmethod
    def of(cls, rankings: Iterable[Iterable[int]],
           candidate_names: Sequence[str] | None = None) -> "PreferenceProfile":
        """Build a profile from per-voter index rankings, one run per stretch
        of equal adjacent rankings, defaulting names to c1, c2, ..."""
        runs = tuple((r, len(list(g))) for r, g in itertools.groupby(map(tuple, rankings)))
        if candidate_names is None:
            candidate_names = [f"c{j + 1}" for j in range(len(runs[0][0]) if runs else 0)]
        return cls(runs, tuple(candidate_names))

    @property
    def n(self) -> int:
        return self._starts[-1]

    @property
    def m(self) -> int:
        return len(self.candidate_names)

    @cached_property
    def rankings(self) -> tuple[tuple[int, ...], ...]:
        """Each voter's ranking in voter order, one shared tuple per type."""
        return self.per_voter([r for r, _ in self._ballot_types])

    def ballot_types(self) -> tuple[BallotType, ...]:
        """The distinct rankings in first-appearance order, each with the
        number of voters who cast it.  Identical voters are interchangeable
        for every checker and eating rule, so those work per type."""
        return self._ballot_types

    def ballot_types_of(self, voters: Iterable[int]) -> tuple[BallotType, ...]:
        """The ballot types cast by at least one voter in ``voters``, in
        first-appearance order.  A member that is not an int in 0..n-1 is
        an error."""
        vs = list(voters)
        vs = sorted(vs) if set(map(type, vs)) <= {int} else [-1]  # a non-int is no voter
        if vs and (vs[0] < 0 or vs[-1] >= self.n):
            raise ValueError(f"voter index outside 0..{self.n - 1}")
        # find the run of the lowest voter left, then skip that run's voters
        hit, i = set(), 0
        while i < len(vs):
            k = bisect_right(self._starts, vs[i]) - 1
            hit.add(self._run_types[k])
            i = bisect_left(vs, self._starts[k + 1], i)
        return tuple(map(self._ballot_types.__getitem__, sorted(hit)))

    def voters_of(self, types: Iterable[int]) -> list[int]:
        """The voters of ballot types ``types`` (``ballot_types()`` indices),
        ascending.  A member that is not an int in 0..T-1, for the T ballot
        types, is an error."""
        ts = list(types)
        if any(type(t) is not int or not 0 <= t < len(self._ballot_types) for t in ts):
            raise ValueError(f"ballot type index outside 0..{len(self._ballot_types) - 1}")
        want = set(ts)
        runs = zip(self._run_types, self._starts, self._starts[1:])
        return list(itertools.chain.from_iterable(range(a, b) for t, a, b in runs if t in want))

    def per_voter(self, values: Sequence[T]) -> tuple[T, ...]:
        """Spread ``values[t]``, one per ballot type, to every voter of type t,
        run by run; the voters of a type share the object."""
        if len(values) != len(self._ballot_types):
            raise ValueError(f"need one value per ballot type, got {len(values)}")
        out: list[T] = []
        for t, (_, count) in zip(self._run_types, self.runs):
            out += [values[t]] * count
        return tuple(out)

    def positions(self) -> tuple[tuple[int, ...], ...]:
        """``positions()[i][c]`` is the rank of candidate c for voter i, 0 = best.
        Voters with the same ranking share one row."""
        if "_positions" not in self.__dict__:
            # a ranking's positions are its inverse permutation
            rows = [tuple(sorted(range(self.m), key=r.__getitem__)) for r, _ in self._ballot_types]
            object.__setattr__(self, "_positions", self.per_voter(rows))
        return self.__dict__["_positions"]

    def check_candidate(self, c: int) -> None:
        """Refuse a c that is not an int in 0..m-1; 1.0 and True are no
        candidates, and -1 would index the last one."""
        if type(c) is not int or not 0 <= c < self.m:
            raise ValueError(f"candidate {c} is not in 0..{self.m - 1}")

    def groups_below(self, c: int) -> tuple[VoterGroup, ...]:
        """The ballot types grouped by the candidates they rank weakly below
        c, in order of first type; built for c alone on first use and kept,
        as a cloned profile may have as many candidates as voters.  A c
        that ``check_candidate`` refuses is an error."""
        self.check_candidate(c)
        kept = self.__dict__.setdefault("_groups_below", {})
        if c not in kept:
            merged: dict[frozenset[int], list] = {}  # set -> [types, size]
            for t, (r, count) in enumerate(self._ballot_types):
                key = frozenset(r[r.index(c):])
                g = merged.get(key)
                if g is None:
                    merged[key] = g = [[], 0]
                g[0].append(t)
                g[1] += count
            kept[c] = tuple(VoterGroup(cs, tuple(ts), size) for cs, (ts, size) in merged.items())
        return kept[c]

    def name_index(self, name: str) -> int:
        try:
            return self.candidate_names.index(name)
        except ValueError:
            raise KeyError(f"unknown candidate name: {name!r}") from None


def reverse_profile(p: PreferenceProfile) -> PreferenceProfile:
    """Flip every ranking, so each voter's worst candidate becomes their best."""
    return PreferenceProfile(tuple((r[::-1], count) for r, count in p.runs), p.candidate_names)


def plurality_scores(p: PreferenceProfile) -> tuple[int, ...]:
    """Number of first-place appearances of each candidate."""
    scores = [0] * p.m
    for ranking, count in p.runs:
        scores[ranking[0]] += count
    return tuple(scores)


@dataclass(frozen=True)
class CloneExpansion:
    """A profile rewritten over clones of the original candidates.

    ``clones[c]`` lists the expanded indices of candidate c's copies in
    ranking order; it is empty for a candidate with frequency zero, which
    is deleted.  ``origin[e]`` maps expanded candidate e back to the
    original index.
    """

    expanded: PreferenceProfile
    origin: tuple[int, ...]
    clones: tuple[tuple[int, ...], ...]


def clone_expand(p: PreferenceProfile, frequency: Sequence[int]) -> CloneExpansion:
    """Replace each candidate c by ``frequency[c]`` adjacent clones.

    Each voter ranks the clone block of c exactly where c was, clones in
    index order within the block.  Candidates with zero frequency disappear
    from every ranking.  At least one frequency must be positive, and the
    expanded rankings may hold at most ``MAX_CELLS`` cells.
    """
    if len(frequency) != p.m:
        raise ValueError("frequency vector length must match the candidate count")
    if any(f < 0 for f in frequency):
        raise ValueError("frequencies must be nonnegative")
    if sum(frequency) == 0:
        raise ValueError("at least one candidate must keep a positive frequency")
    if p.n * sum(frequency) > MAX_CELLS:
        raise ProfileSizeError(
            f"cloning {p.n} voters onto {sum(frequency)} clones asks for more than"
            f" {MAX_CELLS} ranking cells")

    clones: list[tuple[int, ...]] = []
    origin: list[int] = []
    names: list[str] = []
    next_id = 0
    for c, f in enumerate(frequency):
        block = tuple(range(next_id, next_id + f))
        clones.append(block)
        next_id += f
        for k in range(f):
            origin.append(c)
            names.append(f"{p.candidate_names[c]}#{k + 1}")

    expanded = PreferenceProfile(
        tuple((tuple(e for c in r for e in clones[c]), count) for r, count in p.runs), tuple(names))
    return CloneExpansion(expanded, tuple(origin), tuple(clones))


def dominated_set(p: PreferenceProfile, c: int, voters: Iterable[int]) -> frozenset[int]:
    """Candidates that some voter in ``voters`` ranks weakly below c (c included)."""
    p.check_candidate(c)
    return frozenset().union(*(r[r.index(c):] for r, _ in p.ballot_types_of(voters)))


class VoterGroup(NamedTuple):
    """The ``size`` voters of ballot types ``types``, tied to one candidate
    set: a flow network's edge set, or a solid coalition's common prefix."""

    candidates: frozenset[int]
    types: tuple[int, ...]
    size: int


def solid_coalitions(p: PreferenceProfile) -> tuple[VoterGroup, ...]:
    """Every candidate prefix with its maximal supporter group, ballot type
    by ballot type and prefix length ascending, equal prefixes merged;
    built on the first call and then kept by the profile.

    One pass over the ballot types keys each prefix by its int mask and
    builds its frozenset once, where it first appears."""
    if "_solid_coalitions" in p.__dict__:
        return p.__dict__["_solid_coalitions"]
    groups: dict[int, list] = {}  # mask -> [prefix, types, size]
    for t, (r, count) in enumerate(p.ballot_types()):
        mask = 0
        for k, c in enumerate(r, 1):
            mask |= 1 << c
            g = groups.get(mask)
            if g is None:
                groups[mask] = g = [frozenset(r[:k]), [], 0]
            g[1].append(t)
            g[2] += count
    kept = tuple(VoterGroup(cs, tuple(ts), size) for cs, ts, size in groups.values())
    return p.__dict__.setdefault("_solid_coalitions", kept)


def all_profiles(n: int, m: int, candidate_names: Sequence[str] | None = None) -> Iterable[PreferenceProfile]:
    """Every profile with n voters over m candidates, in lexicographic order.

    There are (m!)^n of them, so keep n and m tiny.
    """
    perms = list(itertools.permutations(range(m)))
    for combo in itertools.product(perms, repeat=n):
        yield PreferenceProfile.of(combo, candidate_names)

"""Preference profiles and the basic operations every other module builds on.

A profile is a list of strict rankings over a common candidate set.  Candidates
are handled as integer indices everywhere; display names live alongside in
``candidate_names`` and only matter for parsing and printing.

Identical voters are interchangeable, so the checkers work per ballot type.
A voter group ties a candidate set to the voters it belongs to, one run per
ballot type; ``voter_groups`` is the one rule for merging ballot types with
equal sets, for flow networks and solid coalitions alike.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import merge
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence, TypeVar

T = TypeVar("T")

# rankings are stored cell by cell; generators, clone expansion and the CLI
# cap their total before allocating
MAX_CELLS = 10**7


class ProfileSizeError(ValueError):
    """The input asks for more voters, candidates or ranking cells than
    the caps allow."""


class BallotType(NamedTuple):
    """One distinct ranking and the indices of the voters who cast it."""

    ranking: tuple[int, ...]
    voters: tuple[int, ...]


@dataclass(frozen=True)
class PreferenceProfile:
    """An ordinal election: ``rankings[i]`` is voter i's strict order, best first.

    Every ranking must be a permutation of ``range(m)`` where
    ``m == len(candidate_names)``.
    """

    rankings: tuple[tuple[int, ...], ...]
    candidate_names: tuple[str, ...]

    def __post_init__(self) -> None:
        # an empty profile infers no candidates, so voters are checked first
        if len(self.rankings) == 0:
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
        # group the voters by ranking, then check each distinct ranking once,
        # in order of its first voter
        voters: dict[tuple[int, ...], list[int]] = {}
        for i, ranking in enumerate(self.rankings):
            voters.setdefault(ranking, []).append(i)
        full = frozenset(range(m))
        for ranking, vs in voters.items():
            if len(ranking) != m or frozenset(ranking) != full:
                raise ValueError(f"ranking of voter {vs[0]} is not a permutation of 0..{m - 1}")
        types = tuple(BallotType(r, tuple(vs)) for r, vs in voters.items())
        object.__setattr__(self, "_ballot_types", types)
        # _spread picks, for each voter in turn, the entry of its ballot type
        index = {r: t for t, r in enumerate(voters)}
        object.__setattr__(self, "_spread", itemgetter(*map(index.__getitem__, self.rankings)))

    @classmethod
    def of(
        cls,
        rankings: Iterable[Iterable[int]],
        candidate_names: Sequence[str] | None = None,
    ) -> "PreferenceProfile":
        """Build a profile from index rankings, defaulting names to c1, c2, ..."""
        rk = tuple(tuple(r) for r in rankings)
        if candidate_names is None:
            m = len(rk[0]) if rk else 0
            candidate_names = tuple(f"c{j + 1}" for j in range(m))
        return cls(rk, tuple(candidate_names))

    @property
    def n(self) -> int:
        return len(self.rankings)

    @property
    def m(self) -> int:
        return len(self.candidate_names)

    def ballot_types(self) -> tuple[BallotType, ...]:
        """The distinct rankings in first-appearance order, each with the
        voters who cast it.  Identical voters are interchangeable for every
        checker and eating rule, so those work per type."""
        return self._ballot_types

    def ballot_types_of(self, voters: Iterable[int]) -> tuple[BallotType, ...]:
        """The ballot types cast by at least one voter in ``voters``, in
        first-appearance order.  A voter outside 0..n-1 is an error."""
        vs = voters if isinstance(voters, (set, frozenset)) else frozenset(voters)
        if vs and (min(vs) < 0 or max(vs) >= self.n):
            raise ValueError(f"voter index outside 0..{self.n - 1}")
        return tuple(bt for bt in self._ballot_types if not vs.isdisjoint(bt.voters))

    def per_voter(self, values: Sequence[T]) -> tuple[T, ...]:
        """Spread ``values[t]``, one per ballot type, to every voter of type t;
        the voters of a type share the object."""
        if len(values) != len(self._ballot_types):
            raise ValueError(f"need one value per ballot type, got {len(values)}")
        # itemgetter of a single index returns the bare item
        return self._spread(values) if self.n > 1 else (self._spread(values),)

    def positions(self) -> tuple[tuple[int, ...], ...]:
        """``positions()[i][c]`` is the rank of candidate c for voter i, 0 = best.
        Voters with the same ranking share one row."""
        cached = self.__dict__.get("_positions")
        if cached is None:
            rows = []
            for bt in self.ballot_types():
                row = [0] * self.m
                for rank, c in enumerate(bt.ranking):
                    row[c] = rank
                rows.append(tuple(row))
            cached = self.per_voter(rows)
            object.__setattr__(self, "_positions", cached)
        return cached

    def prefers(self, voter: int, a: int, b: int) -> bool:
        """True iff voter ranks a strictly above b."""
        pos = self.positions()[voter]
        return pos[a] < pos[b]

    def name_index(self, name: str) -> int:
        try:
            return self.candidate_names.index(name)
        except ValueError:
            raise KeyError(f"unknown candidate name: {name!r}") from None


def reverse_profile(p: PreferenceProfile) -> PreferenceProfile:
    """Flip every ranking, so each voter's worst candidate becomes their best."""
    return PreferenceProfile(
        tuple(tuple(reversed(r)) for r in p.rankings),
        p.candidate_names,
    )


def plurality_scores(p: PreferenceProfile) -> tuple[int, ...]:
    """Number of first-place appearances of each candidate."""
    scores = [0] * p.m
    for ranking in p.rankings:
        scores[ranking[0]] += 1
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

    expanded_rankings = tuple(
        tuple(e for c in ranking for e in clones[c]) for ranking in p.rankings
    )
    expanded = PreferenceProfile(expanded_rankings, tuple(names))
    return CloneExpansion(expanded, tuple(origin), tuple(clones))


def dominated_set(p: PreferenceProfile, c: int, voters: Iterable[int]) -> frozenset[int]:
    """Candidates that some voter in ``voters`` ranks weakly below c (c included)."""
    out: set[int] = set()
    for r, _ in p.ballot_types_of(voters):
        out.update(r[r.index(c):])
    return frozenset(out)


class VoterGroup(NamedTuple):
    """Voters tied to one candidate set: an edge set of a flow network, or
    the common prefix of a solid coalition.  The voters come as ascending
    runs, one per ballot type with that set, so equal sets merge without
    copying their voters."""

    candidates: frozenset[int]
    runs: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return sum(map(len, self.runs))

    @property
    def voters(self) -> frozenset[int]:
        return frozenset().union(*self.runs)

    def members(self) -> Iterator[int]:
        """The group's voters, ascending."""
        return merge(*self.runs)


def voter_groups(
    sets: Iterable[frozenset[int]], runs: Iterable[tuple[int, ...]]
) -> tuple[VoterGroup, ...]:
    """Pair each candidate set with its ascending run of voters, merging
    equal sets in order of first appearance."""
    merged: dict[frozenset[int], list[tuple[int, ...]]] = {}
    for cs, run in zip(sets, runs, strict=True):
        merged.setdefault(cs, []).append(run)
    return tuple(VoterGroup(cs, tuple(rs)) for cs, rs in merged.items())


def solid_coalitions(p: PreferenceProfile) -> tuple[VoterGroup, ...]:
    """Every candidate prefix with its maximal supporter group, ballot type
    by ballot type and prefix length ascending, equal prefixes merged."""
    types = p.ballot_types()
    return voter_groups(
        (frozenset(bt.ranking[:r]) for bt in types for r in range(1, p.m + 1)),
        (bt.voters for bt in types for _ in range(p.m)))


def all_profiles(n: int, m: int, candidate_names: Sequence[str] | None = None) -> Iterable[PreferenceProfile]:
    """Every profile with n voters over m candidates, in lexicographic order.

    There are (m!)^n of them, so keep n and m tiny.
    """
    perms = list(itertools.permutations(range(m)))
    for combo in itertools.product(perms, repeat=n):
        yield PreferenceProfile.of(combo, candidate_names)

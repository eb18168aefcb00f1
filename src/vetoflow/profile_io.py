"""Reading, writing and generating elections.

Two text formats are understood:

* the native one: a ``# comment``-tolerant header line ``m n``, a line of
  candidate names, then one ``a>b>c`` ballot line per voter;
* count-prefixed ranking lines in the style of preference-data archives,
  ``3: 1,2,4,3`` meaning three voters share the ranking, candidates 1-based.
  Metadata comments like ``# ALTERNATIVE NAME 2: b`` supply names.  Counts
  adding up to more than ``MAX_VOTERS`` raise ``ProfileSizeError``.

``parse_profile`` sniffs the format, ``serialize_profile`` always emits the
native one, and the two round-trip exactly.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction

from .profiles import PreferenceProfile, ProfileSizeError

# count lines expand into one entry per voter; cap the total before expanding
MAX_VOTERS = 1_000_000
# every generated candidate costs a name and a ranking cell per voter; cap
# the count before generating
MAX_CANDIDATES = 100_000

_COUNT_LINE = re.compile(r"^\s*\d+\s*:")
_ALT_NAME = re.compile(r"^#\s*ALTERNATIVE\s+NAME\s+(\d+)\s*:\s*(.+?)\s*$", re.IGNORECASE)


def format_rational(x: Fraction) -> str:
    """Render exactly, always with an explicit denominator: 3 -> ``3/1``."""
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    if text in ("inf", "+inf", "infinity"):
        raise ValueError("rational expected, got an infinity marker")
    return Fraction(text)


def parse_profile(text: str) -> PreferenceProfile:
    """Parse either supported format, deciding by the shape of the data lines.

    Errors carry 1-based line numbers from the original text.
    """
    numbered = [
        (no, ln)
        for no, ln in enumerate(text.splitlines(), start=1)
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not numbered:
        raise ValueError("no ballot data found")
    if any(_COUNT_LINE.match(ln) for _, ln in numbered):
        return _parse_count_lines(text)
    return _parse_native(numbered)


def _parse_native(numbered: list[tuple[int, str]]) -> PreferenceProfile:
    no, first = numbered[0]
    header = first.split()
    try:
        m, n = int(header[0]), int(header[1])
        if len(header) != 2:
            raise ValueError
    except (ValueError, IndexError):
        raise ValueError(f"expected header 'm n', got {first!r}, line {no}") from None
    if len(numbered) < 2:
        raise ValueError("missing candidate name line")
    no, name_line = numbered[1]
    names = tuple(name_line.split())
    if len(names) != m:
        raise ValueError(f"header says {m} candidates, name line has {len(names)}, line {no}")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate candidate name, line {no}")
    ballots = numbered[2:]
    if len(ballots) != n:
        raise ValueError(f"header says {n} voters, found {len(ballots)} ballot lines")
    index = {name: j for j, name in enumerate(names)}
    rankings = []
    for no, ln in ballots:
        parts = [part.strip() for part in ln.split(">")]
        seen: set[str] = set()
        for part in parts:
            if part not in index:
                raise ValueError(f"unknown candidate {part!r}, line {no}")
            if part in seen:
                raise ValueError(f"duplicate candidate, line {no}")
            seen.add(part)
        if len(parts) != m:
            raise ValueError(f"ballot ranks {len(parts)} of {m} candidates, line {no}")
        rankings.append(tuple(index[part] for part in parts))
    return PreferenceProfile(tuple(rankings), names)


def _parse_count_lines(text: str) -> PreferenceProfile:
    names_by_id: dict[int, str] = {}
    rankings: list[tuple[int, ...]] = []
    width: int | None = None
    for no, ln in enumerate(text.splitlines(), start=1):
        alt = _ALT_NAME.match(ln.strip())
        if alt:
            names_by_id[int(alt.group(1))] = alt.group(2)
            continue
        if not ln.strip() or ln.lstrip().startswith("#"):
            continue
        if not _COUNT_LINE.match(ln):
            raise ValueError(f"cannot parse line {ln!r}, line {no}")
        count_part, _, rank_part = ln.partition(":")
        try:
            count = int(count_part)
            ids = [int(tok) for tok in rank_part.split(",")]
        except ValueError:
            raise ValueError(f"cannot parse line {ln!r}, line {no}") from None
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate candidate, line {no}")
        # every line must rank the full slate 1..m
        if sorted(ids) != list(range(1, len(ids) + 1)):
            raise ValueError(f"ranking is not a permutation of 1..{len(ids)}, line {no}")
        if width is None:
            width = len(ids)
        elif len(ids) != width:
            raise ValueError(f"expected {width} candidates, got {len(ids)}, line {no}")
        if len(rankings) + count > MAX_VOTERS:
            raise ProfileSizeError(f"more than {MAX_VOTERS} voters, line {no}")
        ranking = tuple(c - 1 for c in ids)
        rankings.extend([ranking] * count)
    if not rankings or width is None:
        raise ValueError("no ballot data found")
    names = tuple(names_by_id.get(j + 1, f"c{j + 1}") for j in range(width))
    return PreferenceProfile(tuple(rankings), names)


def serialize_profile(p: PreferenceProfile) -> str:
    out = [f"{p.m} {p.n}", " ".join(p.candidate_names)]
    for ranking in p.rankings:
        out.append(">".join(p.candidate_names[c] for c in ranking))
    return "\n".join(out) + "\n"


def gen_impartial_culture(n: int, m: int, seed: int) -> PreferenceProfile:
    """n independent uniform rankings over m candidates."""
    rng = random.Random(seed)
    rankings = []
    for _ in range(n):
        ballot = list(range(m))
        rng.shuffle(ballot)
        rankings.append(tuple(ballot))
    return PreferenceProfile.of(rankings)


@dataclass(frozen=True)
class MetricInstance:
    """A profile together with exact voter-candidate distances that induce it.

    Consistency invariant: whenever voter i ranks a above b,
    ``distances[i][a] <= distances[i][b]``.
    """

    profile: PreferenceProfile
    distances: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        p = self.profile
        if len(self.distances) != p.n or any(len(row) != p.m for row in self.distances):
            raise ValueError("distance matrix shape must be n x m")
        for row in self.distances:
            if any(x < 0 for x in row):
                raise ValueError("distances must be nonnegative")
        for i, ranking in enumerate(p.rankings):
            for a, b in zip(ranking, ranking[1:]):
                if self.distances[i][a] > self.distances[i][b]:
                    raise ValueError(f"voter {i} ranking disagrees with distances")


def gen_euclidean(n: int, m: int, seed: int) -> MetricInstance:
    """Voters and candidates on a rational grid in the plane, Chebyshev distance.

    Coordinates are multiples of 1/1000 in [0, 1], so all distances are exact
    rationals.  Each voter ranks by increasing distance, ties by candidate
    index.  The work runs on the integer grid; distances become Fractions
    only for the output.
    """
    rng = random.Random(seed)
    voters = [(rng.randrange(1001), rng.randrange(1001)) for _ in range(n)]
    cands = [(rng.randrange(1001), rng.randrange(1001)) for _ in range(m)]
    scale = [Fraction(d, 1000) for d in range(1001)]
    rankings, dist = [], []
    for vx, vy in voters:
        d = [max(abs(vx - cx), abs(vy - cy)) for cx, cy in cands]
        # a stable sort keeps tied candidates in index order
        rankings.append(tuple(sorted(range(m), key=d.__getitem__)))
        dist.append(tuple(map(scale.__getitem__, d)))
    return MetricInstance(PreferenceProfile.of(rankings), tuple(dist))


def empirical_social_cost(inst: MetricInstance, c: int) -> Fraction:
    """Sum of distances from all voters to candidate c."""
    return sum((row[c] for row in inst.distances), Fraction(0))


def serialize_metric(inst: MetricInstance) -> str:
    """Distance rows as whitespace-separated exact rationals, one line per voter."""
    out = []
    for row in inst.distances:
        out.append(" ".join(format_rational(x) for x in row))
    return "\n".join(out) + "\n"


def parse_metric(text: str, profile: PreferenceProfile) -> MetricInstance:
    rows = []
    for ln in text.splitlines():
        if not ln.strip() or ln.lstrip().startswith("#"):
            continue
        rows.append(tuple(parse_rational(tok) for tok in ln.split()))
    return MetricInstance(profile, tuple(rows))

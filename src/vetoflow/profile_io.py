"""Reading, writing and generating elections.

Two text formats are understood:

* the native one: a ``# comment``-tolerant header line ``m n``, a line of
  candidate names, then one ``a>b>c`` ballot line per voter;
* count-prefixed ranking lines in the style of preference-data archives,
  ``3: 1,2,4,3`` meaning three voters share the ranking, candidates 1-based.
  Metadata comments like ``# ALTERNATIVE NAME 2: b`` supply names, at most
  one per candidate 1..m.  Each line with a nonzero count is one ballot run.

Either format holds at most ``MAX_VOTERS`` voters (``ProfileSizeError``).

``parse_profile`` sniffs the format, ``serialize_profile`` always emits the
native one, and the two round-trip exactly.

Voter-candidate distances are one ``DistanceMatrix`` type with one text
format: a line of ``p/q`` rationals per voter.  ``DistanceMatrix.to_text``
writes it (distortion certificates and the ``gen`` sidecar alike), and
``parse_metric`` reads it back through the matrix's one check.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .profiles import MAX_VOTERS, PreferenceProfile, ProfileSizeError

# every generated candidate costs a name and a ranking cell per voter; cap
# the count before generating
MAX_CANDIDATES = 100_000

_COUNT_LINE = re.compile(r"\s*(\d+)\s*:(.*)")
_ALT_NAME = re.compile(r"^#\s*ALTERNATIVE\s+NAME\s+(\d+)\s*:\s*(.+?)\s*$", re.IGNORECASE)
_RATIONAL = re.compile(r"\s*(-?[0-9]+)(?:/([0-9]+))?\s*")


def format_rational(x: Fraction) -> str:
    """Render exactly, always with an explicit denominator: 3 -> ``3/1``."""
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    """Read what ``format_rational`` writes, ``[-]p/q`` with q >= 1, or a
    bare integer; anything else (floats, exponents, infinities) is refused
    before any arithmetic."""
    match = _RATIONAL.fullmatch(text)
    q = int(match[2] or 1) if match else 0
    if q == 0:
        raise ValueError(f"rational p/q with q >= 1 expected, got {text!r}")
    return Fraction(int(match[1]), q)


def parse_profile(text: str) -> PreferenceProfile:
    """Parse either supported format, deciding by the shape of the data lines.

    Errors carry 1-based line numbers from the original text.
    """
    # one strip per line; comments are kept stripped, so only they start with "#"
    lines: list[tuple[int, str, re.Match[str] | None]] = []
    for no, ln in enumerate(text.splitlines(), start=1):
        stripped = ln.strip()
        if stripped.startswith("#"):
            lines.append((no, stripped, None))
        elif stripped:
            lines.append((no, ln, _COUNT_LINE.fullmatch(ln)))
    if any(match for _, _, match in lines):
        return _parse_count_lines(lines)
    data = [(no, ln) for no, ln, _ in lines if not ln.startswith("#")]
    if not data:
        raise ValueError("no ballot data found")
    return _parse_native(data)


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
    return PreferenceProfile.of(rankings, names)


def _parse_count_lines(lines: list[tuple[int, str, re.Match[str] | None]]) -> PreferenceProfile:
    # alternative id -> (name, line number)
    names_by_id: dict[int, tuple[str, int]] = {}
    runs: list[tuple[tuple[int, ...], int]] = []
    n = 0
    width: int | None = None
    for no, ln, match in lines:
        if ln.startswith("#"):
            alt = _ALT_NAME.match(ln)
            if alt:
                k = int(alt.group(1))
                if k in names_by_id:
                    raise ValueError(f"alternative {k} is named twice, line {no}")
                names_by_id[k] = alt.group(2), no
            continue
        if match is None:
            raise ValueError(f"cannot parse line {ln!r}, line {no}")
        try:
            count = int(match[1])
            ids = tuple(map(int, match[2].split(",")))
        except ValueError:
            raise ValueError(f"cannot parse line {ln!r}, line {no}") from None
        if width is None:  # the first line fixes the slate 1..m that every line ranks
            width = len(ids)
            slate, shift = list(range(1, width + 1)), range(-1, width).__getitem__
        if sorted(ids) != slate:  # name the first check the line fails
            if len(set(ids)) != len(ids):
                raise ValueError(f"duplicate candidate, line {no}")
            if sorted(ids) != list(range(1, len(ids) + 1)):
                raise ValueError(f"ranking is not a permutation of 1..{len(ids)}, line {no}")
            raise ValueError(f"expected {width} candidates, got {len(ids)}, line {no}")
        n += count
        if n > MAX_VOTERS:
            raise ProfileSizeError(f"more than {MAX_VOTERS} voters, line {no}")
        if count:
            runs.append((tuple(map(shift, ids)), count))
    if not runs or width is None:
        raise ValueError("no ballot data found")
    for k, (_, no) in names_by_id.items():
        if not 1 <= k <= width:
            raise ValueError(f"alternative {k} is outside 1..{width}, line {no}")
    names = tuple(names_by_id[j][0] if j in names_by_id else f"c{j}" for j in range(1, width + 1))
    return PreferenceProfile(tuple(runs), names)


def serialize_profile(p: PreferenceProfile) -> str:
    out = [f"{p.m} {p.n}", " ".join(p.candidate_names)]
    for ranking, count in p.runs:
        out += [">".join(p.candidate_names[c] for c in ranking)] * count
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
class DistanceMatrix:
    """Voter-candidate distances, ``values[i][a]`` = d(i, a), claimed to
    extend to a metric.  Nothing is checked on construction; ``check``
    lists what is wrong against a profile."""

    values: tuple[tuple[Fraction, ...], ...]

    def to_text(self) -> str:
        """Rows as whitespace-separated exact rationals, one line per voter."""
        return "\n".join(
            " ".join(format_rational(v) for v in row) for row in self.values
        ) + "\n"

    def cost(self, a: int) -> Fraction:
        """Social cost of candidate a: the sum of its column."""
        return sum((row[a] for row in self.values), Fraction(0))

    def check(self, p: PreferenceProfile) -> list[str]:
        """All invariant violations, as human-readable strings; past the shape
        and cell-type checks, integer numerators over one common denominator."""
        if len(self.values) != p.n or any(len(r) != p.m for r in self.values):
            return ["matrix shape is not voters x candidates"]
        if any(type(v) not in (int, Fraction) for row in self.values for v in row):
            return ["distances must be ints or Fractions"]
        bad: list[str] = []
        _, d = self.numerators()
        for i in range(p.n):
            for a in range(p.m):
                if d[i][a] < 0:
                    bad.append(f"negative distance at voter {i}, candidate {a}")
        pos = p.positions()
        for i in range(p.n):
            for a in range(p.m):
                for b in range(p.m):
                    if pos[i][a] < pos[i][b] and d[i][a] > d[i][b]:
                        bad.append(f"voter {i} ranks {a} above {b} but sits closer to {b}")
        # d_ia > d_ib + d_jb + d_ja reads d_ia - d_ja > d_ib + d_jb, so a
        # pair with max_a (d_ia - d_ja) <= min_b (d_ib + d_jb) violates none
        # of its m^2 rows
        for i, di in enumerate(d):
            for j, dj in enumerate(d):
                if max(x - y for x, y in zip(di, dj)) <= min(x + y for x, y in zip(di, dj)):
                    continue
                for a in range(p.m):
                    for b in range(p.m):
                        if di[a] > di[b] + dj[b] + dj[a]:
                            bad.append(f"quadrangle violated at ({i},{j},{a},{b})")
        return bad

    def numerators(self) -> tuple[int, list[list[int]]]:
        """One common denominator and every cell's numerator over it."""
        den = lcm(*[v.denominator for row in self.values for v in row])
        return den, [[v.numerator * (den // v.denominator) for v in row] for row in self.values]

    def validate(self, p: PreferenceProfile) -> None:
        bad = self.check(p)
        if bad:
            raise ValueError("; ".join(bad[:3]))


def gen_euclidean(n: int, m: int, seed: int) -> tuple[PreferenceProfile, DistanceMatrix]:
    """Voters and candidates on a rational grid in the plane, Chebyshev distance.

    Coordinates are multiples of 1/1000 in [0, 1], so all distances are exact
    rationals.  Each voter ranks by increasing distance, ties by candidate
    index.  The work runs on the integer grid; distances become Fractions
    only for the output.  The distances are those of points in a metric
    space and the rankings are sorted by them, so the matrix passes
    ``check`` by construction and none is run.
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
    return PreferenceProfile.of(rankings), DistanceMatrix(tuple(dist))


def parse_metric(text: str, p: PreferenceProfile) -> DistanceMatrix:
    """Read what ``DistanceMatrix.to_text`` writes, ``#`` comments and blank
    lines skipped, and refuse a matrix that fails ``check`` against p."""
    rows = []
    for ln in text.splitlines():
        if not ln.strip() or ln.lstrip().startswith("#"):
            continue
        rows.append(tuple(parse_rational(tok) for tok in ln.split()))
    dm = DistanceMatrix(tuple(rows))
    dm.validate(p)
    return dm

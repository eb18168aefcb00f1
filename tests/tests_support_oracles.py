"""Brute-force oracles shared across the test modules.  Each evaluates its
definition directly, voter by voter, without the grouping, flows or LPs of
the checkers it is compared with; the clone oracles run the plurality rules
on the cloned profile, one clone at a time.  ``voter_groups`` groups the
ballot types by a candidate set given per type, the reference for the
groups a profile keeps; ``solid_groups`` reads the prefix walk back as
voter groups.  ``voter_flow_shares`` and ``share_refusal`` read
a solved network and a share matrix voter by voter, in Fractions, and
``int_rows`` puts Fraction share rows in an eating trace's int form.
``parse_profile_reference`` is the profile reader in its earlier form,
which matched and split every line again, kept verbatim as the
differential reference for ``parse_profile``."""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Sequence

from vetoflow.axioms import solid_coalitions, veto_power
from vetoflow.matching import FlowResult, build_domination_graph, has_fractional_perfect_matching
from vetoflow.profile_io import MAX_VOTERS, DistanceMatrix
from vetoflow.profiles import (
    PreferenceProfile, ProfileSizeError, VoterGroup, clone_expand)


def voter_groups(p: PreferenceProfile,
                 sets: Sequence[frozenset[int] | None]) -> tuple[VoterGroup, ...]:
    """The voters of p as voter groups, ballot type t's voters under
    ``sets[t]``, equal sets merged in order of first appearance; a type
    whose set is None is left out."""
    merged: dict[frozenset[int], list[int]] = {}
    for cs, t in zip(sets, range(len(p.ballot_types())), strict=True):
        if cs is not None:
            merged.setdefault(cs, []).append(t)
    types = p.ballot_types()
    return tuple(VoterGroup(cs, tuple(ts), sum(types[t].count for t in ts))
                 for cs, ts in merged.items())


def solid_groups(p: PreferenceProfile, depth: int) -> tuple[VoterGroup, ...]:
    """``solid_coalitions(p, depth)`` as voter groups, in its order.  Each
    head must be the top ``depth`` of its types and hold their voters, in
    order of first type; each prefix's candidates are its mask's bits,
    which must be the top ``mask.bit_count()`` of every head that reaches
    it, and its types those of these heads, ascending."""
    heads, groups = solid_coalitions(p, depth)
    types = p.ballot_types()
    assert list(heads) == list(dict.fromkeys(r[:depth] for r, _ in types))
    for head, (ts, size) in heads.items():
        assert ts == [t for t, (r, _) in enumerate(types) if r[:depth] == head]
        assert size == sum(types[t].count for t in ts)
    out = []
    for mask, (reach, size) in groups.items():
        prefix = frozenset(c for c in range(p.m) if mask >> c & 1)
        assert all(frozenset(h[:len(prefix)]) == prefix for h in reach)
        out.append(VoterGroup(prefix, tuple(sorted(t for h in reach for t in heads[h][0])), size))
    return tuple(out)


def hall_check_bruteforce(p: PreferenceProfile, c: int) -> bool:
    """Check |D(N')| >= m|N'|/n over all nonempty voter subsets N', where
    D(N') holds the candidates some voter of N' ranks weakly below c."""
    if p.n > 20:
        raise ValueError("subset enumeration is limited to 20 voters")
    # each voter's edge set, read off that voter's own ranking
    masks = [sum(1 << x for x in r[r.index(c):]) for r in p.rankings]
    for sub in range(1, 1 << p.n):
        union = 0
        for i in range(p.n):
            if sub >> i & 1:
                union |= masks[i]
        if union.bit_count() * p.n < p.m * sub.bit_count():
            return False
    return True


def veto_core_member_pairs(p: PreferenceProfile, c: int) -> bool:
    """Core membership by enumerating every (coalition, blocked set) pair:
    c is vetoed when some coalition N' ranks each of at least m - v(N')
    other candidates above c.  The second route beside the subset scan of
    ``veto_core_member_bruteforce``."""
    if p.n > 4 or p.m > 4:
        raise ValueError("pair enumeration limited to n <= 4, m <= 4")
    pos = p.positions()
    others = [x for x in range(p.m) if x != c]
    for ns in range(1, p.n + 1):
        need = p.m - veto_power(p.n, p.m, ns)
        for coalition in combinations(range(p.n), ns):
            for cs in range(max(need, 1), p.m):
                for blocked in combinations(others, cs):
                    if all(pos[i][b] < pos[i][c] for i in coalition for b in blocked):
                        return False
    return True


def voter_flow_shares(p: PreferenceProfile, flow: FlowResult) -> tuple[tuple[Fraction, ...], ...]:
    """Row i: the fraction of voter i's supply that the solved network sent
    to each right node.  A group's units are split evenly over its voters,
    so its voters get equal rows."""
    net = flow.network
    row_of = {}
    for g, sent in zip(net.groups, flow.units_sent()):
        row = [Fraction(0)] * net.num_right
        for c, units in sent.items():
            row[c] = Fraction(units, g.size * net.left_supply)
        row_of.update(dict.fromkeys(g.types, tuple(row)))
    return p.per_voter([row_of[t] for t in range(len(row_of))])


def fractional_matching_rows(
    p: PreferenceProfile, c: int
) -> tuple[tuple[Fraction, ...], ...] | None:
    """A fractional perfect matching on c's domination graph, row i giving
    voter i's weights, or None if there is none."""
    _, flow = build_domination_graph(p, c).solve()
    return None if flow.cut()[0] else voter_flow_shares(p, flow)


def int_rows(rows) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Share rows of Fractions or ints as an ``EatingTrace``'s ``(den, rows)``:
    int numerators over the lcm of the cells' denominators."""
    den = math.lcm(*(Fraction(v).denominator for row in rows for v in row))
    return den, tuple(tuple(int(v * den) for v in row) for row in rows)


def fraction_row_sums(shares) -> tuple[Fraction, ...]:
    return tuple(sum(row, Fraction(0)) for row in shares)


def fraction_column_sums(shares) -> tuple[Fraction, ...]:
    return tuple(sum((row[c] for row in shares), Fraction(0)) for c in range(len(shares[0])))


def share_refusal(shares, row_sum: Fraction) -> str | None:
    """Why a share matrix, one row per voter, fails to be an assignment
    of ``row_sum`` per voter: a row missing it, a column past 1 or a
    negative share; None if it is one."""
    for i, total in enumerate(fraction_row_sums(shares)):
        if total != row_sum:
            return f"row {i} sums to {total}, expected {row_sum}"
    for c, total in enumerate(fraction_column_sums(shares)):
        if total > 1:
            return f"column {c} exceeds 1"
    for i, row in enumerate(shares):
        if min(row) < 0:
            return f"row {i} has a negative share"
    return None


def pareto_optimal_bruteforce(p: PreferenceProfile, matching: dict[int, int], k: int) -> bool:
    """Is there no size-k matching that weakly improves every currently
    matched voter and strictly improves someone?

    Losing one's match counts as getting worse; gaining a match counts as a
    strict improvement.
    """
    if p.n > 5 or p.m > 5:
        raise ValueError("brute force limited to n <= 5, m <= 5")
    pos = p.positions()

    def dominates(other: dict[int, int]) -> bool:
        strict = False
        for i, c in matching.items():
            if i not in other:
                return False
            if pos[i][other[i]] > pos[i][c]:
                return False
            if pos[i][other[i]] < pos[i][c]:
                strict = True
        for i in other:
            if i not in matching:
                strict = True
        return strict

    for voters in combinations(range(p.n), k):
        for cands in permutations(range(p.m), k):
            if dominates(dict(zip(voters, cands))):
                return False
    return True


def triangle_violations(matrix: Sequence[Sequence[Fraction]]) -> list[tuple[int, int, int]]:
    """All (x, y, z) with d(x,z) > d(x,y) + d(y,z)."""
    size = len(matrix)
    bad = []
    for x in range(size):
        for y in range(size):
            for z in range(size):
                if matrix[x][z] > matrix[x][y] + matrix[y][z]:
                    bad.append((x, y, z))
    return bad


def plurality_veto_cloned(p: PreferenceProfile, order: Sequence[int]) -> int:
    """Plurality veto on the plurality-cloned profile: the first n-1 voters
    in ``order`` each strike their least preferred clone still standing,
    and the candidate whose clone block holds the last clone wins."""
    ce = clone_expand(p)
    alive = [True] * ce.expanded.m
    for voter in order[: p.n - 1]:
        for e in reversed(ce.expanded.rankings[voter]):
            if alive[e]:
                alive[e] = False
                break
    last = alive.index(True)
    return next(c for c, block in enumerate(ce.clones) if last in block)


def plurality_matching_winners_cloned(p: PreferenceProfile) -> frozenset[int]:
    """Every candidate with a clone whose domination graph in the
    plurality-cloned profile admits a fractional perfect matching, one flow
    per clone."""
    ce = clone_expand(p)
    return frozenset(
        c for c, block in enumerate(ce.clones) for e in block
        if has_fractional_perfect_matching(build_domination_graph(ce.expanded, e))
    )


def fraction_check(dm: DistanceMatrix, p: PreferenceProfile) -> list[str]:
    """``DistanceMatrix.check`` over Fractions, cell by cell; the reference
    for the integer check."""
    if len(dm.values) != p.n or any(len(r) != p.m for r in dm.values):
        return ["matrix shape is not voters x candidates"]
    d = dm.values
    bad = []
    for i, a in product(range(p.n), range(p.m)):
        if d[i][a] < 0:
            bad.append(f"negative distance at voter {i}, candidate {a}")
    pos = p.positions()
    for i, a, b in product(range(p.n), range(p.m), range(p.m)):
        if pos[i][a] < pos[i][b] and d[i][a] > d[i][b]:
            bad.append(f"voter {i} ranks {a} above {b} but sits closer to {b}")
    for i, j, a, b in product(range(p.n), range(p.n), range(p.m), range(p.m)):
        if d[i][a] > d[i][b] + d[j][b] + d[j][a]:
            bad.append(f"quadrangle violated at ({i},{j},{a},{b})")
    return bad


_COUNT_LINE = re.compile(r"^\s*\d+\s*:")
_ALT_NAME = re.compile(r"^#\s*ALTERNATIVE\s+NAME\s+(\d+)\s*:\s*(.+?)\s*$", re.IGNORECASE)


def parse_profile_reference(text: str) -> PreferenceProfile:
    """The profile reader as it was before it classified each line in one
    pass, kept verbatim as the reference for ``parse_profile``: the same
    profile, or the same exception type and message, on every text."""
    numbered = [
        (no, ln)
        for no, ln in enumerate(text.splitlines(), start=1)
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not numbered:
        raise ValueError("no ballot data found")
    if any(_COUNT_LINE.match(ln) for _, ln in numbered):
        return _parse_count_lines_reference(text)
    return _parse_native_reference(numbered)


def _parse_native_reference(numbered: list[tuple[int, str]]) -> PreferenceProfile:
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


def _parse_count_lines_reference(text: str) -> PreferenceProfile:
    # alternative id -> (name, line number)
    names_by_id: dict[int, tuple[str, int]] = {}
    rankings: list[tuple[int, ...]] = []
    width: int | None = None
    for no, ln in enumerate(text.splitlines(), start=1):
        alt = _ALT_NAME.match(ln.strip())
        if alt:
            k = int(alt.group(1))
            if k in names_by_id:
                raise ValueError(f"alternative {k} is named twice, line {no}")
            names_by_id[k] = alt.group(2), no
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
    for k, (_, no) in names_by_id.items():
        if not 1 <= k <= width:
            raise ValueError(f"alternative {k} is outside 1..{width}, line {no}")
    names = tuple(names_by_id[j][0] if j in names_by_id else f"c{j}" for j in range(1, width + 1))
    return PreferenceProfile.of(rankings, names)

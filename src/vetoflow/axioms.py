"""Axiom checkers: veto-core membership, weak proportionality for solid
coalitions, the Pareto-matching criterion, and the auditor tying them together.

A coalition N' can veto v(N') = ceil(m|N'|/n) - 1 candidates.  Candidate c is
vetoed when some coalition jointly ranks at least m - v(N') candidates above
c; c is a core member when no coalition vetoes it.  This is exactly the
failure of the Hall condition on the domination graph of c, which gives the
fast checker, and one witness serves both: a Hall witness (N', D) is the
veto of N' with everything outside D as the blocking set.  The core itself
first asks the solid coalitions: voters who share a top set T veto
everything outside T once T is large enough for their number, and only
the candidates no such coalition vetoes go to a min cut.  Weak PSC walks
each ballot's top k, which hold every prefix a violation can use, asks
their solid coalitions, then reads each uncommitted candidate's minimal
min cut; ``FlowNetwork.cut`` reads both kinds.  The brute-force checkers
evaluate the quantifiers directly and keep the fast paths honest.

All threshold comparisons are exact; the strict inequalities are
cross-multiplied into integer arithmetic, never approximated.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Iterable

from .matching import (
    CutWitness,
    FlowNetwork,
    build_domination_graph,
    extract_deficiency_witness,
    has_fractional_perfect_matching,
    max_bipartite_matching,
)
from .profiles import PreferenceProfile, VoterGroup, reverse_profile, solid_coalitions
from .profile_io import serialize_profile


def veto_power(n: int, m: int, coalition_size: int) -> int:
    """ceil(m * coalition_size / n) - 1, the number of candidates the
    coalition can block."""
    if not 0 <= coalition_size <= n:
        raise ValueError("coalition size out of range")
    return -(-(m * coalition_size) // n) - 1


@dataclass(frozen=True)
class VetoVerdict:
    witness: CutWitness | None

    @property
    def member(self) -> bool:
        return self.witness is None


def veto_core_member(p: PreferenceProfile, c: int) -> VetoVerdict:
    """Fast membership check through the domination graph of c.

    Membership is equivalent to the existence of a fractional perfect
    matching.  A Hall deficiency is the veto itself: the deficient voters
    N' rank every candidate outside their dominated set D above c, and
    |D| n < m |N'| is |D| <= v(N'), so that blocking set is large enough.
    The verdict carries the min cut's validated ``CutWitness``, or None.
    """
    return VetoVerdict(extract_deficiency_witness(p, c))


def veto_core(p: PreferenceProfile) -> frozenset[int]:
    """The candidates no coalition vetoes.

    A solid-coalition scan runs first.  The N' voters whose top |T|
    candidates are the set T rank all of T above every other candidate, so
    with T as the blocking set they veto every candidate outside T once
    |T| >= m - v(N').  As m - |T| is an integer, that is m - |T| <
    m |N'| / n, or (m - |T|) n < m |N'| cross-multiplied.  A candidate the
    scan marks is vetoed and needs no cut; the min cut of
    ``veto_core_member`` decides each other candidate, so the set is the
    one a cut per candidate gives.  The scan stays: its one
    ``solid_coalitions`` pass costs less on IC 3000x5 elections than the
    ``groups_below`` of the candidates it decides.
    """
    m, n = p.m, p.n
    everyone = frozenset(range(m))
    vetoed: set[int] = set()
    for g in solid_coalitions(p):
        if (m - len(g.candidates)) * n < m * g.size:
            vetoed |= everyone - g.candidates
    return frozenset(c for c in range(m) if c not in vetoed and veto_core_member(p, c).member)


def veto_core_member_bruteforce(p: PreferenceProfile, c: int) -> bool:
    """Direct quantifier evaluation: scan all voter subsets, intersect
    their strictly-above sets, and call c vetoed when some subset's
    intersection holds m - v(N') candidates.  The tests check this scan
    against a second enumeration, of (coalition, blocked set) pairs.
    """
    p.check_candidate(c)
    if p.n > 12 or p.m > 6:
        raise ValueError("brute force limited to n <= 12, m <= 6")
    pos = p.positions()
    above_masks = []
    for i in range(p.n):
        mask = 0
        for x in range(p.m):
            if pos[i][x] < pos[i][c]:
                mask |= 1 << x
        above_masks.append(mask)

    for sub in range(1, 1 << p.n):
        common = (1 << p.m) - 1
        size = 0
        for i in range(p.n):
            if sub >> i & 1:
                common &= above_masks[i]
                size += 1
        if common.bit_count() >= p.m - veto_power(p.n, p.m, size):
            return False
    return True


@dataclass(frozen=True)
class PscViolation:
    """A group large enough to deserve a candidate from ``prefix_set`` that
    the committee does not provide.

    ``alternative`` is the uncommitted candidate; ``prefix_set`` is the union
    of the supporters' weak prefixes down to it, so everything outside
    ``prefix_set`` sits below ``alternative`` for every supporter.  The
    Droop threshold is that of a committee of k = ``len(committee)``."""

    prefix_set: frozenset[int]
    supporters: frozenset[int]
    alternative: int

    def validate(self, p: PreferenceProfile, committee: frozenset[int]) -> None:
        if not self.supporters:
            raise ValueError("empty supporter set")
        if self.alternative in committee:
            raise ValueError("the claimed alternative is already in the committee")
        if not self.prefix_set - committee:
            raise ValueError("prefix set must contain an uncommitted candidate")
        union: set[int] = set()
        for r, _ in p.ballot_types_of(self.supporters):
            union.update(r[: r.index(self.alternative) + 1])
        if union != self.prefix_set:
            raise ValueError("prefix set is not the union of supporter prefixes")
        # Droop threshold, strict, cross-multiplied
        if len(self.supporters) * (len(committee) + 1) <= len(self.prefix_set) * p.n:
            raise ValueError("supporter set does not clear the Droop threshold")


@dataclass(frozen=True)
class PscVerdict:
    violation: PscViolation | None

    @property
    def satisfied(self) -> bool:
        return self.violation is None


def _committee(p: PreferenceProfile, committee: Iterable[int]) -> frozenset[int]:
    """The members as a set; each must be a distinct candidate of p."""
    members = list(committee)
    for c in members:
        p.check_candidate(c)
    times = Counter(members)
    for c, t in times.items():
        if t > 1:
            raise ValueError(f"committee names candidate {p.candidate_names[c]} twice")
    return frozenset(times)


def weak_psc_satisfied(p: PreferenceProfile, committee: Iterable[int]) -> PscVerdict:
    """Does the committee give every large-enough group one of its claimed
    candidates?

    The committee names k distinct candidates.  A violation is a voter set
    N' and a candidate x outside the committee with |N'| (k+1) > |C'| n,
    where C' is the union of N's weak prefixes down to x; as |N'| <= n,
    |C'| <= k, so only the ``_prefixes`` of at most k candidates matter.
    Their solid coalitions T are asked first, as in ``veto_core``: the
    first with an uncommitted x and |N'| (k+1) > |T| n, with its least
    such x, is the witness (C' lies inside T), so the scan stays.
    """
    W = _committee(p, committee)
    solid, ends = _prefixes(p, W)
    for types, size, prefix in solid.values():
        if size * (len(W) + 1) > len(prefix) * p.n and not W.issuperset(prefix):
            x = min(set(prefix) - W)
            rankings = [p.ballot_types()[t].ranking for t in types]
            union = frozenset().union(*(r[: r.index(x) + 1] for r in rankings))
            return _violation(p, W, union, types, x)
    return _psc_by_cuts(p, W, ends)


def _prefixes(p: PreferenceProfile, W: frozenset[int]) -> tuple[dict, dict]:
    """Each type's prefixes of at most k = |W| candidates as [types, voters,
    prefix] by int mask, walked once per distinct top k: ``solid`` in
    ``solid_coalitions``' order, ``ends[x]`` those ending at uncommitted x."""
    heads: dict[tuple[int, ...], list[int]] = {}  # top k -> types
    for t, (r, _) in enumerate(p.ballot_types()):
        heads.setdefault(r[: len(W)], []).append(t)
    solid, ends = {}, {}  # prefix mask -> group; x -> prefix mask -> group
    for head, types in heads.items():
        mask, count = 0, sum(p.ballot_types()[t].count for t in types)
        for j, x in enumerate(head, 1):
            mask |= 1 << x
            for groups in (solid,) if x in W else (solid, ends.get(x) or ends.setdefault(x, {})):
                g = groups.get(mask) or groups.setdefault(mask, [[], 0, head[:j]])
                g[0] += types
                g[1] += count
    return solid, ends


def _psc_by_cuts(p: PreferenceProfile, W: frozenset[int], ends: dict | None = None) -> PscVerdict:
    """The violation of the first uncommitted x, ascending, whose minimal
    min cut is not empty; only x's ``ends`` fit in a C' of at most k."""
    for x, found in sorted((_prefixes(p, W)[1] if ends is None else ends).items()):
        groups = tuple(VoterGroup(frozenset(prefix), tuple(sorted(types)), size)
                       for types, size, prefix in found.values())
        cut, union = FlowNetwork(p.m, groups, left_supply=len(W) + 1, right_cap=p.n).cut()
        if cut:
            return _violation(p, W, union, cut, x)
    return PscVerdict(None)


def _violation(p: PreferenceProfile, W: frozenset[int], prefix_set: frozenset[int],
               types: Iterable[int], x: int) -> PscVerdict:
    viol = PscViolation(prefix_set, frozenset(p.voters_of(types)), x)
    viol.validate(p, W)
    return PscVerdict(viol)


def weak_psc_bruteforce(p: PreferenceProfile, committee: Iterable[int]) -> bool:
    """Quantify over every voter subset and every uncommitted candidate."""
    if p.n > 10 or p.m > 5:
        raise ValueError("brute force limited to n <= 10, m <= 5")
    W = _committee(p, committee)
    k = len(W)
    prefix_masks = {
        x: p.per_voter([sum(1 << c for c in r[: r.index(x) + 1]) for r, _ in p.ballot_types()])
        for x in range(p.m) if x not in W
    }
    for sub in range(1, 1 << p.n):
        size = sub.bit_count()
        for x, masks in prefix_masks.items():
            union = 0
            for i in range(p.n):
                if sub >> i & 1:
                    union |= masks[i]
            if size * (k + 1) > union.bit_count() * p.n:
                return False
    return True


def pareto_matching_criterion(
    p: PreferenceProfile, c: int
) -> tuple[bool, dict[int, int] | None]:
    """Can all other candidates be matched to voters that rank them below c?

    True iff the bipartite graph with an edge (i, c') whenever voter i ranks
    c above c' has a matching of size m - 1.  On success the matching is
    returned as a voter -> candidate map.  The voters of one of the
    profile's ``groups_below(c)`` share one edge set, and so one flow node.
    """
    matching = max_bipartite_matching(
        p, tuple(g._replace(candidates=g.candidates - {c}) for g in p.groups_below(c)))
    if len(matching) < p.m - 1:
        return False, None
    return True, matching


@dataclass
class AuditReport:
    """Outcome of an equivalence audit over a family of instances."""

    instances: int = 0
    checks: int = 0
    discrepancies: list[dict] = field(default_factory=list)
    expected_pareto_divergences: list[dict] = field(default_factory=list)
    empty_core_instances: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.discrepancies and not self.empty_core_instances

    def lines(self) -> list[str]:
        out = [f"instances={self.instances} checks={self.checks}"]
        for d in self.discrepancies:
            out.append(f"DISCREPANCY {d}")
        for d in self.empty_core_instances:
            out.append(f"EMPTY-CORE {d}")
        for d in self.expected_pareto_divergences:
            out.append(f"expected-divergence {d}")
        out.append("status=" + ("ok" if self.ok else "FAILED"))
        return out

    def to_json(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def _record(p: PreferenceProfile, c: int, **found) -> dict:
    """An audit line's profile and candidate, then what was found."""
    return {"profile": serialize_profile(p), "candidate": p.candidate_names[c], **found}


def equivalence_audit(instances: Iterable[PreferenceProfile]) -> AuditReport:
    """Check, on every instance and candidate, that independent predicates
    agree: fractional-matching existence, brute-force core membership (for
    n <= 12 and m <= 6 only), and weak proportionality of the committee of
    all other candidates in the reversed profile.  That weak PSC reads c's
    domination graph less the types ranking c first, the same cut, by subset
    sums up to m = ``SCAN_MAX_RIGHT``: the flow meets a second algorithm at any n.

    For square instances (n = m) agreement with the Pareto-matching
    criterion is also demanded; for others, criterion-vs-membership
    divergences are recorded as expected.  Core nonemptiness is checked
    throughout.  Discrepancies are reported, never raised.
    """
    report = AuditReport()
    for p in instances:
        report.instances += 1
        rev = reverse_profile(p)
        members = []
        for c in range(p.m):
            report.checks += 1
            try:
                verdicts = {"matching": has_fractional_perfect_matching(build_domination_graph(p, c))}
                if p.n <= 12 and p.m <= 6:
                    verdicts["bruteforce"] = veto_core_member_bruteforce(p, c)
                verdicts["psc"] = weak_psc_satisfied(rev, frozenset(range(p.m)) - {c}).satisfied
            except Exception as exc:  # the audit reports, it does not raise
                report.discrepancies.append(_record(p, c, error=repr(exc)))
                continue
            flow = verdicts["matching"]
            if flow:
                members.append(c)
            if len(set(verdicts.values())) > 1:
                report.discrepancies.append(_record(p, c, **verdicts))
                continue
            criterion, _ = pareto_matching_criterion(p, c)
            if criterion != flow:
                found = _record(p, c, matching=flow, criterion=criterion)
                if p.n == p.m:
                    report.discrepancies.append(found)
                else:
                    report.expected_pareto_divergences.append(found)
        if not members:
            report.empty_core_instances.append({"profile": serialize_profile(p)})
    return report

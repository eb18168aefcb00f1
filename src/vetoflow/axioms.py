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
the candidates no such coalition vetoes go to a flow.  Weak PSC scans the
same coalitions first, then reads each uncommitted candidate's minimal
min cut by a subset-sum scan over candidate sets up to m =
``PSC_SCAN_MAX_M``, and by a flow above it.  The brute-force checkers
here evaluate the quantifiers directly and keep the fast paths honest.

All threshold comparisons are exact; the strict inequalities are
cross-multiplied into integer arithmetic, never approximated.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import reduce
from itertools import accumulate
from operator import and_, or_
from typing import Iterable

from .matching import (
    CutWitness,
    FlowNetwork,
    build_domination_graph,
    extract_deficiency_witness,
    has_fractional_perfect_matching,
    max_bipartite_matching,
)
from .profiles import PreferenceProfile, reverse_profile, solid_coalitions
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
    The verdict carries the flow's validated ``CutWitness``, or None.
    """
    return VetoVerdict(extract_deficiency_witness(p, c))


def veto_core(p: PreferenceProfile) -> frozenset[int]:
    """The candidates no coalition vetoes.

    A solid-coalition scan runs first.  The N' voters whose top |T|
    candidates are the set T rank all of T above every other candidate, so
    with T as the blocking set they veto every candidate outside T once
    |T| >= m - v(N').  As m - |T| is an integer, that is m - |T| <
    m |N'| / n, or (m - |T|) n < m |N'| cross-multiplied.  A candidate the
    scan marks is vetoed and needs no flow; the flow of
    ``veto_core_member`` decides each other candidate, so the set is the
    one a flow per candidate gives.  Where the scan marks nothing, it
    costs one ``solid_coalitions`` pass.
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


# Weak PSC reads its cuts by the subset-sum scan up to this many candidates
# and by max flow above it: the scan grows with 2^m, the flow with the types.
PSC_SCAN_MAX_M = 7


def weak_psc_satisfied(p: PreferenceProfile, committee: Iterable[int]) -> PscVerdict:
    """Does the committee give every large-enough group one of its claimed
    candidates?

    The committee names k distinct candidates.  A violation is a voter set
    N' and a candidate x outside the committee with |N'| (k+1) > |C'| n,
    where C' is the union of N's weak prefixes down to x.  For each x this
    is a Hall-type question, with voter supply k+1 and candidate capacity
    n, whose witness is the minimal min cut.  As in ``veto_core``, the
    solid coalitions of ``solid_coalitions(p)`` are asked first: the voters
    whose top |T| candidates are T rank every x in T within their top |T|,
    so with an uncommitted x in T and |N'| (k+1) > |T| n they violate with
    C' inside T.  The first such coalition, with its least uncommitted
    candidate, is the witness.  Otherwise each uncommitted x, ascending,
    gets its cut from ``_hall_scan`` while m <= ``PSC_SCAN_MAX_M``, and
    from a max flow above that.
    """
    W = _committee(p, committee)
    k = len(W)
    # C' lies inside T, so clearing the threshold on |T| clears it on |C'|
    for g in solid_coalitions(p):
        outside = g.candidates - W
        if outside and g.size * (k + 1) > len(g.candidates) * p.n:
            x = min(outside)
            rankings = [p.ballot_types()[t].ranking for t in g.types]
            union = frozenset().union(*(r[: r.index(x) + 1] for r in rankings))
            return _violation(p, W, union, g.types, x)
    return _psc_by_cuts(p, W, p.m <= PSC_SCAN_MAX_M)


def _psc_by_cuts(p: PreferenceProfile, W: frozenset[int], scan: bool) -> PscVerdict:
    """The violation of the first uncommitted x, ascending, whose minimal
    min cut is not empty, read by ``_hall_scan`` if ``scan``, else by flow."""
    types = p.ballot_types()
    tops = [list(accumulate((1 << c for c in r), or_)) for r, _ in types] if scan else []
    everyone = frozenset(range(p.m))
    for x in range(p.m):
        if x in W:
            continue
        if scan:
            prefixes = [top[r.index(x)] for top, (r, _) in zip(tops, types)]
            cut, union = _hall_scan(p, prefixes, x, len(W) + 1, p.n)
        else:
            # the weak prefix down to x is x and all not below it
            groups = tuple(g._replace(candidates=everyone - g.candidates | {x})
                           for g in p.groups_below(x))
            net = FlowNetwork(p.m, groups, left_supply=len(W) + 1, right_cap=p.n)
            cut, union = net.solve()[1].cut()
        if cut:
            return _violation(p, W, union, cut, x)
    return PscVerdict(None)


def _hall_scan(p: PreferenceProfile, masks: list[int], x: int, supply: int,
               cap: int) -> tuple[frozenset[int], frozenset[int]]:
    """``FlowResult.cut`` of the flow in which each voter of type t supplies
    ``supply`` to ``masks[t]``, an int mask holding x, and each candidate
    absorbs ``cap``, by one subset-sum pass.  With f(C) the voters whose
    mask lies inside C, its right half is the least C that holds x and
    maximizes supply f(C) - cap |C| when that maximum is positive, and
    empty otherwise.  The objective is supermodular, so its maximizers
    are closed under intersection: the least is their intersection."""
    size = 1 << p.m
    f = [0] * size
    for mask, (_, count) in zip(masks, p.ballot_types()):
        f[mask] += count
    # zeta transform: f[s] becomes the sum over the masks inside s
    for b in range(p.m):
        bit = 1 << b
        for s in range(size):
            if s & bit:
                f[s] += f[s ^ bit]
    gains = {s: supply * f[s] - cap * s.bit_count() for s in range(size) if s >> x & 1}
    best = max(gains.values())
    if best <= 0:
        return frozenset(), frozenset()
    least = reduce(and_, (s for s, gain in gains.items() if gain == best))
    return (frozenset(t for t, mask in enumerate(masks) if mask | least == least),
            frozenset(c for c in range(p.m) if least >> c & 1))


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
        x: p.per_voter([_mask(r[: r.index(x) + 1]) for r, _ in p.ballot_types()])
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


def _mask(cs: Iterable[int]) -> int:
    out = 0
    for c in cs:
        out |= 1 << c
    return out


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
    all other candidates in the reversed profile.  Up to m =
    ``PSC_SCAN_MAX_M`` the subset-sum scan decides that weak PSC, so the
    core's flow meets a second algorithm at every n.

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

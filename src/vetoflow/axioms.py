"""Axiom checkers: veto-core membership, weak proportionality for solid
coalitions, Pareto optimality of matchings, and the auditor tying them together.

A coalition N' can veto v(N') = ceil(m|N'|/n) - 1 candidates.  Candidate c is
vetoed when some coalition jointly ranks at least m - v(N') candidates above
c; c is a core member when no coalition vetoes it.  This is exactly the
failure of the Hall condition on the domination graph of c, which gives the
fast checker; the brute-force checkers here evaluate the quantifiers
directly and exist to keep the fast paths honest.

All threshold comparisons are exact; the strict inequalities are
cross-multiplied into integer arithmetic, never approximated.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

from .matching import (
    FlowNetwork,
    ballot_groups,
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
class VetoWitness:
    """A successful veto: every voter in ``voters`` ranks every candidate of
    ``blocked_by`` strictly above the vetoed candidate, and ``blocked_by``
    is large enough that too few candidates remain below."""

    voters: frozenset[int]
    blocked_by: frozenset[int]

    def validate(self, p: PreferenceProfile, c: int) -> None:
        if not self.voters:
            raise ValueError("empty coalition")
        if c in self.blocked_by:
            raise ValueError("vetoed candidate cannot block itself")
        for r, voters in p.ballot_types_of(self.voters):
            not_above = self.blocked_by.difference(r[:r.index(c)])
            if not_above:
                i = min(self.voters.intersection(voters))
                raise ValueError(f"voter {i} does not rank {min(not_above)} above {c}")
        need = p.m - veto_power(p.n, p.m, len(self.voters))
        if len(self.blocked_by) < need:
            raise ValueError("blocking set is too small for the coalition's veto power")


@dataclass(frozen=True)
class VetoVerdict:
    candidate: int
    witness: VetoWitness | None

    @property
    def member(self) -> bool:
        return self.witness is None


def veto_core_member(p: PreferenceProfile, c: int) -> VetoVerdict:
    """Fast membership check through the domination graph of c.

    Membership is equivalent to the existence of a fractional perfect
    matching; a Hall-type deficiency converts directly into a veto witness,
    since the candidates outside the deficient voters' dominated set are
    ranked above c by every one of them.
    """
    cut = extract_deficiency_witness(p, c)
    if cut is None:
        return VetoVerdict(c, None)
    blocked = frozenset(range(p.m)) - cut.dominated
    witness = VetoWitness(cut.voters, blocked)
    witness.validate(p, c)
    return VetoVerdict(c, witness)


def veto_core(p: PreferenceProfile) -> frozenset[int]:
    return frozenset(c for c in range(p.m) if veto_core_member(p, c).member)


def veto_core_member_bruteforce(p: PreferenceProfile, c: int) -> bool:
    """Direct quantifier evaluation, two independent ways.

    Route one scans all voter subsets and intersects their strictly-above
    sets.  Route two, on very small instances, additionally enumerates all
    (coalition, candidate set) pairs.  The agreed value is returned.
    """
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

    vetoed = False
    for sub in range(1, 1 << p.n):
        common = (1 << p.m) - 1
        size = 0
        for i in range(p.n):
            if sub >> i & 1:
                common &= above_masks[i]
                size += 1
        if common.bit_count() >= p.m - veto_power(p.n, p.m, size):
            vetoed = True
            break

    if p.n <= 4 and p.m <= 4:
        vetoed_pairs = False
        candidates = [x for x in range(p.m) if x != c]
        voters = list(range(p.n))
        for ns in range(1, p.n + 1):
            for coalition in combinations(voters, ns):
                need = p.m - veto_power(p.n, p.m, ns)
                for cs in range(1, p.m):
                    for blocked in combinations(candidates, cs):
                        if len(blocked) < need:
                            continue
                        if all(pos[i][b] < pos[i][c] for i in coalition for b in blocked):
                            vetoed_pairs = True
        if vetoed_pairs != vetoed:
            raise AssertionError("brute-force routes disagree; checker is unsound")
    return not vetoed


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
    committee: frozenset[int]
    violation: PscViolation | None

    @property
    def satisfied(self) -> bool:
        return self.violation is None


def _weak_prefixes(p: PreferenceProfile, x: int) -> list[frozenset[int]]:
    """Each ballot type's candidates down to x."""
    return [frozenset(r[: r.index(x) + 1]) for r, _ in p.ballot_types()]


def _committee(p: PreferenceProfile, committee: Iterable[int]) -> frozenset[int]:
    """The members as a set; each must be a distinct candidate of p."""
    times = Counter(committee)
    if any(c < 0 or c >= p.m for c in times):
        raise ValueError("committee member out of range")
    for c, t in times.items():
        if t > 1:
            raise ValueError(f"committee names candidate {p.candidate_names[c]} twice")
    return frozenset(times)


def weak_psc_satisfied(p: PreferenceProfile, committee: Iterable[int]) -> PscVerdict:
    """Does the committee give every large-enough group one of its claimed
    candidates?

    The committee names k distinct candidates.  A violation is a voter set
    N' and a candidate x outside the committee with |N'| (k+1) > |C'| n,
    where C' is the union of N's weak prefixes down to x.  For each x this
    is a Hall-type feasibility question, solved by max flow with voter
    supply k+1 and candidate capacity n; a scan of the common-prefix solid
    coalitions runs first as a cheap sufficient test.
    """
    W = _committee(p, committee)
    k = len(W)

    def violation_from(voters: frozenset[int], x: int) -> PscViolation:
        union = frozenset().union(*(r[: r.index(x) + 1] for r, _ in p.ballot_types_of(voters)))
        return PscViolation(union, voters, x)

    for sc in solid_coalitions(p):
        outside = sc.candidates - W
        if not outside:
            continue
        if sc.size * (k + 1) > len(sc.candidates) * p.n:
            viol = violation_from(sc.voters, min(outside))
            viol.validate(p, W)
            return PscVerdict(W, viol)

    for x in range(p.m):
        if x in W:
            continue
        groups = ballot_groups(p, _weak_prefixes(p, x))
        net = FlowNetwork(p.m, groups, left_supply=k + 1, right_cap=p.n)
        value, flow = net.solve()
        if value < p.n * (k + 1):
            viol = violation_from(flow.source_side(), x)
            viol.validate(p, W)
            return PscVerdict(W, viol)
    return PscVerdict(W, None)


def weak_psc_bruteforce(p: PreferenceProfile, committee: Iterable[int]) -> bool:
    """Quantify over every voter subset and every uncommitted candidate."""
    if p.n > 10 or p.m > 5:
        raise ValueError("brute force limited to n <= 10, m <= 5")
    W = _committee(p, committee)
    k = len(W)
    prefix_masks = {
        x: p.per_voter([_mask(pref) for pref in _weak_prefixes(p, x)])
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
    returned as a voter -> candidate map.  Voters of one ballot type share
    one edge set, and so one flow node.
    """
    below = [frozenset(r[r.index(c) + 1:]) for r, _ in p.ballot_types()]
    matching = max_bipartite_matching(ballot_groups(p, below))
    if len(matching) < p.m - 1:
        return False, None
    return True, matching


def pareto_improve(p: PreferenceProfile, matching: dict[int, int]) -> dict[int, int]:
    """Turn any matching into a Pareto-optimal one of the same size, with no
    matched voter getting worse.

    Voters are served in index order; each requests their favourite
    still-available candidate.  A request for another waiting voter's
    current candidate makes that owner jump the queue, and request cycles
    trade all at once.
    """
    values = list(matching.values())
    if len(set(values)) != len(values):
        raise ValueError("matching must be injective")
    if any(not 0 <= i < p.n for i in matching) or any(not 0 <= c < p.m for c in values):
        raise ValueError("matching pairs a voter or candidate outside the profile")
    owner = {c: i for i, c in matching.items()}
    queue = deque(sorted(matching))
    assigned: dict[int, int] = {}
    taken: set[int] = set()
    chain: list[int] = []

    def top_of(i: int) -> int:
        for c in p.rankings[i]:
            if c not in taken:
                return c
        raise AssertionError("no candidate left for a waiting voter")

    while queue or chain:
        if not chain:
            i = queue.popleft()
            if i in assigned:
                continue
            chain.append(i)
        i = chain[-1]
        want = top_of(i)
        holder = owner.get(want)
        if holder is not None and holder in assigned:
            # the previous owner was served something else, so this is free
            holder = None
        if holder is None or holder == i:
            assigned[i] = want
            taken.add(want)
            chain.pop()
        elif holder in chain:
            cycle = chain[chain.index(holder):]
            wants = {v: top_of(v) for v in cycle}
            for v in cycle:
                assigned[v] = wants[v]
                taken.add(wants[v])
            del chain[chain.index(holder):]
        else:
            chain.append(holder)
    return assigned


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
        return {
            "instances": self.instances,
            "checks": self.checks,
            "discrepancies": self.discrepancies,
            "expected_pareto_divergences": self.expected_pareto_divergences,
            "empty_core_instances": self.empty_core_instances,
            "ok": self.ok,
        }


def equivalence_audit(instances: Iterable[PreferenceProfile]) -> AuditReport:
    """Check, on every instance and candidate, that three predicates agree:
    fractional-matching existence, brute-force core membership, and weak
    proportionality of the committee of all other candidates in the reversed
    profile.

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
            record = {
                "profile": serialize_profile(p),
                "candidate": p.candidate_names[c],
            }
            try:
                flow = has_fractional_perfect_matching(build_domination_graph(p, c))
                if p.n <= 12 and p.m <= 6:
                    brute = veto_core_member_bruteforce(p, c)
                else:
                    brute = veto_core_member(p, c).member
                committee = frozenset(range(p.m)) - {c}
                psc = weak_psc_satisfied(rev, committee).satisfied
            except Exception as exc:  # the audit reports, it does not raise
                record["error"] = repr(exc)
                report.discrepancies.append(record)
                continue
            if flow:
                members.append(c)
            if not flow == brute == psc:
                record.update(matching=flow, bruteforce=brute, psc=psc)
                report.discrepancies.append(record)
                continue
            criterion, _ = pareto_matching_criterion(p, c)
            if criterion != flow:
                record.update(matching=flow, criterion=criterion)
                if p.n == p.m:
                    report.discrepancies.append(record)
                else:
                    report.expected_pareto_divergences.append(record)
        if not members:
            report.empty_core_instances.append({"profile": serialize_profile(p)})
    return report

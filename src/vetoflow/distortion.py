"""Exact metric distortion of a candidate, with checkable certificates.

The distortion of candidate c is the worst ratio, over all metrics
consistent with the ballots, between c's social cost and the optimum.
Fixing a reference candidate and normalizing its cost to 1 turns each
ratio into a linear objective: maximize the cost of c subject to

* nonnegativity and ballot consistency (a above b means d(i,a) <= d(i,b)),
* quadrangle inequalities d(i,a) <= d(i,b) + d(j,b) + d(j,a),
* the normalization sum_i d(i, cref) <= 1.

Relaxing the normalization from = 1 to <= 1 (Charnes and Cooper) loses
nothing: every other row is homogeneous and the objective nonnegative, so an
optimum below the bound scales up to it.  Every row then holds at the origin.

The LP's variables are gaps, not distances.  For voter i with ranking
r_0 ... r_{m-1}, g[i*m + k] = d(i, r_k) - d(i, r_{k-1}) and g[i*m] = d(i, r_0),
so d(i, r_k) is the prefix sum of g[i*m] ... g[i*m + k].  Nonnegativity and
ballot consistency together are then exactly the LP's own x >= 0, and
the tableau holds no ballot rows; the objective, the normalization and
each quadrangle row become sums over prefixes.  Certificates and rays are
mapped back by exact prefix sums, so callers only ever see distances.

Quadrangle rows are exactly what makes a voter-candidate matrix extendable
to a pseudometric on all points; ``extend_to_full_pseudometric`` performs
that extension so the claim is machine-checked rather than trusted.  The
distortion is the maximum over reference candidates; an unbounded LP means
the reference can have cost arbitrarily close to zero while c stays far,
reported as infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .lp import LinearConstraint, LinearProgram, solve_lp
from .profiles import PreferenceProfile
from .profile_io import DistanceMatrix

INFINITE = math.inf


class LpSizeError(ValueError):
    """The instance exceeds the configured LP size cap."""


@dataclass(frozen=True)
class DistortionResult:
    """``value`` is a rational, or infinity when some reference LP is
    unbounded.  ``certificate`` attains the value against ``reference``; for
    an infinite value ``ray`` is the improving direction instead, as n * m
    distances with d(i, a) at index i*m + a."""

    candidate: int
    value: Fraction | float
    reference: int | None
    certificate: DistanceMatrix | None
    ray: tuple[Fraction, ...] | None


def _distances(vector: Sequence, p: PreferenceProfile) -> list[list]:
    """Gap coordinates back to distances, exactly: d(i, a) is the sum of
    vector[i*m + l] over l <= pos_i(a)."""
    m = p.m
    out = []
    for i, pos in enumerate(p.positions()):
        prefix = list(accumulate(vector[i * m:(i + 1) * m]))
        out.append([prefix[k] for k in pos])
    return out


def _cost_row(p: PreferenceProfile, a: int) -> dict[int, int]:
    """The gap coefficients of sum_i d(i, a): 1 on each voter's gaps up to
    pos_i(a)."""
    m = p.m
    return {i * m + l: 1 for i, pos in enumerate(p.positions()) for l in range(pos[a] + 1)}


class _Quadrangles:
    """The quadrangle rows d(i,a) - d(i,b) - d(j,b) - d(j,a) <= 0 in gap
    coordinates, for voters i != j and candidates with pos_i(a) > pos_i(b),
    keyed (i, j, a, b) and found by separation.  The other (i, j, a, b)
    have no positive coefficient and only restate g >= 0.

    At an integer vector the scan works on its distances, the prefix sums
    of each voter's gaps.  The row (i, j, a, b) has excess u_a - v_b with
    u_a = d_ia - d_ja and v_b = d_ib + d_jb.  For a fixed a its best row
    takes the least v_b over the b that voter i ranks above a, so one walk
    down voter i's ranking, carrying that running minimum, finds the pair's
    most violated row in O(m).

    Before the walk, a cheaper bound drops most pairs.  For any vector the
    excess is (d_ia - d_ib) - (d_ja + d_jb) <= spread_i - 2 min_j, with
    spread_i = max_a d_ia - min_a d_ia and min_j = min_a d_ja.  Voter i's
    scan therefore visits the voters j in ascending order of 2 min_j and
    stops at the first with 2 min_j >= spread_i; every voter it skips
    offers no row.

    Each ordered pair (i, j) offers only its most violated row, ties to
    the smallest (a, b), and the offered rows come most violated first,
    ties to the smallest key.  A pair's rows share most of their cells,
    so once its worst row is active the others rarely still bind; those
    that do are offered in a later round."""

    def __init__(self, p: PreferenceProfile) -> None:
        self.p = p

    def violated(self, vector: Sequence[int]) -> list[LinearConstraint]:
        cells = _distances(vector, self.p)
        floors = sorted((2 * min(xj), j) for j, xj in enumerate(cells))
        worst = []
        for i, xi in enumerate(cells):
            ranking = self.p.rankings[i]
            spread = max(xi) - min(xi)
            for floor, j in floors:
                if floor >= spread:
                    break
                if i == j:
                    continue
                xj = cells[j]
                # (b, vb) is the least v_b above a, ties to the smallest b
                best, key = 0, None
                b = ranking[0]
                vb = xi[b] + xj[b]
                for a in ranking[1:]:
                    e = xi[a] - xj[a] - vb
                    if e > best or e == best > 0 and (a, b) < key:
                        best, key = e, (a, b)
                    va = xi[a] + xj[a]
                    if va < vb or va == vb and a < b:
                        b, vb = a, va
                if key is not None:
                    worst.append((-best, (i, j, *key)))
        worst.sort()
        return [self._row(*key) for _, key in worst]

    def _row(self, i: int, j: int, a: int, b: int) -> LinearConstraint:
        """+1 on voter i's gaps between b and a, -1 on voter j's gaps up to
        a and again up to b, so -2 on their common prefix."""
        m = self.p.m
        positions = self.p.positions()
        pi, pj = positions[i], positions[j]
        lo, hi = sorted((pj[a], pj[b]))
        coeffs = {i * m + l: 1 for l in range(pi[b] + 1, pi[a] + 1)}
        coeffs.update({j * m + l: -2 if l <= lo else -1 for l in range(hi + 1)})
        return LinearConstraint(coeffs, 0)


def build_lp(p: PreferenceProfile, c: int, cref: int) -> LinearProgram:
    """The LP whose optimum is the worst cost ratio of c against cref, over
    the gap variables: the normalization row explicitly, the quadrangle
    rows as an implicit family, and ballot order as x >= 0."""
    objective = [0] * (p.n * p.m)
    for var in _cost_row(p, c):
        objective[var] = 1
    normalization = LinearConstraint(_cost_row(p, cref), 1)
    return LinearProgram(tuple(objective), (normalization,), _Quadrangles(p))


def closure_metric(p: PreferenceProfile, c: int, cref: int) -> DistanceMatrix | None:
    """The closed form of c against cref (see ``distortion_of_candidate``),
    or None when the closure reaches c: for s > 0 a certificate of value
    2n/s - 1, for s = 0 a ray."""
    fans = [pos[cref] < pos[c] for pos in p.positions()]
    rankings = {r for r, fan in zip(p.rankings, fans) if fan}
    zone = {cref}
    size = 0
    while size < len(zone):
        size = len(zone)
        for ranking in rankings:
            zone.update(ranking[:max(map(ranking.index, zone))])
        if c in zone:
            return None
    s = fans.count(False)
    # with s = 0 every voter is in F and the rows scale to 0 and 1
    far = Fraction(2, s) if s else Fraction(1)
    fan_row = tuple(Fraction(0) if a in zone else far for a in range(p.m))
    near_row = (far / 2,) * p.m
    return DistanceMatrix(tuple(fan_row if fan else near_row for fan in fans))


def distortion_of_candidate(
    p: PreferenceProfile, c: int, size_cap: int = 100
) -> DistortionResult:
    """Maximize over reference candidates; m = 1 has distortion 1 by
    convention (the ratio space is empty).  The value and reference are
    those of solving every reference in index order, keeping the first
    largest value and returning at the first unbounded LP; two rules leave
    most references unsolved, and a closed form decides most of the rest.

    Dominance.  A reference r' is skipped when some reference r < r',
    r != c, is ranked above r' by every voter.  Then d(i, r) <= d(i, r') in
    every consistent metric, so the LP against r admits every point and
    every ray of the LP against r' with the same objective: its value is at
    least as large, and it is unbounded whenever the LP against r' is.  So
    r' is neither the index loop's first maximizing reference nor its
    first unbounded one.  A reference that only c dominates is kept; its
    value is exactly 1.

    Bound.  Let S_r be the voters who rank c above r and s = |S_r| > 0.
    For j in S_r, d(j, c) <= d(j, r), so the quadrangle row (i, j, c, r)
    gives d(i, c) <= d(i, r) + 2 d(j, r).  Averaged over j in S_r for each
    voter i outside S_r, and with d(i, c) <= d(i, r) for i in S_r, that
    sums to SC(c) <= SC(r) (1 + 2 (n - s) / s), so the LP against r has
    value at most B_r = 2n/s - 1 (Anshelevich, Bhardwaj and Postl 2015; one
    feasible dual of the LP).  Only a reference with s = 0 can be
    unbounded.

    Order.  References are solved by (s, r): those with s = 0 first in
    index order, then by descending B_r, ties by index.  The first
    unbounded reference in index order has s = 0 and no dominator before
    it (that one would be unbounded too, with s = 0 and a smaller index),
    so it is still the first reference found unbounded, and the closure
    returns its ray (see Closure).
    Once an incumbent exists, a reference with B_r < best.value, or
    B_r == best.value and r > best.reference, cannot replace it; every
    later reference has a smaller B_r, or an equal B_r and a larger index,
    so the loop stops there.  An incumbent is replaced by a larger value,
    or an equal one at a smaller reference, so the first maximizing
    reference of the index loop is reported.  A solved LP that is
    unbounded, or whose value is above B_r or below 1, raises
    ``RuntimeError``.

    Closure.  Before its LP, a reference is tried in closed form.  Let F
    be the voters who rank r above c, so s = n - |F|, and Z the least set
    that holds r and every candidate some voter of F ranks above a member
    of Z.  If c is not in Z, d(i, a) = 0 for i in F and a in Z, 2/s for i
    in F and a not in Z, and 1/s for i outside F is a consistent metric.
    A row of F is 0 on a set closed upwards in its ballot.  In a
    quadrangle d(i, a) <= d(i, b) + d(j, b) + d(j, a), either j is outside
    F and d(j, b) + d(j, a) = 2/s is the largest cell, or i and j are both
    in F and d(j, a) = d(i, a), or i is outside F and d(i, b) = d(i, a).
    The metric costs 1 at r and 2(n - s)/s + 1 = B_r at c, so it meets
    the bound: the LP's value is B_r and none is solved.  For s = 0 the
    same matrix with 1 in place of 2/s costs 0 at r and n at c, so the LP
    is unbounded and the matrix is its ray.  Conversely, for s = 0 and c in
    Z the LP is bounded: a ray costs 0 at r, so d(i, r) = 0 for every i,
    and a voter of F who ranks b above a zero column a has d(i, b) = 0, so
    d(j, b) <= d(j, a) + d(i, a) + d(i, b) = 0 for every j; the columns of
    Z are all 0 and the ray costs 0 at c too.  So rays come only from the
    closure.  The LP still solves every reference the closure leaves open,
    so values and references are those of the index loop; certificates
    are the closed form's wherever it decides the reported reference, else
    the LP's."""
    p.check_candidate(c)
    if p.m == 1:
        return DistortionResult(c, Fraction(1), None, None, None)
    if p.n * p.m > size_cap:
        raise LpSizeError(
            f"instance has {p.n * p.m} LP variables, cap is {size_cap}"
        )
    positions = p.positions()
    above = {r: sum(pos[c] < pos[r] for pos in positions) for r in range(p.m) if r != c}
    best: DistortionResult | None = None
    for cref in sorted(above, key=lambda r: (above[r], r)):
        bound = Fraction(2 * p.n, above[cref]) - 1 if above[cref] else None
        if best is not None and bound is not None and (
            bound < best.value or bound == best.value and cref > best.reference
        ):
            break
        if any(r != c and all(pos[r] < pos[cref] for pos in positions) for r in range(cref)):
            continue
        closed = closure_metric(p, c, cref)
        if closed is not None:
            if bound is None:
                return DistortionResult(c, INFINITE, cref, None, sum(closed.values, ()))
            # value B_r, which the early stop above let through: it beats best
            best = DistortionResult(c, bound, cref, closed, None)
            continue
        sol = solve_lp(build_lp(p, c, cref))
        if sol.status != "optimal":
            raise RuntimeError(
                f"LP against reference {cref} is {sol.status}; 2n/s - 1 bounds "
                f"it, or for s = 0 the closure of {{{cref}}} reaching candidate {c}"
            )
        if sol.value < 1:
            raise RuntimeError(
                f"LP value {sol.value} against reference {cref} is below 1, "
                "which the uniform distances already achieve"
            )
        if bound is not None and sol.value > bound:
            raise RuntimeError(
                f"LP value {sol.value} against reference {cref} exceeds "
                f"2n/s - 1 = {bound}, with s = {above[cref]} voters ranking "
                f"candidate {c} above it"
            )
        if best is None or (sol.value, -cref) > (best.value, -best.reference):
            matrix = DistanceMatrix(tuple(map(tuple, _distances(sol.x, p))))
            best = DistortionResult(c, sol.value, cref, matrix, None)
    return best


def verify_certificate(p: PreferenceProfile, result: DistortionResult) -> bool:
    """Re-check a result from scratch.  Shares no code with the solver.

    A finite value needs a certificate that passes the matrix invariants,
    costs 1 at the reference and the value at the candidate.  An infinite
    value needs a ray that, read as a distance matrix, passes the same
    invariants, costs 0 at the reference and more than 0 at the candidate:
    every invariant is homogeneous, so adding any multiple of it to the
    uniform distances keeps a consistent metric whose reference cost stays
    put while the candidate's grows without bound."""
    if p.m == 1:
        return result.value == 1 and result.certificate is None
    if result.reference is None or result.reference == result.candidate:
        return False
    # a negative index would wrap around to another candidate's column
    if not (0 <= result.candidate < p.m and 0 <= result.reference < p.m):
        return False
    if result.value == INFINITE:
        ray = result.ray
        if ray is None or len(ray) != p.n * p.m:
            return False
        dm = DistanceMatrix(tuple(tuple(ray[i * p.m:(i + 1) * p.m]) for i in range(p.n)))
    else:
        dm = result.certificate
        if dm is None:
            return False
    if dm.check(p):
        return False
    ref_cost, cand_cost = dm.cost(result.reference), dm.cost(result.candidate)
    if result.value == INFINITE:
        return ref_cost == 0 and cand_cost > 0
    return ref_cost == 1 and cand_cost == result.value


def extend_to_full_pseudometric(
    dm: DistanceMatrix, p: PreferenceProfile
) -> tuple[tuple[Fraction, ...], ...]:
    """Extend to all point pairs, voters first then candidates.

    Voter-voter distance is the cheapest connecting candidate, candidate-
    candidate the cheapest connecting voter.  The result satisfies every
    triangle inequality exactly when the input satisfies the quadrangle
    rows, which is what justifies using them in the LP.
    """
    dm.validate(p)
    n, m = p.n, p.m
    den, d = dm.numerators()
    size = n + m
    full = [[Fraction(0)] * size for _ in range(size)]
    for i in range(n):
        for a in range(m):
            full[i][n + a] = full[n + a][i] = dm.values[i][a]
    for i in range(n):
        for j in range(n):
            if i != j:
                full[i][j] = Fraction(min(x + y for x, y in zip(d[i], d[j])), den)
    columns = list(zip(*d))
    for a in range(m):
        for b in range(m):
            if a != b:
                full[n + a][n + b] = Fraction(
                    min(x + y for x, y in zip(columns[a], columns[b])), den
                )
    return tuple(tuple(row) for row in full)

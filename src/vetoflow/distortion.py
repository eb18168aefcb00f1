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
from .profile_io import format_rational

INFINITE = math.inf


class LpSizeError(ValueError):
    """The instance exceeds the configured LP size cap."""


@dataclass(frozen=True)
class DistanceMatrix:
    """Voter-candidate distances claimed to extend to a metric."""

    values: tuple[tuple[Fraction, ...], ...]

    def to_text(self) -> str:
        return "\n".join(
            " ".join(format_rational(v) for v in row) for row in self.values
        ) + "\n"

    def check(self, p: PreferenceProfile) -> list[str]:
        """All invariant violations, as human-readable strings; the checks
        compare integer numerators over one common denominator."""
        bad: list[str] = []
        if len(self.values) != p.n or any(len(r) != p.m for r in self.values):
            return ["matrix shape is not voters x candidates"]
        den = math.lcm(*[v.denominator for row in self.values for v in row])
        d = [[v.numerator * (den // v.denominator) for v in row] for row in self.values]
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
        for i in range(p.n):
            for j in range(p.n):
                for a in range(p.m):
                    for b in range(p.m):
                        if d[i][a] > d[i][b] + d[j][b] + d[j][a]:
                            bad.append(f"quadrangle violated at ({i},{j},{a},{b})")
        return bad

    def validate(self, p: PreferenceProfile) -> None:
        bad = self.check(p)
        if bad:
            raise ValueError("; ".join(bad[:3]))


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
    u_a = d_ia - d_ja and v_b = d_ib + d_jb, so a pair with max u <= min v
    violates none of its rows.  For a nonnegative vector that test is
    exact: u_a - v_a = -2 d_ja is never positive, and u_a > v_b forces
    d_ia > d_ib, hence pos_i(a) > pos_i(b)."""

    def __init__(self, p: PreferenceProfile) -> None:
        self.p = p

    def violated(self, vector: Sequence[int]) -> list[tuple[int, tuple[int, int, int, int]]]:
        cells = _distances(vector, self.p)
        positions = self.p.positions()
        out = []
        for i, xi in enumerate(cells):
            pos = positions[i]
            for j, xj in enumerate(cells):
                if i == j:
                    continue
                u = [x - y for x, y in zip(xi, xj)]
                v = [x + y for x, y in zip(xi, xj)]
                if max(u) <= min(v):
                    continue
                for a, ua in enumerate(u):
                    for b, vb in enumerate(v):
                        if ua > vb and pos[a] > pos[b]:
                            out.append((vb - ua, (i, j, a, b)))
        return out

    def row(self, key: tuple[int, int, int, int]) -> LinearConstraint:
        """+1 on voter i's gaps between b and a, -1 on voter j's gaps up to
        a and again up to b, so -2 on their common prefix."""
        i, j, a, b = key
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
    return LinearProgram(p.n * p.m, tuple(objective), (normalization,), _Quadrangles(p))


def distortion_of_candidate(
    p: PreferenceProfile, c: int, size_cap: int = 100
) -> DistortionResult:
    """Maximize over reference candidates; m = 1 has distortion 1 by
    convention (the ratio space is empty)."""
    if not 0 <= c < p.m:
        raise ValueError(f"candidate {c} is not in 0..{p.m - 1}")
    if p.m == 1:
        return DistortionResult(c, Fraction(1), None, None, None)
    if p.n * p.m > size_cap:
        raise LpSizeError(
            f"instance has {p.n * p.m} LP variables, cap is {size_cap}"
        )
    best: DistortionResult | None = None
    for cref in range(p.m):
        if cref == c:
            continue
        sol = solve_lp(build_lp(p, c, cref))
        if sol.status == "unbounded":
            ray = tuple(v for row in _distances(sol.ray, p) for v in row)
            return DistortionResult(c, INFINITE, cref, None, ray)
        if sol.value < 1:
            raise RuntimeError(
                f"LP value {sol.value} against reference {cref} is below 1, "
                "which the uniform distances already achieve"
            )
        if best is None or sol.value > best.value:
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
    ref_cost = sum((row[result.reference] for row in dm.values), Fraction(0))
    cand_cost = sum((row[result.candidate] for row in dm.values), Fraction(0))
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
    d = dm.values
    size = n + m
    full = [[Fraction(0)] * size for _ in range(size)]
    for i in range(n):
        for a in range(m):
            full[i][n + a] = full[n + a][i] = d[i][a]
    for i in range(n):
        for j in range(n):
            if i != j:
                full[i][j] = min(d[i][a] + d[j][a] for a in range(m))
    for a in range(m):
        for b in range(m):
            if a != b:
                full[n + a][n + b] = min(d[i][a] + d[i][b] for i in range(n))
    return tuple(tuple(row) for row in full)

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

Quadrangle rows are exactly what makes a voter-candidate matrix extendable
to a pseudometric on all points; ``extend_to_full_pseudometric`` performs
that extension so the claim is machine-checked rather than trusted.  The
distortion is the maximum over reference candidates; an unbounded LP means
the reference can have cost arbitrarily close to zero while c stays far,
reported as infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
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
    an infinite value ``ray`` is the improving direction instead."""

    candidate: int
    value: Fraction | float
    reference: int | None
    certificate: DistanceMatrix | None
    ray: tuple[Fraction, ...] | None


def _var(i: int, a: int, m: int) -> int:
    return i * m + a


class _Quadrangles:
    """The quadrangle rows d(i,a) - d(i,b) - d(j,b) - d(j,a) <= 0 for voters
    i != j and candidates a != b, keyed (i, j, a, b) and found by
    separation; the other (i, j, a, b) only restate d >= 0.

    At an integer vector x, the row (i, j, a, b) has excess u_a - v_b with
    u_a = x_ia - x_ja and v_b = x_ib + x_jb, so a pair with max u <= min v
    violates none of its rows.  For a nonnegative point that test is exact:
    u_a - v_a = -2 x_ja is never positive, so max u > min v means a
    violated row with a != b."""

    def __init__(self, n: int, m: int) -> None:
        self.n = n
        self.m = m

    def violated(self, vector: Sequence[int]) -> list[tuple[int, tuple[int, int, int, int]]]:
        m = self.m
        cells = [vector[i * m:(i + 1) * m] for i in range(self.n)]
        out = []
        for i, xi in enumerate(cells):
            for j, xj in enumerate(cells):
                if i == j:
                    continue
                u = [p - q for p, q in zip(xi, xj)]
                v = [p + q for p, q in zip(xi, xj)]
                if max(u) <= min(v):
                    continue
                for a, ua in enumerate(u):
                    for b, vb in enumerate(v):
                        if ua > vb and a != b:
                            out.append((vb - ua, (i, j, a, b)))
        return out

    def row(self, key: tuple[int, int, int, int]) -> LinearConstraint:
        i, j, a, b = key
        m = self.m
        return LinearConstraint(
            {_var(i, a, m): 1, _var(i, b, m): -1, _var(j, b, m): -1, _var(j, a, m): -1}, 0
        )


def build_lp(p: PreferenceProfile, c: int, cref: int) -> LinearProgram:
    """The LP whose optimum is the worst cost ratio of c against cref: the
    ballot rows and the normalization row explicitly, the quadrangle rows
    as an implicit family."""
    n, m = p.n, p.m
    rows: list[LinearConstraint] = []
    for i, ranking in enumerate(p.rankings):
        for a, b in zip(ranking, ranking[1:]):
            rows.append(LinearConstraint({_var(i, a, m): 1, _var(i, b, m): -1}, 0))
    rows.append(_normalization(p, cref))
    objective = [0] * (n * m)
    for i in range(n):
        objective[_var(i, c, m)] = 1
    return LinearProgram(n * m, tuple(objective), tuple(rows), _Quadrangles(n, m))


def _normalization(p: PreferenceProfile, cref: int) -> LinearConstraint:
    """sum_i d(i, cref) <= 1, the last row of ``build_lp``."""
    return LinearConstraint({_var(i, cref, p.m): 1 for i in range(p.n)}, 1)


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
    lp: LinearProgram | None = None
    for cref in range(p.m):
        if cref == c:
            continue
        # only the normalization row depends on the reference
        if lp is None:
            lp = build_lp(p, c, cref)
        else:
            lp = replace(lp, constraints=lp.constraints[:-1] + (_normalization(p, cref),))
        sol = solve_lp(lp)
        if sol.status == "unbounded":
            return DistortionResult(c, INFINITE, cref, None, sol.ray)
        if sol.value < 1:
            raise RuntimeError(
                f"LP value {sol.value} against reference {cref} is below 1, "
                "which the uniform distances already achieve"
            )
        if best is None or sol.value > best.value:
            matrix = DistanceMatrix(tuple([sol.x[i * p.m:(i + 1) * p.m] for i in range(p.n)]))
            best = DistortionResult(c, sol.value, cref, matrix, None)
    return best


def verify_certificate(p: PreferenceProfile, result: DistortionResult) -> bool:
    """Re-check a finite result from scratch: matrix invariants plus the two
    sums.  Shares no code with the solver."""
    if result.value == INFINITE:
        raise ValueError("only finite results carry a checkable certificate")
    if p.m == 1:
        return result.value == 1 and result.certificate is None
    dm = result.certificate
    if dm is None or result.reference is None or result.reference == result.candidate:
        return False
    # a negative index would wrap around to another candidate's column
    if not (0 <= result.candidate < p.m and 0 <= result.reference < p.m):
        return False
    if dm.check(p):
        return False
    ref_cost = sum((row[result.reference] for row in dm.values), Fraction(0))
    cand_cost = sum((row[result.candidate] for row in dm.values), Fraction(0))
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

"""An exact rational LP solver, sized for the distortion computations.

Maximization over nonnegative variables subject to sparse rows
coeffs . x <= rhs with rhs >= 0, so the origin is always feasible and the
sparse tableau simplex starts from the slack basis without a phase 1.
Pivoting starts with the largest-reduced-cost rule and switches to Bland's
rule after a run of pivots, primal or dual, that leave the objective value
unchanged, until a row is added; so termination is guaranteed while typical
instances stay fast.

Every explicit constraint is active from the start.  A program may also
carry an implicit row family that is too large to store (quadrangle rows
grow as n^2 m^2) and finds violated rows by separation instead; those
rows are activated lazily: solve with the active set, then activate every
row the family offers and repeat.  The family need not offer every
violated row, only some whenever any is violated, so an optimum it offers
nothing against is globally optimal.  An unbounded ray is only trusted
once the family offers no blocker; the family must hold at the origin,
which keeps the full system feasible.

Integer rows in, Fractions out: rows, the objective and family rows carry
Python ints, and only the solution's value, point and ray are Fractions.
Inside, every tableau row is a sparse map from column to int over one
positive denominator, so pivots touch only the few nonzero cells of a row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Protocol, Sequence

# Key of the right-hand side in a sparse row; every other key is a column.
# A point vector with -denominator in its last cell therefore evaluates
# coeffs . x - rhs of a row in one sum over the row's items.
_RHS = -1

# A sparse row {column: numerator, _RHS: numerator} over a positive
# denominator; zero cells are never stored.
_Row = dict[int, int]


@dataclass(frozen=True)
class LinearConstraint:
    """Sparse integer row: sum of coeffs[j] * x[j] <= rhs, with rhs >= 0."""

    coeffs: dict[int, int]
    rhs: int

    def __post_init__(self) -> None:
        if any(type(v) is not int for v in (*self.coeffs.values(), self.rhs)):
            raise TypeError(f"row cells must be ints: {self.coeffs} <= {self.rhs!r}")
        if self.rhs < 0:
            raise ValueError(f"negative right-hand side {self.rhs}; the origin must be feasible")


def _cells(row: LinearConstraint) -> _Row:
    """The tableau row of a constraint, over denominator 1."""
    cells = {j: c for j, c in row.coeffs.items() if c}
    if row.rhs:
        cells[_RHS] = row.rhs
    return cells


def _check_columns(row: LinearConstraint, num_vars: int) -> None:
    if any(j < 0 or j >= num_vars for j in row.coeffs):
        raise ValueError("constraint touches an unknown variable")


class RowFamily(Protocol):
    """Integer rows found by separation instead of stored; every one must
    hold at the origin.

    A vector is an integer point or direction with one extra cell last:
    minus the denominator for a point, 0 for a direction.  The excess of a
    row at a vector is coeffs . vector + rhs * (last cell), an int.

    A family offers some rows with positive excess whenever any row has
    one, and none otherwise; it may hold the others back.  The solver
    activates every offered row, in the family's order.  Rows active in
    the solver hold at its optima and never block its rays, so a row
    offered without a positive excess is an error, and every round
    activates new rows."""

    def violated(self, vector: Sequence[int]) -> list[LinearConstraint]:
        """Offered rows, each with positive excess, in an order the family
        fixes; empty exactly when no row has positive excess."""


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective . x  subject to the constraints, the rows of the
    implicit family, and x >= 0; ``num_vars`` is the objective's length."""

    objective: tuple[int, ...]
    constraints: tuple[LinearConstraint, ...]
    implicit: RowFamily | None = None

    def __post_init__(self) -> None:
        if any(type(v) is not int for v in self.objective):
            raise TypeError(f"objective cells must be ints: {self.objective}")
        for row in self.constraints:
            _check_columns(row, self.num_vars)

    @property
    def num_vars(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "unbounded"
    value: Fraction | None
    x: tuple[Fraction, ...] | None
    ray: tuple[Fraction, ...] | None


_DEGENERATE_STREAK_LIMIT = 40


def _eliminate(row: _Row, den: int, prow: _Row, pden: int, col: int) -> tuple[_Row, int]:
    """row/den - (row[col]/den) * prow/pden as (numerators, denominator).

    prow[col] == pden, i.e. the pivot row's cell at col is 1, so the result
    has no entry at col."""
    f, rem = divmod(row[col], pden)
    if rem:
        # row[col] / pden is not an integer: bring both rows to den * pden
        f = row[col]
        new = {j: v * pden for j, v in row.items()}
        den *= pden
    else:
        new = row.copy()
    get = new.get
    for j, v in prow.items():
        w = get(j, 0) - f * v
        if w:
            new[j] = w
        else:
            del new[j]
    if rem:
        g = gcd(den, *new.values())
        if g != 1:
            den //= g
            new = {j: v // g for j, v in new.items()}
    return new, den


class _Simplex:
    """Sparse tableau over the active rows; columns are the original variables,
    one per objective cell, followed by one slack per row, in row order.

    Row r holds tab[r] / den[r] and the objective row obj / obj_den, with
    the (negated) objective value under _RHS.  Each basic column is 1 in
    its own row and absent from every other row; where maps each basic
    column to that row.  Every right-hand side is nonnegative, so the
    slack basis is feasible from the start.

    streak counts the pivots in a row, primal or dual, that leave the
    objective value unchanged; once it passes _DEGENERATE_STREAK_LIMIT,
    bland switches both phases to Bland's rule until a row is added."""

    def __init__(self, rows: list[_Row], objective: Sequence[int]) -> None:
        self.bland = False
        self.streak = 0
        self.total = len(objective)
        self.tab: list[_Row] = []
        self.den: list[int] = []
        self.basis: list[int] = []
        self.where: dict[int, int] = {}
        # no slack is in the objective, so the slack basis needs no pricing
        self.obj: _Row = {j: v for j, v in enumerate(objective) if v}
        self.obj_den = 1
        for row in rows:
            self._append(row, 1)

    def _append(self, row: _Row, den: int) -> None:
        """Add a row whose basic columns are already priced out, with its
        slack basic."""
        self.tab.append({**row, self.total: den})
        self.den.append(den)
        self.where[self.total] = len(self.basis)
        self.basis.append(self.total)
        self.total += 1

    def _pivot(self, r: int, c: int) -> None:
        prow = self.tab[r]
        p = prow[c]
        if p < 0:
            prow = {j: -v for j, v in prow.items()}
            p = -p
        g = gcd(*prow.values())
        if g != 1:
            prow = {j: v // g for j, v in prow.items()}
            p //= g
        self.tab[r] = prow
        self.den[r] = p
        tab, den = self.tab, self.den
        for i, row in enumerate(tab):
            if i != r and c in row:
                tab[i], den[i] = _eliminate(row, den[i], prow, p, c)
        # the objective value moves by obj[c] * rhs / p, so a primal pivot on
        # a zero rhs or a dual pivot on a zero reduced cost leaves it put
        if c in self.obj and _RHS in prow:
            self.streak = 0
        else:
            self.streak += 1
            self.bland = self.bland or self.streak > _DEGENERATE_STREAK_LIMIT
        if c in self.obj:
            self.obj, self.obj_den = _eliminate(self.obj, self.obj_den, prow, p, c)
        del self.where[self.basis[r]]
        self.where[c] = r
        self.basis[r] = c

    def _priced(self, row: _Row) -> tuple[_Row, int]:
        """An integer row with its basic columns eliminated, over its
        denominator.  A pivot row holds no other basic column, so the row's
        own basic cells, in row order, are all there is to eliminate; one
        left over is a fault and raises."""
        den = 1
        where = self.where
        for r in sorted([where[j] for j in row if j in where]):
            row, den = _eliminate(row, den, self.tab[r], self.den[r], self.basis[r])
        if not where.keys().isdisjoint(row):
            raise RuntimeError("a priced row still holds a basic column")
        return row, den

    def _choose_entering(self) -> int | None:
        """Largest reduced cost, ties to the smallest column; in Bland mode
        the smallest column with a positive reduced cost."""
        best = None
        best_val = 0
        for j, v in self.obj.items():
            if v > 0 and j != _RHS:
                if self.bland:
                    if best is None or j < best:
                        best = j
                elif v > best_val or (v == best_val and j < best):
                    best, best_val = j, v
        return best

    def _ratio_row(self, col: int) -> int | None:
        """Minimum ratio rhs / a over rows with a > 0, ties to the smaller
        basic column.  Row denominators cancel, so ratios compare as
        numerator fractions by cross-multiplication."""
        basis = self.basis
        best = None
        best_b = best_a = 0
        for r, row in enumerate(self.tab):
            a = row.get(col, 0)
            if a > 0:
                b = row.get(_RHS, 0)
                if best is None:
                    best, best_b, best_a = r, b, a
                    continue
                lhs, rhs = b * best_a, best_b * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[best]):
                    best, best_b, best_a = r, b, a
        return best

    def primal(self) -> int | None:
        """Pivot to optimality; returns the entering column on unboundedness."""
        while True:
            col = self._choose_entering()
            if col is None:
                return None
            row = self._ratio_row(col)
            if row is None:
                return col
            self._pivot(row, col)

    def objective_value(self) -> Fraction:
        return Fraction(-self.obj.get(_RHS, 0), self.obj_den)

    def column(self, key: int, limit: int) -> tuple[list[int], int]:
        """Cells tab[r][key] of the rows whose basic column is below limit,
        placed at that column, as integers over one common denominator."""
        basic = [(bv, r) for r, bv in enumerate(self.basis) if bv < limit and key in self.tab[r]]
        common = lcm(*[self.den[r] for _, r in basic])
        out = [0] * limit
        for bv, r in basic:
            out[bv] = self.tab[r][key] * (common // self.den[r])
        return out, common

    def add_row(self, row: _Row) -> None:
        """Append an integer row, priced against the current basis, with its
        slack basic.  The slack may come out negative; dual_restore fixes it.
        Only a fixed set of rows can cycle, so a new row ends Bland mode."""
        self._append(*self._priced(row))
        self.streak = 0
        self.bland = False

    def has_negative_rhs(self) -> bool:
        return any(row.get(_RHS, 0) < 0 for row in self.tab)

    def dual_restore(self) -> None:
        """Dual simplex: assumes reduced costs are optimal (obj entries <= 0)
        and pivots until every basic value is nonnegative again.

        Leaving row: most negative basic value, or smallest basic index in
        Bland mode.  Entering column: minimum dual ratio, ties to the
        smallest index; the ratio test is never relaxed, Bland mode only
        changes tie-breaking, so dual feasibility is preserved throughout.
        """
        tab, den = self.tab, self.den
        while True:
            r = None
            if self.bland:
                for i, row in enumerate(tab):
                    if row.get(_RHS, 0) < 0 and (r is None or self.basis[i] < self.basis[r]):
                        r = i
            else:
                worst, worst_den = 0, 1
                for i, row in enumerate(tab):
                    b = row.get(_RHS, 0)
                    if b < 0 and b * worst_den < worst * den[i]:
                        r, worst, worst_den = i, b, den[i]
            if r is None:
                return
            # ratio obj[j] / row[j] over cells a < 0; the two denominators
            # are the same for every j, so compare o / a by cross-multiplying
            # (a * best_a > 0)
            obj = self.obj
            col = None
            best_o = best_a = 0
            for j, a in tab[r].items():
                if a < 0 and j != _RHS:
                    o = obj.get(j, 0)
                    if col is None:
                        col, best_o, best_a = j, o, a
                        continue
                    lhs, rhs = o * best_a, best_o * a
                    if lhs < rhs or (lhs == rhs and j < col):
                        col, best_o, best_a = j, o, a
            if col is None:
                raise AssertionError("cut made the LP infeasible; rows are inconsistent")
            self._pivot(r, col)


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve with lazy constraint activation: integer rows in, Fractions out.

    Every explicit constraint starts active; only the rows of
    ``lp.implicit`` are inactive.  After each solve every row the family
    offers is added, and the loop ends at an optimum against which the
    family offers nothing; since it offers a row whenever one is violated,
    that optimum is global.  An unbounded result is only returned when the
    family offers no blocker of the ray; the origin satisfies every row,
    so the full system is feasible and the ray proves it unbounded.

    Each solve from scratch starts at the origin, in the slack basis.

    Active rows hold at every optimum of the active set and never block
    its rays, so an offered row that holds raises instead of being
    activated.  Every round activates new rows, and the loop ends.
    """
    n = lp.num_vars
    family = lp.implicit
    if family is not None and family.violated([0] * n + [-1]):
        raise ValueError("an implicit row is violated at the origin")
    active = [_cells(r) for r in lp.constraints]

    def activate(vector: list[int]) -> bool:
        """Activate the rows the family offers at a vector; False if none."""
        rows = [] if family is None else family.violated(vector)
        for row in rows:
            _check_columns(row, n)
            cells = _cells(row)
            # the row's excess: _RHS picks the vector's last cell
            if sum([v * vector[j] for j, v in cells.items()]) <= 0:
                raise RuntimeError(f"offered {row} holds, as an active row does")
            active.append(cells)
            simplex.add_row(cells)
        return bool(rows)

    simplex = _Simplex(active, lp.objective)
    while True:
        col = simplex.primal()

        if col is None:
            point, den = simplex.column(_RHS, n)
            point.append(-den)
            if not activate(point):
                x = tuple([Fraction(v, den) for v in point[:n]])
                return LpSolution("optimal", simplex.objective_value(), x, None)
            # the basis stays dual feasible at an optimum, so new rows are
            # absorbed by dual pivots instead of a solve from scratch
            simplex.dual_restore()
            continue

        drift, den = simplex.column(col, n)
        drift = [-v for v in drift]
        if col < n:
            drift[col] = den
        drift.append(0)  # a direction ignores the right-hand sides
        if activate(drift):
            if simplex.has_negative_rhs():
                # mid-flight the reduced costs are not dual feasible, so a
                # violated new row forces a restart on the enlarged set
                simplex = _Simplex(active, lp.objective)
            continue
        ray = tuple([Fraction(v, den) for v in drift[:n]])
        if any(v < 0 for v in ray):
            raise AssertionError("unbounded ray leaves the nonnegative orthant")
        if sum(c * v for c, v in zip(lp.objective, ray)) <= 0:
            raise AssertionError("unbounded ray does not improve the objective")
        return LpSolution("unbounded", None, None, ray)

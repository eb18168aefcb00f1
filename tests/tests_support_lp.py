"""LP helpers shared across the test modules: a row family over stored
rows, and exact evaluation of a constraint at a point."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from vetoflow.lp import LinearConstraint


def value_at(row: LinearConstraint, x: Sequence[Fraction]) -> Fraction:
    return sum((c * x[j] for j, c in row.coeffs.items()), Fraction(0))


def satisfied_by(row: LinearConstraint, x: Sequence[Fraction]) -> bool:
    return value_at(row, x) <= row.rhs


class ListedRows:
    """A row family over stored rows, keyed by their list index; the
    oracle for families that separate instead of storing."""

    def __init__(self, rows: Sequence[LinearConstraint]) -> None:
        self.constraints = tuple(rows)

    def violated(self, vector: Sequence[int]) -> list[tuple[int, int]]:
        # the vector's last cell scales the right-hand side
        out = []
        for key, row in enumerate(self.constraints):
            excess = sum(c * vector[j] for j, c in row.coeffs.items()) + row.rhs * vector[-1]
            if excess > 0:
                out.append((-excess, key))
        return out

    def row(self, key: int) -> LinearConstraint:
        return self.constraints[key]

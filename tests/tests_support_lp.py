"""LP helpers shared across the test modules: a row family over stored
rows, and exact evaluation of a constraint at a point or a vector."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from vetoflow.lp import LinearConstraint


def value_at(row: LinearConstraint, x: Sequence[Fraction]) -> Fraction:
    return sum((c * x[j] for j, c in row.coeffs.items()), Fraction(0))


def satisfied_by(row: LinearConstraint, x: Sequence[Fraction]) -> bool:
    return value_at(row, x) <= row.rhs


def excess(row: LinearConstraint, vector: Sequence[int]) -> int:
    """coeffs . vector + rhs * (last cell): positive exactly when the row is
    violated at the point or blocks the direction."""
    return sum(c * vector[j] for j, c in row.coeffs.items()) + row.rhs * vector[-1]


class ListedRows:
    """A row family over stored rows that offers every violated one, most
    violated first, ties to the smaller list index; the oracle for families
    that separate instead of storing."""

    def __init__(self, rows: Sequence[LinearConstraint]) -> None:
        self.constraints = tuple(rows)

    def ranked(self, vector: Sequence[int]) -> list[tuple[int, int]]:
        """(-excess, index) of every violated row, in offer order."""
        return sorted(
            (-e, index)
            for index, row in enumerate(self.constraints)
            if (e := excess(row, vector)) > 0
        )

    def violated(self, vector: Sequence[int]) -> list[LinearConstraint]:
        return [self.constraints[index] for _, index in self.ranked(vector)]

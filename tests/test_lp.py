import itertools
from fractions import Fraction as F

import pytest

from vetoflow.lp import LinearConstraint, LinearProgram, LpSolution, solve_lp
from tests_support_lp import ListedRows, excess, satisfied_by, value_at


def test_constraint_shapes_are_validated():
    with pytest.raises(ValueError, match="negative right-hand side"):
        LinearConstraint({0: 1}, -1)
    # the objective fixes the width, so a row past its last cell is refused
    with pytest.raises(ValueError):
        LinearProgram((1,), (LinearConstraint({1: 1}, 1),))
    with pytest.raises(ValueError):
        LinearProgram((1, 0), (LinearConstraint({5: 1}, 1),))


@pytest.mark.parametrize("cell", [F(1), F(1, 2), 1.0, True],
                         ids=["Fraction", "half", "float", "bool"])
def test_rows_and_objectives_take_only_ints(cell):
    # every coefficient of the distortion LP is an integer; a Fraction, a
    # float or a bool is a caller's mistake, not a value to convert
    with pytest.raises(TypeError, match="must be ints"):
        LinearConstraint({0: cell, 1: 1}, 1)
    with pytest.raises(TypeError, match="must be ints"):
        LinearConstraint({0: 1}, cell)
    with pytest.raises(TypeError, match="must be ints"):
        LinearProgram((1, cell), (LinearConstraint({0: 1}, 1),))


def test_constraint_evaluation():
    row = LinearConstraint({0: 2, 2: -1}, 3)
    assert value_at(row, (F(1), F(99), F(4))) == F(-2)
    assert satisfied_by(row, (F(2), F(0), F(1)))
    assert not satisfied_by(row, (F(2), F(0), F(0)))


def test_one_variable_box():
    sol = solve_lp(LinearProgram((1,), (LinearConstraint({0: 1}, 2),)))
    assert sol.status == "optimal"
    assert sol.value == F(2) and sol.x == (F(2),)


def test_zero_cells_are_ignored():
    # a stored zero in the pivot row would leave a zero cell behind
    sol = solve_lp(LinearProgram((1, 0), (LinearConstraint({0: 1, 1: 0}, 1),)))
    assert sol.value == F(1) and sol.x == (F(1), F(0))


def test_exact_rational_optimum():
    sol = solve_lp(LinearProgram((1,), (LinearConstraint({0: 3}, 1),)))
    assert sol.value == F(1, 3)
    assert sol.x == (F(1, 3),)


def test_two_variable_vertex():
    lp = LinearProgram(
        (1, 1),
        (LinearConstraint({0: 7, 1: 3}, 1), LinearConstraint({0: 1, 1: 9}, 1)),
    )
    sol = solve_lp(lp)
    assert sol.value == F(1, 5)
    assert sol.x == (F(1, 10), F(1, 10))


def test_normalization_row_binds():
    # maximize x0 over x0 <= x1 and x0 + x1 <= 1: as in the distortion LP,
    # the only row with a positive right-hand side holds with equality
    rows = (LinearConstraint({0: 1, 1: -1}, 0), LinearConstraint({0: 1, 1: 1}, 1))
    lp = LinearProgram((1, 0), rows)
    sol = solve_lp(lp)
    assert sol.value == F(1, 2)
    assert sol.x == (F(1, 2), F(1, 2))


def test_unbounded_reports_a_ray():
    lp = LinearProgram((1, 0), (LinearConstraint({1: 1}, 1),))
    sol = solve_lp(lp)
    assert sol.status == "unbounded"
    assert sol.value is None and sol.x is None
    assert sol.ray == (1, 0)


def test_infeasible_active_rows_raise():
    # x >= 1 and x <= 0 cannot be posed: x >= 1 reads -x <= -1, and a
    # negative right-hand side would cut the origin off
    with pytest.raises(ValueError, match="negative right-hand side"):
        LinearProgram((0,), (LinearConstraint({0: -1}, -1), LinearConstraint({0: 1}, 0)))


def triple_cover_lp(n: int) -> LinearProgram:
    # every 3-subset of n variables sums to at most 1; summing the rows shows
    # C(n-1, 2) * sum(x) <= C(n, 3), and x == 1/3 meets that bound
    rows = tuple(
        LinearConstraint({i: 1, j: 1, k: 1}, 1) for i, j, k in itertools.combinations(range(n), 3)
    )
    return LinearProgram((1,) * n, rows)


def test_lazy_activation_reaches_the_true_optimum():
    for n in (5, 10):
        explicit = triple_cover_lp(n)
        sol = solve_lp(LinearProgram(explicit.objective, (), ListedRows(explicit.constraints)))
        assert sol.status == "optimal"
        assert sol.value == F(n, 3)
        for row in explicit.constraints:
            assert satisfied_by(row, sol.x)


def test_implicit_rows_reach_the_explicit_optimum():
    # the optimum x == 1/3 is unique, so active and lazy rows give the same
    # solution whichever part of the rows starts active
    for n in (5, 10):
        explicit = triple_cover_lp(n)
        rows = explicit.constraints
        for split in (0, len(rows) // 2):
            lp = LinearProgram(explicit.objective, rows[:split], ListedRows(rows[split:]))
            assert solve_lp(lp) == solve_lp(explicit)


def test_a_family_may_hold_violated_rows_back():
    # the row family contract asks for some violated row whenever one
    # exists, not all of them; offering one row a round, the most or the
    # least violated, still reaches the unique optimum
    class OneRow(ListedRows):
        def __init__(self, rows, pick):
            super().__init__(rows)
            self.pick = pick

        def violated(self, vector):
            ranked = self.ranked(vector)
            return [self.constraints[self.pick(ranked)[1]]] if ranked else []

    for n in (5, 10):
        explicit = triple_cover_lp(n)
        for pick in (min, max):
            lp = LinearProgram(explicit.objective, (), OneRow(explicit.constraints, pick))
            assert solve_lp(lp) == solve_lp(explicit)


class Unchecked(LinearConstraint):
    """A row built past LinearConstraint's checks, as a faulty family might
    hand one over."""

    def __post_init__(self) -> None:
        pass


def test_a_family_that_excludes_the_origin_raises():
    class AtLeastOne(ListedRows):
        # x0 >= 1, that is -x0 <= -1, a row LinearConstraint refuses
        def __init__(self):
            super().__init__([Unchecked({0: -1}, -1)])

    with pytest.raises(ValueError, match="origin"):
        solve_lp(LinearProgram((1,) * 3, (), AtLeastOne()))
    lp = LinearProgram((1,) * 3, (), ListedRows([LinearConstraint({0: 1, 1: 1, 2: 1}, 1)]))
    assert solve_lp(lp).value == F(1)


class Fixed:
    """A family that offers the same rows at every vector but the origin."""

    def __init__(self, *rows):
        self.rows = list(rows)

    def violated(self, vector):
        # silent at the origin, so the solve starts
        return self.rows if any(vector[:-1]) else []


def test_a_family_that_reports_an_active_row_raises():
    # the row is violated by the first relaxation's ray, activated, and
    # offered again at the optimum it then holds with equality
    lp = LinearProgram((1,) * 3, (), Fixed(LinearConstraint({0: 1, 1: 1, 2: 1}, 1)))
    with pytest.raises(RuntimeError, match="active"):
        solve_lp(lp)


def test_a_family_that_offers_a_row_that_holds_raises():
    # x0 >= 0 holds at every point and blocks no ray of x >= 0, here offered
    # after the violated rows of the first relaxation's ray
    class Padded(ListedRows):
        def violated(self, vector):
            rows = super().violated(vector)
            return rows + [LinearConstraint({0: -1}, 0)] if rows else []

    explicit = triple_cover_lp(5)
    padded = Padded(explicit.constraints)
    drift = [1, 0, 0, 0, 0, 0]
    offered = padded.violated(drift)
    assert offered and excess(offered[-1], drift) < 0
    with pytest.raises(RuntimeError, match="active"):
        solve_lp(LinearProgram(explicit.objective, (), padded))


@pytest.mark.parametrize("row", [
    LinearConstraint({0: 1, -1: 1}, 0),
    LinearConstraint({0: 1, 2: 5}, 0),
], ids=["rhs-key", "slack-column"])
def test_family_rows_touch_only_known_variables(row):
    # -1 is where a tableau row keeps its right-hand side, and column 2 is
    # the first slack of a 2-variable program; both are caller mistakes
    with pytest.raises(ValueError, match="unknown variable"):
        LinearProgram((1, 1), (row,))
    bounded = (LinearConstraint({0: 1, 1: 1}, 1),)
    with pytest.raises(ValueError, match="unknown variable"):
        solve_lp(LinearProgram((1, 1), bounded, Fixed(row)))


def test_unbounded_relaxation_recovers():
    # the only row is lazy, so the first relaxation is unbounded and the
    # blocker has to be pulled in mid-flight
    lp = LinearProgram((1, 1, 1), (), ListedRows([LinearConstraint({0: 1, 1: 1, 2: 1}, 5)]))
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.value == F(5)


def test_degenerate_vertex_terminates():
    # Beale's cycling example with its two homogeneous rows doubled to
    # integers; the optimum is 1 at (1, 0, 1, 0)
    lp = LinearProgram(
        (10, -57, -9, -24),
        (
            LinearConstraint({0: 1, 1: -11, 2: -5, 3: 18}, 0),
            LinearConstraint({0: 1, 1: -3, 2: -1, 3: 2}, 0),
            LinearConstraint({0: 1}, 1),
        ),
    )
    sol = solve_lp(lp)
    assert sol.value == F(1)
    for row in lp.constraints:
        assert satisfied_by(row, sol.x)


def test_degenerate_vertex_terminates_under_blands_rule(monkeypatch):
    # the first pivot that leaves the objective value unchanged switches to
    # Bland's rule, which the default limit never reaches on this program
    monkeypatch.setattr("vetoflow.lp._DEGENERATE_STREAK_LIMIT", 0)
    test_degenerate_vertex_terminates()


def test_dual_restore_leaves_by_the_smallest_basic_index_under_blands_rule(monkeypatch):
    # both listed rows cut off the first optimum (2, 0, 0, 0).  The first
    # dual pivot leaves the objective value unchanged and three basic values
    # negative: the default rule takes the most negative (slack 5) next,
    # Bland's rule the smallest basic index (x0), and the two reach
    # different vertices of the same optimum
    lp = LinearProgram(
        (1, 1, -1, -2),
        (LinearConstraint({0: 1, 1: 1}, 2), LinearConstraint({0: -2, 1: 1}, 3)),
        ListedRows([LinearConstraint({0: 1, 1: 1, 3: -2}, 1), LinearConstraint({0: 3, 1: 2}, 3)]),
    )
    default = solve_lp(lp)
    monkeypatch.setattr("vetoflow.lp._DEGENERATE_STREAK_LIMIT", 0)
    bland = solve_lp(lp)
    assert default.x == (F(0), F(3, 2), F(0), F(1, 4))
    assert bland.x == (F(1), F(0), F(0), F(0))
    for sol in (default, bland):
        assert sol.value == F(1)
        for row in (*lp.constraints, *lp.implicit.constraints):
            assert satisfied_by(row, sol.x)


def test_solution_is_a_plain_record():
    sol = solve_lp(LinearProgram((1,), (LinearConstraint({0: 1}, 2),)))
    assert isinstance(sol, LpSolution)
    assert all(isinstance(v, F) for v in sol.x)

"""Independent checks of vetoflow's outputs, run outside the timed region.

Nothing here calls into vetoflow: every check is written from the
definitions (the distortion LP's rows, Hall's condition, the eating
process) so that a bug in a layer cannot also hide in its oracle.  The
only outside solvers are scipy's HiGHS (the distortion LP in floating
point) and networkx max flow, both imported lazily.  Each function returns
a list of problems; an empty list means the output checked out.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations

INF = float("inf")


# ---------------------------------------------------------------- distortion


def lp_rows(rankings, m: int, ref: int):
    """The distortion LP over d[i*m + a] >= 0, as (le_rows, eq_row):
    ballot consistency, every quadrangle d(i,a) <= d(i,b) + d(j,b) + d(j,a),
    and the normalization sum_i d(i, ref) = 1."""
    n = len(rankings)
    rows = []
    for i, ranking in enumerate(rankings):
        for a, b in zip(ranking, ranking[1:]):
            rows.append({i * m + a: 1, i * m + b: -1})
    for i in range(n):
        for j in range(n):
            for a in range(m):
                for b in range(m):
                    row: dict[int, int] = {}
                    for var, coef in ((i * m + a, 1), (i * m + b, -1), (j * m + b, -1), (j * m + a, -1)):
                        row[var] = row.get(var, 0) + coef
                    rows.append({v: x for v, x in row.items() if x})
    eq = {i * m + ref: 1 for i in range(n)}
    return rows, eq


def certificate_problems(rankings, m: int, c: int, value, ref, matrix) -> list[str]:
    """A finite value must come with distances that satisfy every LP row and
    attain the value with the reference's cost normalized to 1."""
    n = len(rankings)
    if m == 1:
        return [] if value == 1 and matrix is None else ["m = 1 must give value 1 and no certificate"]
    if matrix is None or ref is None or ref == c:
        return ["finite value without a certificate against another candidate"]
    d = matrix
    if len(d) != n or any(len(row) != m for row in d):
        return ["certificate is not voters x candidates"]
    bad = []
    if any(x < 0 for row in d for x in row):
        bad.append("negative distance")
    for i, ranking in enumerate(rankings):
        if any(d[i][a] > d[i][b] for a, b in zip(ranking, ranking[1:])):
            bad.append(f"voter {i} sits closer to a lower-ranked candidate")
    for i in range(n):
        for j in range(n):
            for a in range(m):
                for b in range(m):
                    if d[i][a] > d[i][b] + d[j][b] + d[j][a]:
                        bad.append(f"quadrangle ({i},{j},{a},{b}) violated")
    if sum(row[ref] for row in d) != 1:
        bad.append("reference cost is not 1")
    if sum(row[c] for row in d) != value:
        bad.append("candidate cost differs from the value")
    if value < 1:
        bad.append("value below 1")
    return bad


def pseudometric_problems(full, matrix, n: int, m: int) -> list[str]:
    """The extension must be a symmetric, zero-diagonal table that agrees
    with the certificate and satisfies every triangle inequality."""
    size = n + m
    if len(full) != size or any(len(row) != size for row in full):
        return ["extension has the wrong shape"]
    bad = []
    for x in range(size):
        if full[x][x] != 0:
            bad.append(f"nonzero diagonal at {x}")
        for y in range(size):
            if full[x][y] != full[y][x] or full[x][y] < 0:
                bad.append(f"asymmetric or negative at ({x},{y})")
    for i in range(n):
        for a in range(m):
            if full[i][n + a] != matrix[i][a]:
                bad.append(f"extension disagrees with the certificate at ({i},{a})")
    for x in range(size):
        row_x = full[x]
        for y in range(size):
            dxy = row_x[y]
            row_y = full[y]
            for z in range(size):
                if row_x[z] > dxy + row_y[z]:
                    bad.append(f"triangle ({x},{y},{z}) violated")
    return bad[:5]


def ray_problems(rankings, m: int, c: int, ref, ray) -> list[str]:
    """An infinite value must come with a nonnegative improving direction
    that no LP row blocks."""
    n = len(rankings)
    if ref is None or ray is None or len(ray) != n * m:
        return ["infinite value without a ray of the LP's size"]
    bad = []
    if any(v < 0 for v in ray):
        bad.append("ray leaves the nonnegative orthant")
    if sum(ray[i * m + c] for i in range(n)) <= 0:
        bad.append("ray does not improve the objective")
    rows, eq = lp_rows(rankings, m, ref)
    if any(sum(coef * ray[v] for v, coef in row.items()) > 0 for row in rows):
        bad.append("ray has positive drift on an LP row")
    if sum(ray[v] for v in eq) != 0:
        bad.append("ray moves the normalization")
    return bad


def distortion_problems(rankings, m: int, c: int, result, is_inf) -> list[str]:
    if result.candidate != c:
        return ["result is for another candidate"]
    if is_inf(result.value):
        return ray_problems(rankings, m, c, result.reference, result.ray)
    matrix = None if result.certificate is None else result.certificate.values
    return certificate_problems(rankings, m, c, result.value, result.reference, matrix)


def highs_problems(rankings, m: int, c: int, value, is_inf) -> list[str]:
    """Solve every reference LP with scipy's HiGHS and compare: unbounded for
    some reference iff the value is infinite, else the maximum agrees
    within 1e-6."""
    import numpy as np
    from scipy.optimize import linprog

    n = len(rankings)
    if m == 1:
        return [] if value == 1 else ["m = 1 must give value 1"]
    objective = np.zeros(n * m)
    for i in range(n):
        objective[i * m + c] = -1.0
    best = -INF
    unbounded = False
    for ref in range(m):
        if ref == c:
            continue
        rows, eq = lp_rows(rankings, m, ref)
        a_ub = np.zeros((len(rows), n * m))
        for r, row in enumerate(rows):
            for v, coef in row.items():
                a_ub[r, v] = coef
        a_eq = np.zeros((1, n * m))
        a_eq[0, list(eq)] = 1.0
        args = dict(A_ub=a_ub, b_ub=np.zeros(len(rows)), A_eq=a_eq, b_eq=[1.0], bounds=(0, None))
        res = linprog(objective, method="highs", **args)
        if res.status not in (0, 3):
            res = linprog(objective, method="highs", options={"presolve": False}, **args)
        if res.status == 3:
            unbounded = True
        elif res.status == 0:
            best = max(best, -res.fun)
        else:
            return [f"HiGHS could not decide reference {ref}: {res.message}"]
    if is_inf(value):
        return [] if unbounded else ["value is infinite but HiGHS bounds every reference"]
    if unbounded:
        return ["value is finite but HiGHS finds an unbounded reference"]
    if abs(best - float(value)) > 1e-6 * max(1.0, abs(best)):
        return [f"value {float(value)} differs from HiGHS {best}"]
    return []


def metric_problems(dist, c: int, value, is_inf) -> list[str]:
    """The generating metric is one the LP ranges over, so its cost ratio
    against every reference is a lower bound on the distortion."""
    if is_inf(value):
        return []
    cost_c = sum(row[c] for row in dist)
    return [
        f"true metric beats the value against reference {ref}"
        for ref in range(len(dist[0]))
        if ref != c and cost_c > value * sum(row[ref] for row in dist)
    ]


# ---------------------------------------------------------------- rules


def matching_winners_bruteforce(rankings, m: int) -> frozenset[int]:
    """Clone every candidate by plurality score (clones adjacent, in index
    order) and keep the candidates with a clone e for which every voter set
    S dominates at least |S| clones at or below e; the cloned profile has n
    candidates, so this is Hall's condition for the scaled matching."""
    n = len(rankings)
    scores = [0] * m
    for r in rankings:
        scores[r[0]] += 1
    blocks, start = [], 0
    for s in scores:
        blocks.append(range(start, start + s))
        start += s
    expanded = [[e for x in r for e in blocks[x]] for r in rankings]
    winners = set()
    for x in range(m):
        for e in blocks[x]:
            masks = []
            for row in expanded:
                mask = 0
                for f in row[row.index(e):]:
                    mask |= 1 << f
                masks.append(mask)
            if all(
                bin(_union(masks, sub)).count("1") >= len(sub)
                for size in range(1, n + 1)
                for sub in combinations(range(n), size)
            ):
                winners.add(x)
                break
    return frozenset(winners)


def _union(masks, members) -> int:
    out = 0
    for i in members:
        out |= masks[i]
    return out


# ---------------------------------------------------------------- large electorates


def eat_by_types(types, m: int, best_first: bool, stop_eliminations=None, stop_time=None):
    """Simultaneous eating with unit capacity over ballot types.

    ``types`` is a list of (ranking, multiplicity); every voter of a type
    eats the same candidate, so a type eats at a rate equal to its size.
    Returns (eliminated batches in index order, survivors, per-voter
    consumption row of each type)."""
    order = [r if best_first else tuple(reversed(r)) for r, _ in types]
    alive = [True] * m
    absorbed = [Fraction(0)] * m
    eaten = [[Fraction(0)] * m for _ in types]
    batches: list[list[int]] = []
    gone = 0
    t = Fraction(0)
    while True:
        if stop_time is not None and t == stop_time:
            break
        if stop_time is None and gone >= stop_eliminations:
            break
        if gone == m:
            if stop_time is not None:
                raise ValueError("eating starved before the time bound")
            break
        rate = [0] * m
        target = []
        for (r, w), row in zip(types, order):
            x = next(y for y in row if alive[y])
            target.append(x)
            rate[x] += w
        dt = min((1 - absorbed[x]) / rate[x] for x in range(m) if rate[x])
        if stop_time is not None and t + dt > stop_time:
            dt = stop_time - t
        t += dt
        for k, x in enumerate(target):
            eaten[k][x] += dt
        batch = []
        for x in range(m):
            if rate[x]:
                absorbed[x] += dt * rate[x]
                if absorbed[x] == 1:
                    batch.append(x)
        if batch:
            batches.append(batch)
            for x in batch:
                alive[x] = False
            gone += len(batch)
    return batches, frozenset(x for x in range(m) if alive[x]), eaten


def _full_flow(left, m: int, cap: int, need: int) -> bool:
    """Is there a flow of value ``need`` from a source through left nodes
    (supply, adjacent candidates) to candidates of capacity ``cap``?"""
    import networkx as nx

    g = nx.DiGraph()
    for k, (supply, adj) in enumerate(left):
        g.add_edge("s", ("v", k), capacity=supply)
        for x in adj:
            g.add_edge(("v", k), ("c", x))
    for x in range(m):
        g.add_edge(("c", x), "t", capacity=cap)
    if "s" not in g:
        return need == 0
    return nx.maximum_flow_value(g, "s", "t") == need


def core_by_types(types, n: int, m: int) -> frozenset[int]:
    """Candidates whose domination graph has a fractional perfect matching:
    each voter spreads weight m over candidates at or below c, each
    candidate takes at most n."""
    core = set()
    for c in range(m):
        left = [(w * m, r[r.index(c):]) for r, w in types]
        if _full_flow(left, m, n, n * m):
            core.add(c)
    return frozenset(core)


def psc_by_types(types, n: int, m: int, committee: frozenset[int]) -> bool:
    """Weak PSC holds iff for every x outside the committee, voters with
    supply k+1 can be routed into their weak prefixes down to x under
    candidate capacity n."""
    k = len(committee)
    for x in range(m):
        if x in committee:
            continue
        left = [(w * (k + 1), r[: r.index(x) + 1]) for r, w in types]
        if not _full_flow(left, m, n, n * (k + 1)):
            return False
    return True


def psc_violation_problems(rankings, n, committee, k, viol) -> list[str]:
    bad = []
    if not viol.supporters:
        bad.append("empty supporter set")
    if viol.alternative in committee:
        bad.append("alternative already in the committee")
    union = set()
    for i in viol.supporters:
        r = rankings[i]
        union.update(r[: r.index(viol.alternative) + 1])
    if frozenset(union) != viol.prefix_set:
        bad.append("prefix set is not the union of supporter prefixes")
    if len(viol.supporters) * (k + 1) <= len(viol.prefix_set) * n:
        bad.append("supporters do not clear the Droop threshold")
    return bad


def pareto_problems(types, rankings, m: int, c: int, ok: bool, matching) -> list[str]:
    """A positive answer must carry a matching of every other candidate to a
    distinct voter ranking c above it; a negative one must be confirmed by
    max flow over ballot types."""
    if ok:
        if matching is None or len(matching) != m - 1:
            return ["matching does not cover every other candidate"]
        if sorted(matching.values()) != [x for x in range(m) if x != c]:
            return ["matching is not onto the other candidates"]
        for i, x in matching.items():
            r = rankings[i]
            if r.index(c) > r.index(x):
                return [f"voter {i} ranks {x} above {c}"]
        return []
    left = [(w, r[r.index(c) + 1:]) for r, w in types]
    if _full_flow(left, m, 1, m - 1):
        return ["a Pareto matching exists but the criterion says no"]
    return []


def type_counts(rankings) -> list[tuple[tuple[int, ...], int]]:
    return sorted(Counter(rankings).items())

"""An independent ILP oracle for `solve`.

The formulation in `mergedse.partition`'s docstring is stated as a
mixed-integer program and solved by HiGHS through `scipy.optimize.milp`:
binary `hw` and `sw` variables per function (no `sw` for a merged one), a
frontier variable per call edge with a nonzero cost, and the objective in
integers over one common denominator, as `solve` scales it. HiGHS works in
floats, so its assignment's objective is recomputed exactly with
`_objective`, and `check_solution` must find the assignment feasible. That
exact objective must equal `solve`'s; a strictly lower one would mean
`solve` missed the optimum.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

optimize = pytest.importorskip("scipy.optimize")

from mergedse.partition import (  # noqa: E402
    PartitionSolution, _objective, check_solution, solve,
)
from test_partition import (  # noqa: E402
    pipeline_problem, rand_problem, wide_problem,
)


def ilp_objective(p):
    """The exact objective of the assignment HiGHS finds optimal for p."""
    kept = [("hw", x) for x in p.names] + [("sw", x) for x in p.names
                                           if x not in p.merged]
    cost = {v: (p.hw if v[0] == "hw" else p.sw)[v[1]] for v in kept}
    for i in p.names:
        for j in sorted(p.callees.get(i, ())):
            if p.edge_cost(i, j):
                cost["frontier", (i, j)] = p.edge_cost(i, j)
    col = {v: k for k, v in enumerate(cost)}
    scaled = [c * math.lcm(*(c.denominator for c in cost.values()))
              for c in cost.values()]
    common = math.gcd(*map(int, scaled)) or 1
    rows, lo, hi = [], [], []

    def row(terms, lb, ub):
        r = np.zeros(len(col))
        for v, a in terms:
            if v in col:   # a merged function has no sw variable
                r[col[v]] += a
        rows.append(r)
        lo.append(lb)
        hi.append(ub)

    row([(("hw", x), p.area[x]) for x in p.names], -np.inf,
        p.area_budget + 1e-9)
    for x in p.names:
        row([(("hw", x), 1), (("sw", x), 1)], -np.inf, 1)
    for r in p.roots:   # covered exactly once, by itself or a descendant
        group = [r, *p.descend[r]]
        row([((side, x), 1) for x in group for side in ("hw", "sw")], 1, 1)
    for i in p.names:   # a hardware caller's root callees are in hardware
        for j in p.callees.get(i, ()):
            if j in p.roots:
                row([(("hw", x), 1) for x in [j, *p.descend[j]]]
                    + [(("hw", i), -1)], 0, np.inf)
    for v in cost:
        if v[0] == "frontier":
            i, j = v[1]
            row([(v, 1), (("sw", i), -1), (("hw", j), -1)], -1, np.inf)

    res = optimize.milp(
        np.array([int(c) // common for c in scaled], dtype=float),
        integrality=np.ones(len(col)), bounds=optimize.Bounds(0, 1),
        constraints=optimize.LinearConstraint(np.array(rows), lo, hi),
        options={"mip_rel_gap": 0})
    assert res.status == 0, res.message
    chosen = {v for v, k in col.items() if res.x[k] > 0.5}
    hwv = {x: 1 for x in p.names if ("hw", x) in chosen}
    swv = {x: 1 for x in p.names if ("sw", x) in chosen}
    objective, frontier = _objective(p, hwv, swv)
    assert check_solution(p, PartitionSolution(hwv, swv, frontier,
                                               objective)) == []
    return objective


@pytest.mark.parametrize("gen", [rand_problem, wide_problem, pipeline_problem])
def test_solve_meets_the_ilp_optimum(gen):
    rng = random.Random(2026)
    for k in range(100):
        p = gen(rng)
        s = solve(p)
        assert s.optimal, k
        assert ilp_objective(p) == s.objective, k

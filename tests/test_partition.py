import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mergedse.analysis import build_call_graph
from mergedse.partition import (
    INF_BANDWIDTH, PartitionError, PartitionProblem, PartitionSolution,
    build_problem, check_solution, solve, solve_bruteforce,
)


def make_problem(n_orig, merged_spec, rng, budget_frac=0.4, latency=25,
                 bandwidth=INF_BANDWIDTH, call_prob=0.25):
    """Random instance. merged_spec: list of (child, parent, parent) tuples;
    parents may themselves be merged (depth 2)."""
    names = [f"f{i}" for i in range(n_orig)]
    merged = {c: (a, b) for c, a, b in merged_spec}
    allnames = names + [c for c, _, _ in merged_spec]

    callees = {x: set() for x in allnames}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if rng.random() < call_prob:
                callees[a].add(b)
    for a in reversed(names):
        for b in list(callees[a]):
            callees[a] |= callees[b]

    def merged_callees(mn):
        out = set()
        for p in merged[mn]:
            out |= merged_callees(p) if p in merged else callees[p]
        return out

    for mn in merged:
        callees[mn] = merged_callees(mn)

    sw = {x: Fraction(rng.randrange(0, 100), 10 ** 6) for x in allnames}
    hw = {x: Fraction(rng.randrange(0, 60), 10 ** 6) for x in allnames}
    for mn in merged:
        sw[mn] = Fraction(0)
    area = {x: float(rng.randrange(5, 50)) for x in allnames}
    calls, bts = {}, {}
    for a in allnames:
        for b in sorted(callees[a]):  # set order varies with the hash seed
            if rng.random() < 0.6:
                calls[(a, b)] = rng.randrange(1, 50)
                bts[(a, b)] = Fraction(rng.randrange(0, 4096))

    children = {x: set() for x in allnames}
    for c, a, b in merged_spec:
        children[a].add(c)
        children[b].add(c)
    descend = {}

    def desc(x):
        if x not in descend:
            out = set()
            for c in children[x]:
                out.add(c)
                out |= desc(c)
            descend[x] = out
        return descend[x]

    for x in allnames:
        desc(x)
    roots = {x for x in allnames if x not in merged}
    return PartitionProblem(
        allnames, sw, hw, area, callees, calls, bts, descend, roots,
        set(merged), latency=latency, bandwidth=bandwidth,
        clock=Fraction(1, 10 ** 9),
        area_budget=budget_frac * sum(area.values()))


def rand_problem(rng, n_orig=None, n_merged=None):
    n_orig = n_orig if n_orig is not None else rng.randrange(3, 10)
    n_merged = n_merged if n_merged is not None else rng.randrange(0, 4)
    names = [f"f{i}" for i in range(n_orig)]
    spec = []
    avail = list(names)
    for k in range(n_merged):
        if len(avail) < 2:
            break
        a, b = rng.sample(avail, 2)
        child = f"m{k}"
        spec.append((child, a, b))
        if rng.random() < 0.4:
            avail.append(child)  # enables depth-2 merge graphs
    return make_problem(n_orig, spec, rng,
                        budget_frac=rng.choice([0.0, 0.2, 0.4, 0.7, 1.0]),
                        latency=rng.choice([0, 25, 500]),
                        bandwidth=rng.choice([INF_BANDWIDTH, Fraction(10 ** 9),
                                              Fraction(4 * 10 ** 9)]))


def wide_problem(rng):
    """Reduce-like instance: 4-5 leaf roots of equal cost merged pairwise
    (up to 10 merged functions) under a few random caller roots, so that many
    assignments tie exactly."""
    k = rng.choice([4, 5])
    n_callers = rng.randrange(1, 4)
    leaves = [f"f{n_callers + i}" for i in range(k)]
    pairs = [(a, b) for i, a in enumerate(leaves) for b in leaves[i + 1:]]
    rng.shuffle(pairs)
    pairs = pairs[:rng.randrange(k, len(pairs) + 1)]
    spec = [(f"m{i}", a, b) for i, (a, b) in enumerate(pairs)]
    p = make_problem(n_callers + k, spec, rng, call_prob=0.5,
                     budget_frac=rng.choice([0.0, 0.1, 0.2, 0.4, 0.7, 1.0]),
                     latency=rng.choice([0, 25, 500]),
                     bandwidth=rng.choice([INF_BANDWIDTH, Fraction(10 ** 9)]))
    sw = Fraction(rng.randrange(20, 100), 10 ** 6)
    hw = Fraction(rng.randrange(0, 20), 10 ** 6)
    area = float(rng.randrange(10, 40))
    for x in leaves:
        p.sw[x], p.hw[x], p.area[x] = sw, hw, area
    for mn, a, b in spec:
        p.hw[mn] = 2 * hw + Fraction(rng.randrange(0, 3), 10 ** 6)
        p.area[mn] = area * rng.choice([1.0, 1.25, 1.5])
    p.area_budget = rng.choice([0.0, 0.1, 0.2, 0.4, 0.7, 1.0]) \
        * sum(p.area.values())
    return p


def pipeline_problem(rng):
    """Instance shaped like `dse.prepare`'s output. A merged function runs
    only in hardware and costs at least both parents' hardware times, as
    `merged_cost`'s hw_a + hw_b + glue does; its area lies between the
    larger parent's and both parents' together. Parent costs differ by up
    to 1000x, as a loop's does from its caller's own extent, and some
    merges take a merged parent (depth 2). Budgets bind or are slack."""
    n_orig = rng.randrange(3, 9)
    names = [f"f{i}" for i in range(n_orig)]
    spec, avail = [], list(names)
    for k in range(rng.randrange(1, 5)):
        a, b = rng.sample(avail, 2)
        spec.append((f"m{k}", a, b))
        if rng.random() < 0.3:
            avail.append(f"m{k}")
    p = make_problem(n_orig, spec, rng, call_prob=0.4,
                     latency=rng.choice([0, 25, 500]),
                     bandwidth=rng.choice([INF_BANDWIDTH, Fraction(10 ** 9)]))
    for x in names:
        p.sw[x] = Fraction(rng.randrange(1, 100) * 10 ** rng.randrange(4),
                           10 ** 6)
        p.hw[x] = p.sw[x] * Fraction(rng.randrange(5, 150), 100)
        p.area[x] = float(rng.randrange(5, 60))
    for c, a, b in spec:   # a parent comes before its children
        p.hw[c] = p.hw[a] + p.hw[b] + Fraction(rng.randrange(0, 20), 10 ** 6)
        p.area[c] = rng.uniform(max(p.area[a], p.area[b]),
                                p.area[a] + p.area[b])
    p.area_budget = rng.choice([0.1, 0.25, 0.5, 1.0]) * sum(p.area.values())
    return p


def bruteforce_failures(problems) -> list:
    """The indices of problems where `solve` is not proved optimal, is
    infeasible, or misses `solve_bruteforce`'s objective."""
    bad = []
    for k, p in enumerate(problems):
        s1, s2 = solve(p), solve_bruteforce(p)
        if (not s1.optimal or check_solution(p, s1) or check_solution(p, s2)
                or s1.objective != s2.objective):
            bad.append(k)
    return bad


def rand_2024_300():
    rng = random.Random(2024)
    return [rand_problem(rng) for _ in range(300)]


GOLDEN = Path(__file__).parent / "data" / "solve_golden.json"
GOLDEN_CASES = ([("rand", s) for s in range(120)]
                + [("wide", s) for s in range(60)])


def golden_problem(gen: str, seed: int) -> PartitionProblem:
    rng = random.Random(seed)
    return rand_problem(rng) if gen == "rand" else wide_problem(rng)


def record_golden() -> list:
    out = []
    for gen, seed in GOLDEN_CASES:
        s = solve(golden_problem(gen, seed))
        out.append({"gen": gen, "seed": seed,
                    "hwv": sorted(n for n, v in s.hwv.items() if v),
                    "swv": sorted(n for n, v in s.swv.items() if v),
                    "objective": [s.objective.numerator,
                                  s.objective.denominator]})
    return out


def golden_failures() -> list:
    """The golden cases whose `solve` result differs from the recorded
    assignment or from `solve_bruteforce`'s objective, or is not proved
    optimal and feasible."""
    golden = json.loads(GOLDEN.read_text())
    if [(g["gen"], g["seed"]) for g in golden] != GOLDEN_CASES:
        return ["the recorded cases are not GOLDEN_CASES"]
    bad = []
    for g in golden:
        p = golden_problem(g["gen"], g["seed"])
        s = solve(p)
        if (not s.optimal or check_solution(p, s)
                or sorted(n for n, v in s.hwv.items() if v) != g["hwv"]
                or sorted(n for n, v in s.swv.items() if v) != g["swv"]
                or s.objective != Fraction(*g["objective"])
                or s.objective != solve_bruteforce(p).objective):
            bad.append((g["gen"], g["seed"]))
    return bad


def test_solve_matches_golden_assignments():
    # recorded with the plain branch-and-bound that preceded the pruning one
    # (regenerate with `python tests/test_partition.py --record` only for an
    # intended change of tie-breaking); exact cost ties in the wide instances
    # must still resolve to the recorded assignment
    assert golden_failures() == []


NODES = Path(__file__).parent / "data" / "solve_nodes.json"


def node_counts() -> dict:
    """The searches pinned in solve_nodes.json besides the node-limit
    outcomes: nodes per golden case, and in total over the 300 instances
    of test_solver_matches_bruteforce_randomized."""
    return {"golden": [[g, s, solve(golden_problem(g, s)).nodes]
                       for g, s in GOLDEN_CASES],
            "rand_2024_300_total": sum(solve(p).nodes
                                       for p in rand_2024_300())}


def test_solver_node_counts_unchanged():
    # Pinned from the bound that splits a merged function's cost over its
    # groups by root cost; a bound change may change these counts, never a
    # result. Re-pin with `PYTHONPATH=src python tests/test_partition.py
    # --record-nodes`, which writes only while every result still matches.
    pinned = json.loads(NODES.read_text())
    assert node_counts() == {k: pinned[k] for k in ("golden",
                                                    "rand_2024_300_total")}


def test_node_limit_outcomes_unchanged():
    # The only path on which the search stops early. Recorded from the
    # solver that rebuilt every group's hull at each node: with a limit of
    # k nodes, either no leaf was reached (PartitionError) or the best leaf
    # found so far is returned, marked not optimal when the limit was hit.
    pinned = json.loads(NODES.read_text())["wide_node_limit"]
    got = []
    for seed in [s for g, s in GOLDEN_CASES if g == "wide"]:
        for k in (1, 5, 25):
            try:
                s = solve(golden_problem("wide", seed), node_limit=k)
            except PartitionError:
                got.append([seed, k, None])
                continue
            got.append([seed, k, {
                "optimal": s.optimal, "nodes": s.nodes,
                "hwv": sorted(n for n, v in s.hwv.items() if v),
                "swv": sorted(n for n, v in s.swv.items() if v),
                "objective": [s.objective.numerator, s.objective.denominator]}])
    assert got == pinned
    assert any(o is None for _, _, o in got)
    assert any(o and not o["optimal"] for _, _, o in got)


def test_budget_zero_forces_software():
    rng = random.Random(0)
    p = make_problem(6, [("m0", "f0", "f1")], rng, budget_frac=0.0)
    s = solve(p)
    assert all(v == 0 for v in s.hwv.values())
    assert s.objective == sum((p.sw[r] for r in p.roots), Fraction(0))
    assert s.frontier == {}
    assert check_solution(p, s) == []


def test_generous_budget_dominant_hardware():
    rng = random.Random(1)
    p = make_problem(6, [], rng, budget_frac=1.0, latency=0)
    for x in p.names:
        p.hw[x] = p.sw[x] / 2 if p.sw[x] > 0 else Fraction(0)
        p.sw[x] = p.sw[x] + Fraction(1, 10 ** 6)
    s = solve(p)
    assert all(s.hwv.get(x, 0) == 1 for x in p.names)
    assert check_solution(p, s) == []


def test_single_function_prefers_cheap_hardware():
    p = PartitionProblem(
        ["f0"], {"f0": Fraction(10, 10 ** 6)}, {"f0": Fraction(2, 10 ** 6)},
        {"f0": 10.0}, {"f0": set()}, {}, {}, {"f0": set()}, {"f0"}, set(),
        latency=0, area_budget=20.0)
    s = solve_bruteforce(p)
    assert s.hwv == {"f0": 1}
    assert s.objective == Fraction(2, 10 ** 6)


def _merged_pair_problem(budget, hw_m, hw_parents):
    sw = {"f0": Fraction(40, 10 ** 6), "f1": Fraction(30, 10 ** 6),
          "m0": Fraction(0)}
    hw = {"f0": hw_parents[0], "f1": hw_parents[1], "m0": hw_m}
    area = {"f0": 30.0, "f1": 30.0, "m0": 35.0}
    return PartitionProblem(
        ["f0", "f1", "m0"], sw, hw, area,
        {"f0": set(), "f1": set(), "m0": set()}, {}, {},
        {"f0": {"m0"}, "f1": {"m0"}, "m0": set()},
        {"f0", "f1"}, {"m0"}, latency=0, area_budget=budget)


def test_merged_child_wins_under_tight_budget():
    # only the merged accelerator fits; it covers both parents
    p = _merged_pair_problem(40.0, hw_m=Fraction(20, 10 ** 6),
                             hw_parents=(Fraction(8, 10 ** 6),
                                         Fraction(6, 10 ** 6)))
    s = solve_bruteforce(p)
    assert s.hwv == {"m0": 1}
    assert s.swv == {}
    assert s.objective == Fraction(20, 10 ** 6)
    assert solve(p).objective == s.objective


def test_parents_win_at_larger_budget():
    # both parents fit and together beat the mux-burdened merged version
    p = _merged_pair_problem(70.0, hw_m=Fraction(20, 10 ** 6),
                             hw_parents=(Fraction(8, 10 ** 6),
                                         Fraction(6, 10 ** 6)))
    s = solve_bruteforce(p)
    assert s.hwv == {"f0": 1, "f1": 1}
    assert s.objective == Fraction(14, 10 ** 6)
    assert solve(p).objective == s.objective


def test_check_solution_reports_violations():
    rng = random.Random(5)
    p = make_problem(4, [("m0", "f0", "f1")], rng, budget_frac=1.0)
    # root doubly covered
    s = PartitionSolution({"f0": 1, "m0": 1}, {"f1": 1, "f2": 1, "f3": 1}, {},
                          Fraction(0))
    bad = check_solution(p, s)
    assert any("root-coverage" in b for b in bad)
    # each message on a hand-built instance: @f calls @g, and the merged @m
    # of @f and @h calls @g too
    p = PartitionProblem(
        names=["f", "g", "h", "m"], sw=dict.fromkeys("fghm", Fraction(9)),
        hw=dict.fromkeys("fghm", Fraction(1)),
        area={"f": 5.0, "g": 5.0, "h": 5.0, "m": 8.0},
        callees={"f": {"g"}, "g": set(), "h": set(), "m": {"g"}},
        calls={("f", "g"): 3, ("m", "g"): 3}, bytes_={},
        descend={"f": {"m"}, "g": set(), "h": {"m"}, "m": set()},
        roots={"f", "g", "h"}, merged={"m"}, area_budget=12.0)

    def bad(hw: str, sw: str, frontier=()) -> list[str]:
        return check_solution(p, PartitionSolution(
            dict.fromkeys(hw, 1), dict.fromkeys(sw, 1),
            dict.fromkeys(frontier, 1), Fraction(0)))
    assert bad("", "fgh") == bad("gh", "f", [("f", "g")]) == []
    assert bad("g", "gm", [("m", "g")]) == [
        "exclusivity: @g in both software and hardware",
        "merged-in-software: @m", "root-coverage: @g covered 2 times"]
    assert bad("gm", "") == ["area-budget: 13.0 > 12.0"]
    assert bad("", "fg") == ["root-coverage: @h covered 0 times"]
    assert bad("f", "gh") == ["hw-callee: @f in hardware but root callee @g "
                              "not covered in hardware"]
    assert bad("gh", "f") == ["frontier: (f->g) below swv_i + hwv_j - 1"]


def test_solver_matches_bruteforce_randomized():
    assert bruteforce_failures(rand_2024_300()) == []


def test_solver_matches_bruteforce_on_pipeline_shaped_instances():
    # the merged cost above both parents' and the uneven parents are what
    # the bound's cost split reads; neither generator above draws them
    rng = random.Random(2025)
    problems = [pipeline_problem(rng) for _ in range(300)]
    assert bruteforce_failures(problems) == []
    assert any(p.descend[m] for p in problems for m in p.merged)


def test_budget_monotonicity():
    rng = random.Random(77)
    for _ in range(20):
        p = rand_problem(rng, n_orig=7, n_merged=2)
        total = sum(p.area.values())
        prev = None
        for frac in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
            p.area_budget = frac * total
            obj = solve(p).objective
            if prev is not None:
                assert obj <= prev
            prev = obj


def test_adding_merged_candidates_never_hurts():
    rng = random.Random(13)
    for _ in range(20):
        base = rand_problem(rng, n_orig=6, n_merged=0)
        with_merged = make_problem(
            6, [("m0", "f0", "f1"), ("m1", "f2", "f3")], rng,
            budget_frac=0.5)
        # align the shared constants so the instances differ only by M
        for x in base.names:
            with_merged.sw[x] = base.sw[x]
            with_merged.hw[x] = base.hw[x]
            with_merged.area[x] = base.area[x]
        with_merged.callees.update({x: set(base.callees[x]) for x in base.names})
        for mn in with_merged.merged:
            a, b = [p for p in ("f0", "f1")] if mn == "m0" else ["f2", "f3"]
            with_merged.callees[mn] = base.callees[a] | base.callees[b]
        with_merged.calls = dict(base.calls)
        with_merged.bytes_ = dict(base.bytes_)
        with_merged.latency = base.latency
        with_merged.bandwidth = base.bandwidth
        with_merged.area_budget = base.area_budget
        assert solve(with_merged).objective <= solve(base).objective


def test_frontier_exactly_on_paying_edges():
    rng = random.Random(31)
    for _ in range(40):
        p = rand_problem(rng, n_orig=6, n_merged=1)
        s = solve(p)
        expected = {}
        for i in p.names:
            if not s.swv.get(i, 0):
                continue
            for j in p.callees[i]:
                if s.hwv.get(j, 0):
                    expected[(i, j)] = 1
        assert s.frontier == expected


def test_zero_latency_infinite_bandwidth_knapsack_decomposition():
    # with no calls, no merges, free interconnect: a pure 0/1 knapsack over
    # per-function savings, checked against a direct dynamic program
    rng = random.Random(8)
    for _ in range(25):
        n = rng.randrange(3, 9)
        names = [f"f{i}" for i in range(n)]
        sw = {x: Fraction(rng.randrange(1, 60), 10 ** 6) for x in names}
        hw = {x: Fraction(rng.randrange(0, 60), 10 ** 6) for x in names}
        area = {x: float(rng.randrange(1, 20)) for x in names}
        budget = float(rng.randrange(0, 80))
        p = PartitionProblem(
            names, sw, hw, area, {x: set() for x in names}, {}, {},
            {x: set() for x in names}, set(names), set(),
            latency=0, bandwidth=INF_BANDWIDTH, area_budget=budget)
        got = solve(p).objective

        cap = int(budget)
        best = [Fraction(0)] * (cap + 1)
        for x in names:
            gain = max(sw[x] - hw[x], Fraction(0))
            w = int(area[x])
            if gain > 0:
                for c in range(cap, w - 1, -1):
                    cand = best[c - w] + gain
                    if cand > best[c]:
                        best[c] = cand
        expected = sum(sw.values()) - best[cap]
        assert got == expected


def test_build_problem_descend_and_roots(pair_module, area_model):
    from mergedse.merge import merge_functions
    m = pair_module.clone()
    mf = merge_functions(m, "sel_a", "sel_b")
    m.functions[mf.function.name] = mf.function
    cg = build_call_graph(m)
    from mergedse.cost import estimate_costs, module_rows
    from mergedse.ir import interpret
    trace = interpret(pair_module, "sel_a", [2, 3, 1]).trace
    costs = estimate_costs(module_rows(m, cg), trace, area_model)
    child = mf.function.name
    p = build_problem(m, costs, trace, {child: ("sel_a", "sel_b")},
                      area_budget=1000.0)
    assert p.descend["sel_a"] == {child}
    assert p.descend["sel_b"] == {child}
    assert child not in p.roots
    assert p.roots == set(m.functions) - {child}

    # no merged functions at all: descend empty, every function a root
    p2 = build_problem(pair_module, {n: costs[n] for n in pair_module.functions},
                       trace, {}, area_budget=10.0)
    assert all(not d for d in p2.descend.values())
    assert p2.roots == set(pair_module.functions)


def test_depth2_descend_transitive():
    rng = random.Random(4)
    p = make_problem(4, [("m0", "f0", "f1"), ("m1", "m0", "f2")], rng)
    assert p.descend["f0"] == {"m0", "m1"}
    assert p.descend["f2"] == {"m1"}
    assert "m1" in p.descend["f0"]
    s1, s2 = solve(p), solve_bruteforce(p)
    assert s1.objective == s2.objective


@pytest.mark.parametrize("order", ["parent-first", "child-first"])
def test_build_problem_descends_a_deep_merge_chain(order):
    # @n{k} merges @n{k-1} with @b, 2,000 levels deep: deeper than Python's
    # recursion limit. The module and the merge graph list the chain in
    # either order; descend is the transitive closure either way
    from types import SimpleNamespace
    from mergedse.ir import parse_module
    depth = 2000
    chain = [f"n{k}" for k in range(depth + 1)]
    listed = ["b"] + (chain if order == "parent-first" else chain[::-1])
    m = parse_module("".join(f"func @{x}(%x: i32) -> i32 {{\ne:\n"
                             "  ret i32 %x\n}\n" for x in listed))
    merge_parents = {x: (f"n{int(x[1:]) - 1}", "b")
                     for x in listed if x not in ("b", "n0")}
    cost = SimpleNamespace(own_sw=0, own_hw=0, own_area=1.0)
    p = build_problem(m, dict.fromkeys(listed, cost), None, merge_parents)
    want = {x: set(chain[k + 1:]) for k, x in enumerate(chain)}
    want["b"] = set(chain[1:])
    assert p.descend == want
    assert p.roots == {"b", "n0"}


def test_solve_is_not_bounded_by_the_recursion_limit():
    # 1,500 independent functions that all pay in hardware, all fitting the
    # budget: the search goes 1,500 decisions deep, beyond Python's default
    # recursion limit, and proves the all-hardware assignment optimal
    n = 1500
    names = [f"f{i}" for i in range(n)]
    p = PartitionProblem(
        names, {x: Fraction(2 + i % 7, 10 ** 6) for i, x in enumerate(names)},
        dict.fromkeys(names, Fraction(1, 10 ** 6)),
        {x: float(1 + i % 5) for i, x in enumerate(names)},
        {x: set() for x in names}, {}, {}, {x: set() for x in names},
        set(names), set(), area_budget=10.0 * n)
    assert n > sys.getrecursionlimit()
    s = solve(p)
    assert s.optimal and check_solution(p, s) == []
    assert s.hwv == dict.fromkeys(names, 1)
    assert s.objective == Fraction(n, 10 ** 6)


def test_bruteforce_rejects_large_instances():
    rng = random.Random(0)
    p = make_problem(21, [], rng)
    with pytest.raises(PartitionError, match="too large"):
        solve_bruteforce(p)


def record_nodes():
    """Re-pin solve_nodes.json's search counts after a bound change. It
    writes nothing unless every golden case still matches its recorded
    result and every randomized instance still matches brute force; the
    node-limit outcomes are results, not counts, and are kept as they are."""
    golden, rand = golden_failures(), bruteforce_failures(rand_2024_300())
    if golden or rand:
        sys.exit(f"results changed, nothing written: golden cases {golden}, "
                 f"random instances {rand}")
    pinned = json.loads(NODES.read_text())
    old = {k: pinned[k] for k in ("golden", "rand_2024_300_total")}
    pinned.update(node_counts())
    NODES.write_text("{" + ",\n".join(
        f"{json.dumps(k)}: " + ("[\n" + ",\n".join(map(json.dumps, v)) + "\n]"
                                if isinstance(v, list) else json.dumps(v))
        for k, v in pinned.items()) + "}\n")
    for key, pick in (("golden", lambda v: sum(n for _, _, n in v)),
                      ("rand_2024_300_total", lambda v: v)):
        print(f"{key}: {pick(old[key])} -> {pick(pinned[key])} nodes")


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        GOLDEN.write_text("[\n" + ",\n".join(json.dumps(g)
                                              for g in record_golden())
                          + "\n]\n")
    elif sys.argv[1:] == ["--record-nodes"]:
        record_nodes()
    else:
        sys.exit("usage: test_partition.py --record | --record-nodes")

"""Merging-aware HW/SW partitioning.

Selects, for every function, software execution, hardware acceleration, or
coverage by a merged descendant accelerator, minimizing total execution time
under an area budget and an interconnect model:

    minimize   sum_i (hwv_i*hw_i + swv_i*sw_i)
             + sum_{i, j in C_i} frontier_ij * (calls_ij*latency*clock
                                                + bytes_ij/bandwidth)
    subject to sum_i hwv_i*area_i <= area_budget
               each root covered exactly once by itself or a descendant
               hardware callers have every root callee covered in hardware
               frontier_ij >= swv_i + hwv_j - 1
               swv_i + hwv_i <= 1, all variables binary
               merged functions never run in software

Costs are exact rationals throughout so the branch-and-bound optimum can be
compared for equality against the brute-force oracle.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction

from .ir import IRError

log = logging.getLogger("mergedse")

INF_BANDWIDTH = Fraction(-1)  # sentinel: data movement is free


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        if x == float("inf"):
            return INF_BANDWIDTH
        return Fraction(x).limit_denominator(10 ** 12)
    return Fraction(x)


class PartitionError(IRError):
    pass


@dataclass
class PartitionProblem:
    names: list[str]                       # P' in a fixed order
    sw: dict[str, Fraction]                # own-extent software seconds
    hw: dict[str, Fraction]                # own-extent accelerated seconds
    area: dict[str, float]                 # own-body LUTs
    callees: dict[str, set[str]]           # C_i (direct and indirect)
    calls: dict[tuple[str, str], int]      # dynamic calls_ij
    bytes_: dict[tuple[str, str], Fraction]  # data moved per edge, bytes
    descend: dict[str, set[str]]           # merged descendants per function
    roots: set[str]                        # functions with no merge parent
    merged: set[str]                       # merged-provenance functions
    latency: int = 25                      # cycles per accelerator call
    bandwidth: Fraction = INF_BANDWIDTH    # bytes per second
    clock: Fraction = Fraction(1, 10 ** 9)
    area_budget: float = 0.0

    def edge_cost(self, i: str, j: str) -> Fraction:
        c = self.calls.get((i, j), 0)
        cost = c * self.latency * self.clock
        if self.bandwidth != INF_BANDWIDTH and self.bandwidth > 0:
            cost += self.bytes_.get((i, j), Fraction(0)) / self.bandwidth
        return cost


@dataclass
class PartitionSolution:
    hwv: dict[str, int]
    swv: dict[str, int]
    frontier: dict[tuple[str, str], int]
    objective: Fraction
    optimal: bool = True
    nodes: int = 0

    @property
    def software(self) -> list[str]:      # A'
        return sorted(n for n, v in self.swv.items() if v)

    @property
    def hardware(self) -> list[str]:      # B': original functions on hardware
        return sorted(n for n, v in self.hwv.items() if v and n not in self._merged)

    @property
    def merged_hw(self) -> list[str]:     # C: merged functions on hardware
        return sorted(n for n, v in self.hwv.items() if v and n in self._merged)

    _merged: set[str] = field(default_factory=set)


def build_problem(m, costs, trace, merge_parents: dict[str, tuple[str, str]],
                  latency: int = 25, bandwidth=float("inf"),
                  clock: Fraction = Fraction(1, 10 ** 9),
                  area_budget: float = 0.0) -> PartitionProblem:
    """Assemble the optimization instance from a module, its cost estimates,
    the all-software profile, and the merge graph (child -> parents)."""
    from .analysis import build_call_graph

    names = list(m.functions)
    missing = [n for n in names if n not in costs]
    if missing:
        raise PartitionError(f"missing cost estimates for {missing}")
    cg = build_call_graph(m)

    children: dict[str, set[str]] = {n: set() for n in names}
    for child, (p1, p2) in merge_parents.items():
        children[p1].add(child)
        children[p2].add(child)
    descend: dict[str, set[str]] = {}

    def desc(n: str) -> set[str]:
        if n not in descend:
            out = set()
            for c in children[n]:
                out.add(c)
                out |= desc(c)
            descend[n] = out
        return descend[n]

    for n in names:
        desc(n)
    merged = set(merge_parents)
    roots = {n for n in names if n not in merged}

    sw = {n: as_fraction(costs[n].own_sw) for n in names}
    hw = {n: as_fraction(costs[n].own_hw) for n in names}
    area = {n: float(costs[n].own_area) for n in names}
    calls = dict(trace.calls) if trace is not None else {}
    bytes_ = ({k: as_fraction(v) for k, v in trace.edge_bytes.items()}
              if trace is not None else {})
    return PartitionProblem(
        names=names, sw=sw, hw=hw, area=area,
        callees={n: set(cg.callees(n)) for n in names},
        calls=calls, bytes_=bytes_, descend=descend, roots=roots,
        merged=merged, latency=latency, bandwidth=as_fraction(bandwidth),
        clock=clock, area_budget=float(area_budget))


# ---------------------------------------------------------------------------
# Feasibility checking
# ---------------------------------------------------------------------------

def check_solution(p: PartitionProblem, s: PartitionSolution) -> list[str]:
    """All constraint violations by name; empty means feasible."""
    bad: list[str] = []
    for n in p.names:
        if s.swv.get(n, 0) + s.hwv.get(n, 0) > 1:
            bad.append(f"exclusivity: @{n} in both software and hardware")
        if n in p.merged and s.swv.get(n, 0):
            bad.append(f"merged-in-software: @{n}")
    used = sum(p.area[n] for n in p.names if s.hwv.get(n, 0))
    if used > p.area_budget + 1e-9:
        bad.append(f"area-budget: {used:.1f} > {p.area_budget:.1f}")
    for r in sorted(p.roots):
        cover = (s.swv.get(r, 0) + s.hwv.get(r, 0)
                 + sum(s.swv.get(d, 0) + s.hwv.get(d, 0) for d in p.descend[r]))
        if cover != 1:
            bad.append(f"root-coverage: @{r} covered {cover} times")
    for i in p.names:
        if not s.hwv.get(i, 0):
            continue
        for j in sorted(p.callees.get(i, ())):
            if j not in p.roots:
                continue
            cover = s.hwv.get(j, 0) + sum(s.hwv.get(d, 0) for d in p.descend[j])
            if cover < 1:
                bad.append(f"hw-callee: @{i} in hardware but root callee @{j} "
                           "not covered in hardware")
    for i in p.names:
        for j in sorted(p.callees.get(i, ())):
            if s.frontier.get((i, j), 0) < s.swv.get(i, 0) + s.hwv.get(j, 0) - 1:
                bad.append(f"frontier: ({i}->{j}) below swv_i + hwv_j - 1")
    return bad


def _objective(p: PartitionProblem, hwv: dict[str, int], swv: dict[str, int]
               ) -> tuple[Fraction, dict[tuple[str, str], int]]:
    total = Fraction(0)
    for n in p.names:
        if hwv.get(n, 0):
            total += p.hw[n]
        elif swv.get(n, 0):
            total += p.sw[n]
    frontier: dict[tuple[str, str], int] = {}
    for i in p.names:
        if not swv.get(i, 0):
            continue
        for j in p.callees.get(i, ()):
            if hwv.get(j, 0):
                frontier[(i, j)] = 1
                total += p.edge_cost(i, j)
    return total, frontier


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def solve_bruteforce(p: PartitionProblem) -> PartitionSolution:
    """Exhaustive enumeration over {software, hardware, covered} assignments.

    Merged functions enumerate {hardware, unselected}; root coverage then
    fixes which roots still need their own software-or-hardware choice.
    Frontier variables are derived, never enumerated.
    """
    if len(p.names) > 20:
        raise PartitionError("instance too large for brute force")
    merged = sorted(p.merged)
    roots = sorted(p.roots)
    best: tuple[Fraction, dict, dict] | None = None
    nodes = 0

    def eq5_ok(hwv: dict[str, int]) -> bool:
        for i in p.names:
            if not hwv.get(i, 0):
                continue
            for j in p.callees.get(i, ()):
                if j not in p.roots:
                    continue
                if not hwv.get(j, 0) and not any(hwv.get(d, 0)
                                                 for d in p.descend[j]):
                    return False
        return True

    def assign_roots(k: int, hwv: dict, swv: dict, area: float):
        nonlocal best, nodes
        if k == len(roots):
            nodes += 1
            if not eq5_ok(hwv):
                return
            obj, frontier = _objective(p, hwv, swv)
            if best is None or obj < best[0]:
                best = (obj, dict(hwv), dict(swv))
            return
        r = roots[k]
        cover = sum(hwv.get(d, 0) + swv.get(d, 0) for d in p.descend[r])
        if cover > 1:
            return
        if cover == 1:
            assign_roots(k + 1, hwv, swv, area)
            return
        a = p.area[r]
        if area + a <= p.area_budget + 1e-9:
            hwv[r] = 1
            assign_roots(k + 1, hwv, swv, area + a)
            del hwv[r]
        swv[r] = 1
        assign_roots(k + 1, hwv, swv, area)
        del swv[r]

    def assign_merged(k: int, hwv: dict, area: float):
        if k == len(merged):
            assign_roots(0, hwv, {}, area)
            return
        name = merged[k]
        a = p.area[name]
        if area + a <= p.area_budget + 1e-9:
            hwv[name] = 1
            assign_merged(k + 1, hwv, area + a)
            del hwv[name]
        assign_merged(k + 1, hwv, area)

    assign_merged(0, {}, 0.0)
    if best is None:
        raise PartitionError("infeasible instance")
    obj, hwv, swv = best
    _, frontier = _objective(p, hwv, swv)
    sol = PartitionSolution(hwv, swv, frontier, obj, optimal=True, nodes=nodes)
    sol._merged = set(p.merged)
    return sol


# ---------------------------------------------------------------------------
# Branch-and-bound solver
# ---------------------------------------------------------------------------

_HW, _SW, _NONE = 0, 1, 2


def solve(p: PartitionProblem, node_limit: int = 5_000_000) -> PartitionSolution:
    """Exact depth-first branch-and-bound.

    Decision order is by descending software-minus-hardware savings, trying
    hardware first. Unit propagation enforces the exactly-once root coverage
    and the hardware-callee closure; the bound combines the committed cost
    with a fractional-knapsack relaxation of the area constraint over the
    undecided functions (interconnect costs are nonnegative and ignored,
    keeping the bound admissible).
    """
    names = sorted(p.names, key=lambda x: (-(p.sw[x] - p.hw[x]), x))
    index = {x: k for k, x in enumerate(names)}
    n = len(names)

    groups = {r: [r] + sorted(p.descend[r]) for r in sorted(p.roots)}
    hw_callers_watch: dict[str, list[str]] = {r: [] for r in p.roots}
    callers_of: dict[str, list[str]] = {x: [] for x in p.names}
    for i in p.names:
        for j in sorted(p.callees.get(i, ())):
            callers_of[j].append(i)
            if j in p.roots:
                hw_callers_watch[j].append(i)

    state = [-1] * n          # -1 undecided, else _HW/_SW/_NONE
    best_obj: list = [None]
    best_state: list = [None]
    nodes = [0]
    hit_limit = [False]

    def allowed(name: str) -> tuple[int, ...]:
        if name in p.merged:
            return (_HW, _NONE)
        if p.descend[name]:
            return (_HW, _SW, _NONE)
        return (_HW, _SW)

    def delta_cost(st, name: str, choice: int) -> Fraction:
        """Objective increase from deciding `name`, counting frontier edges
        whose two endpoints are now both decided."""
        if choice == _NONE:
            return Fraction(0)
        if choice == _HW:
            d = p.hw[name]
            for i in callers_of[name]:
                if st[index[i]] == _SW:
                    d += p.edge_cost(i, name)
            return d
        d = p.sw[name]
        for j in p.callees.get(name, ()):
            if st[index[j]] == _HW:
                d += p.edge_cost(name, j)
        return d

    def feasible_complete(st) -> bool:
        for members in groups.values():
            if sum(1 for x in members if st[index[x]] in (_HW, _SW)) != 1:
                return False
        for j, callers in hw_callers_watch.items():
            if st[index[j]] == _HW or any(st[index[d]] == _HW
                                          for d in p.descend[j]):
                continue
            if any(st[index[i]] == _HW for i in callers):
                return False
        return True

    def propagate_ok(st, used_area: float) -> bool:
        if used_area > p.area_budget + 1e-9:
            return False
        for members in groups.values():
            selected = undecided = 0
            for x in members:
                s = st[index[x]]
                if s == -1:
                    undecided += 1
                elif s != _NONE:
                    selected += 1
            if selected > 1 or (selected == 0 and undecided == 0):
                return False
        for j, callers in hw_callers_watch.items():
            if not any(st[index[i]] == _HW for i in callers):
                continue
            cands = [j] + sorted(p.descend[j])
            if any(st[index[d]] == _HW for d in cands):
                continue
            if all(st[index[d]] != -1 for d in cands):
                return False
        return True

    def lower_bound(st, committed: Fraction, used_area: float) -> Fraction:
        base = committed
        savings: list[tuple[Fraction, float]] = []
        for k in range(n):
            if st[k] != -1:
                continue
            name = names[k]
            if name in p.merged or p.descend[name]:
                continue  # may contribute zero (covered / unselected)
            base += p.sw[name]
            gain = p.sw[name] - p.hw[name]
            if gain > 0:
                savings.append((gain, p.area[name]))
        if not savings:
            return base
        savings.sort(key=lambda t: (t[0] / t[1]) if t[1] > 0 else float("inf"),
                     reverse=True)
        room = p.area_budget - used_area
        saved = Fraction(0)
        for gain, a in savings:
            if a <= room:
                saved += gain
                room -= a
            elif room > 0:
                saved += gain  # straddling item granted fully: still a bound
                break
            else:
                break
        return base - saved

    def dfs(depth: int, st, used_area: float, committed: Fraction):
        if nodes[0] >= node_limit:
            hit_limit[0] = True
            return
        nodes[0] += 1
        if best_obj[0] is not None and committed >= best_obj[0]:
            return
        if (best_obj[0] is not None
                and lower_bound(st, committed, used_area) >= best_obj[0]):
            return
        if depth == n:
            if feasible_complete(st):
                if best_obj[0] is None or committed < best_obj[0]:
                    best_obj[0] = committed
                    best_state[0] = list(st)
            return
        name = names[depth]
        for choice in allowed(name):
            st[depth] = choice
            ua = used_area + (p.area[name] if choice == _HW else 0.0)
            if propagate_ok(st, ua):
                dfs(depth + 1, st, ua, committed + delta_cost(st, name, choice))
            st[depth] = -1

    dfs(0, state, 0.0, Fraction(0))
    if best_state[0] is None:
        raise PartitionError("infeasible instance (no software fallback?)")
    st = best_state[0]
    hwv = {name: 1 for k, name in enumerate(names) if st[k] == _HW}
    swv = {name: 1 for k, name in enumerate(names) if st[k] == _SW}
    obj, frontier = _objective(p, hwv, swv)
    assert obj == best_obj[0], "incremental cost drifted from recomputation"
    sol = PartitionSolution(hwv, swv, frontier, obj,
                            optimal=not hit_limit[0], nodes=nodes[0])
    sol._merged = set(p.merged)
    if hit_limit[0]:
        log.warning("solver node limit reached; best-found solution returned")
    return sol

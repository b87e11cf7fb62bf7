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

Costs are exact rationals, so the branch-and-bound optimum can be compared
for equality against the brute-force oracle. `solve` scales them once to
integers over a common denominator, keeps a node's state in bit sets, and
bounds each uncovered group by its cheapest cover, looked up by the group
and its open options; a merged function's cost is split over its groups by
their roots' costs, never above its sum, so it returns the same first
optimal assignment as a plain enumeration would.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from operator import or_

from .ir import IRError

log = logging.getLogger("mergedse")

INF_BANDWIDTH = Fraction(-1)  # sentinel: data movement is free
BANDWIDTH_ZERO = "bandwidth must be positive ('inf' makes data movement free)"


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
    # a `solver_plan` shared by problems differing only in area_budget
    plan: tuple | None = field(default=None, compare=False, repr=False)

    def edge_cost(self, i: str, j: str) -> Fraction:
        c = self.calls.get((i, j), 0)
        cost = c * self.latency * self.clock
        if self.bandwidth != INF_BANDWIDTH:
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
    from .analysis import build_call_graph, postorder

    names = list(m.functions)
    missing = [n for n in names if n not in costs]
    if missing:
        raise PartitionError(f"missing cost estimates for {missing}")
    if bandwidth == 0:
        raise PartitionError(BANDWIDTH_ZERO)
    cg = build_call_graph(m)

    children: dict[str, set[str]] = {n: set() for n in names}
    for child, (p1, p2) in merge_parents.items():
        children[p1].add(child)
        children[p2].add(child)
    descend: dict[str, set[str]] = {}
    for n in names:   # each function after its children, without recursion
        for x in postorder(n, lambda y: () if y in descend else children[y]):
            if x not in descend:
                descend[x] = set(children[x]).union(
                    *(descend[c] for c in children[x]))
    merged = set(merge_parents)
    roots = {n for n in names if n not in merged}

    sw = {n: as_fraction(costs[n].own_sw) for n in names}
    hw = {n: as_fraction(costs[n].own_hw) for n in names}
    area = {n: float(costs[n].own_area) for n in names}
    calls = dict(trace.calls) if trace is not None else {}
    edge_bytes = trace.edge_bytes if trace is not None else {}
    if edge_bytes is None and as_fraction(bandwidth) != INF_BANDWIDTH:
        raise PartitionError(f"bandwidth {bandwidth} prices data footprints, "
                             "and the trace recorded none")
    bytes_ = {k: as_fraction(v) for k, v in (edge_bytes or {}).items()}
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


def solver_plan(p: PartitionProblem) -> tuple:
    """All `solve` derives from p but the area budget: the decision order,
    the integer costs' scale, each depth's constants, each group's member
    bits and cover options, and the hull and cover tables that solves fill;
    problems differing only in area_budget may share it. A merged function
    k covers each g of its groups G at area[k] / len(G) and hw[k] * c_g //
    sum(c), c_g = min(sw, hw) of g's root (floor equal shares if every c is
    0): the shares sum to at most hw[k], which every leaf selecting k pays."""
    names = sorted(p.names, key=lambda x: (-(p.sw[x] - p.hw[x]), x))
    index = {x: k for k, x in enumerate(names)}
    n = len(names)
    roots = sorted(p.roots)
    groups_of: list[list[int]] = [[] for _ in names]
    for g, r in enumerate(roots):
        for x in [r, *p.descend[r]]:
            groups_of[index[x]].append(g)
    edges = {(i, j): p.edge_cost(i, j)
             for i in p.names for j in p.callees.get(i, ())}
    scale = math.lcm(*(c.denominator for c in [*p.sw.values(), *p.hw.values(),
                                                *edges.values()]))
    sw = [int(p.sw[x] * scale) for x in names]
    hw = [int(p.hw[x] * scale) for x in names]
    area = [p.area[x] for x in names]
    callers: list[list[tuple[int, int]]] = [[] for _ in names]
    callees: list[list[tuple[int, int]]] = [[] for _ in names]
    for (i, j), c in edges.items():
        if c:
            c = int(c * scale)
            callers[index[j]].append((index[i], c))
            callees[index[i]].append((index[j], c))
    choices = [(_HW, _NONE) if x in p.merged else
               (_HW, _SW, _NONE) if p.descend[x] else (_HW, _SW) for x in names]
    # Per group, each member's cover options (root: software or hardware)
    root_cost = [min(sw[index[r]], hw[index[r]]) for r in roots]
    options: list[list[tuple[int, list]]] = [[] for _ in roots]
    for k, gs in enumerate(groups_of):
        c = [root_cost[g] for g in gs]
        c = c if any(c) else [1] * len(c)
        for g, c_g in zip(gs, c):
            options[g].append((k, [(area[k] / len(gs), hw[k] * c_g // sum(c))]
                               if names[k] in p.merged else
                               [(0.0, sw[k]), (area[k], hw[k])]))

    # Bit sets: a group's members, a function's groups, the merged members
    # a function's selection blocks, the groups of its root callees, the
    # groups whose last member it is (closes) or at or before it (closed),
    # and the functions it and those after it decide
    group_bits = [sum(1 << index[x] for x in [r, *p.descend[r]]) for r in roots]
    merged_bits = sum(1 << index[x] for x in p.merged)
    in_groups = [sum(1 << g for g in gs) for gs in groups_of]
    blocks = [reduce(or_, (group_bits[g] for g in gs)) & merged_bits
              for gs in groups_of]
    callee_groups = [sum(1 << roots.index(j) for j in p.callees.get(x, ())
                         if j in p.roots) for x in names]
    closes = [0] * n
    for g, bits in enumerate(group_bits):
        closes[bits.bit_length() - 1] |= 1 << g
    closed = list(accumulate(closes, or_))
    undecided = [((1 << n) - 1) >> k << k for k in range(n)]
    levels = list(zip(choices, in_groups, blocks, area, callee_groups, closes,
                      closed, undecided, hw, sw, callers, callees))
    return names, scale, levels, group_bits, options, {}, {}


def solve(p: PartitionProblem, node_limit: int = 5_000_000) -> PartitionSolution:
    """Exact depth-first branch-and-bound.

    Functions are decided by descending software-minus-hardware savings
    (then name), trying hardware, software, then neither. A node's state is
    a handful of bit sets, passed down and never undone: over root groups (a
    root and its merged descendants), those with a selection, with a
    hardware selection and with a hardware caller of their root; over
    functions, the merged ones blocked by a selection in one of their
    groups. A decision may select into no group that already has a
    selection, and a group must be covered, in hardware if it has a hardware
    caller, once its last member in decision order is decided, so every leaf
    reached is feasible. The bound adds, for each uncovered group, its
    cheapest cover: the root in software or hardware, or an undecided,
    unblocked merged member at its shares of cost and area (`solver_plan`),
    which sum to at most what a leaf selecting it pays. It is the greedy LP
    relaxation of that multiple-choice knapsack (Sinha & Zoltners, 1979)
    over each group's lower convex hull, with the straddling step granted in
    full; interconnect costs are nonnegative and ignored. Costs are integers
    over one common denominator.

    A group's hull depends only on which of its options are open: its
    open-option bits, the undecided root and unblocked merged members. One
    table maps a group and those bits to the hull (groups price a shared
    member apart), built on first sight; another maps a node's open-option
    bits and covered groups to the summed cheapest covers and the sorted
    hull steps of its uncovered groups. A node's bound is then one lookup
    and the greedy, the same number the hull built at that node would give.
    Both tables and all else but the budget are the plan (`solver_plan`),
    p.plan's or one built here. Infeasible subtrees hold no leaf, the bound
    never exceeds a subtree's optimum, and the incumbent only changes on
    strict improvement, so the result is the first optimal leaf in decision
    order, the same assignment a plain enumeration returns even among
    exactly tied costs.
    """
    names, scale, levels, group_bits, options, hulls, covers = (
        p.plan or solver_plan(p))
    n, n_groups = len(names), len(group_bits)
    limit = p.area_budget + 1e-9

    st = [-1] * n             # -1 undecided, else _HW/_SW/_NONE
    best: int | None = None
    best_state: list[int] | None = None
    nodes = 0
    hit_limit = False

    def hull_of(g: int, state: int) -> tuple | None:
        """Cheapest cover (cost, area) and lower-hull steps (ratio, area,
        gain) of group g whose open options are the functions in state."""
        opts = [o for k, os in options[g] if state >> k & 1 for o in os]
        if not opts:
            return None
        opts.sort()
        hull = [opts[0]]
        for a2, c2 in opts[1:]:
            if c2 >= hull[-1][1]:
                continue
            while len(hull) > 1:
                (a0, c0), (a1, c1) = hull[-2], hull[-1]
                if (c1 - c0) * (a2 - a0) < (c2 - c0) * (a1 - a0):
                    break
                hull.pop()
            hull.append((a2, c2))
        return hull[0][1], hull[0][0], [
            ((c1 - c2) / (a2 - a1), a2 - a1, c1 - c2)
            for (a1, c1), (a2, c2) in zip(hull, hull[1:])]

    def cover(free: int, sel: int) -> tuple | None:
        """Summed cheapest cover cost, the nonzero cover areas in group
        order, and the hull steps sorted for the greedy, of the groups not
        in sel; None when one of them has no open option."""
        cost, areas, steps = 0, [], []
        for g, bits in enumerate(group_bits):
            if sel >> g & 1:
                continue
            key = g, free & bits
            if key not in hulls:
                hulls[key] = hull_of(*key)
            h = hulls[key]
            if h is None:
                return None
            cost += h[0]
            if h[1]:
                areas.append(h[1])
            steps += h[2]
        steps.sort(reverse=True)
        return cost, areas, steps

    def dfs(depth: int, used_area: float, committed: int, sel: int, hws: int,
            hwc: int, blocked: int):
        """The search below a node, which yields each child's arguments
        when it takes that child's choice. sel, hws, hwc: groups with a
        selection, a hardware selection and a hardware caller; blocked:
        merged functions in a group in sel."""
        nonlocal best, best_state, nodes, hit_limit
        if nodes >= node_limit:
            hit_limit = True
            return
        nodes += 1
        if best is not None and committed >= best:
            return
        if depth == n:
            best, best_state = committed, list(st)
            return
        (choices, mine, blocks, area, callee_groups, closes, closed, free,
         hw, sw, callers, callees) = levels[depth]
        # the bound, admissible on every leaf below: the uncovered groups'
        # cheapest covers, less the greedy's hull steps in the room left
        free &= ~blocked
        key = free << n_groups | sel
        entry = covers.get(key, False)
        if entry is False:
            entry = covers[key] = cover(free, sel)
        if entry is None:
            return
        cost, areas, steps = entry
        bound, room = committed + cost, limit - used_area
        for a in areas:   # x - 0.0 == x, so zero areas are left out
            room -= a
        if room < 0:
            return
        for _, da, gain in steps:
            if da <= room:
                bound -= gain
                room -= da
            else:
                if room > 0:
                    bound -= gain  # the straddling step, granted in full
                break
        if best is not None and bound >= best:
            return
        for c in choices:
            ua, s, h, w, b = used_area, sel, hws, hwc, blocked
            if c != _NONE:
                if sel & mine:
                    continue
                s, b = sel | mine, blocked | blocks
            if c == _HW:
                ua += area
                if ua > limit:
                    continue
                h, w = hws | mine, hwc | callee_groups
            # a group must be covered once its last member is decided, and
            # in hardware while it has a hardware caller; hws only grows, so
            # the closed groups that passed before still pass
            if closes & ~s or closed & w & ~h:
                continue
            st[depth] = c
            if c == _HW:
                d = hw + sum(e for i, e in callers if st[i] == _SW)
            elif c == _SW:
                d = sw + sum(e for j, e in callees if st[j] == _HW)
            else:
                d = 0
            yield depth + 1, ua, committed + d, s, h, w, b
        st[depth] = -1

    # depth first on an explicit stack of nodes' searches, not recursion: a
    # child is entered when its parent yields it, so node order, and st at
    # -1 below the deciding depth, are those of a recursive descent
    stack = [dfs(0, 0.0, 0, 0, 0, 0, 0)]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        else:
            stack.append(dfs(*child))
    if best_state is None:
        raise PartitionError("infeasible instance (no software fallback?)")
    hwv = {name: 1 for k, name in enumerate(names) if best_state[k] == _HW}
    swv = {name: 1 for k, name in enumerate(names) if best_state[k] == _SW}
    obj, frontier = _objective(p, hwv, swv)
    assert obj == Fraction(best, scale), \
        "incremental cost drifted from recomputation"
    sol = PartitionSolution(hwv, swv, frontier, obj,
                            optimal=not hit_limit, nodes=nodes)
    sol._merged = set(p.merged)
    if hit_limit:
        log.warning("solver node limit reached; best-found solution returned")
    return sol

"""End-to-end pipeline: profile, extract loops, merge, model costs, partition,
report. Implements the four configurations (FE, FLE, FE+Merging, FLE+Merging)
and sweeps over area budgets, interconnect latency, and bandwidth.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import product
from pathlib import Path

from .analysis import build_call_graph, extract_loops, rank_pairs
from .cost import (
    DEFAULT_CLOCK, DEFAULT_DATASET_SEED, DEFAULT_HW_CYCLES, CostEstimate,
    estimate_costs, estimate_profitability, load_model, merged_cost,
    synthetic_dataset, train_mlp,
)
from .ir import HeapImage, IRError, Module, Trace, run_heap_image
from .merge import DEFAULT_SEEDS, MergeRejected, merge_functions, verify_merge
from .partition import (
    BANDWIDTH_ZERO, PartitionSolution, build_problem, solve,
)

log = logging.getLogger("mergedse")

MODES = ("FE", "FLE", "FE+Merging", "FLE+Merging")

# Paper-style preset operating points.
PRESET_BUDGETS = [1000, 3000, 10000, 30000, 100000, 300000, 1000000]
PRESET_LATENCIES = [25, 500]
PRESET_BANDWIDTHS = [1e9, 4e9, float("inf")]
AREA_PRESETS = {"artix-z7007s": 14400.0, "artix-z7012s": 34400.0}

CSV_HEADER = ("config,budget_luts,latency_cycles,bandwidth_bps,objective_s,"
              "speedup,area_used,comm_pct,n_merged_selected")
REPORT_SCHEMA = "dse-report/v1"


@dataclass
class PipelineConfig:
    mode: str = "FLE+Merging"
    area_budget: float = AREA_PRESETS["artix-z7007s"]
    latency: int = 25
    bandwidth: float = float("inf")
    clock: Fraction = DEFAULT_CLOCK
    min_similarity: float = 0.3
    seeds: int = DEFAULT_SEEDS
    merge_depth: int = 2
    verify_trials: int = 48
    seed: int = 7
    sw_table: dict[str, int] | None = None
    hw_table: dict[str, int] | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise IRError(f"unknown mode {self.mode!r} (choose from {MODES})")
        for name in ("area_budget", "latency", "bandwidth", "clock"):
            v = getattr(self, name)
            # NaN passes every comparison; inf is only an unlimited bandwidth
            if v != v or (v == float("inf") and name != "bandwidth"):
                raise IRError(f"{name} must be "
                              f"{'a number' if v != v else 'finite'}, got {v}")
            if v < 0 and name != "clock":
                raise IRError(f"{name} must be non-negative")
        for name in ("seeds", "verify_trials"):
            if getattr(self, name) < 1:
                raise IRError(f"{name} must be at least 1")
        if self.bandwidth == 0:
            raise IRError(BANDWIDTH_ZERO)
        if self.clock <= 0:
            raise IRError("clock must be positive")


@dataclass
class MergeRecord:
    name: str
    parents: tuple[str, str]
    similarity: float
    aligned_fraction: float
    verified: bool
    trials: int
    area: float            # merged standalone area (hierarchical features)
    parents_area: float    # sum of the parents' standalone areas
    ep: float
    selected: bool = False


@dataclass
class DseReport:
    program: str
    mode: str
    budget: float
    latency: int
    bandwidth: float
    objective: Fraction
    baseline: Fraction
    speedup: float
    software: list[str]
    hardware: list[str]
    merged_hw: list[str]
    area_used: float
    sw_pct: float
    hw_pct: float
    comm_pct: float
    funnel: dict[str, int]
    merges: list[MergeRecord] = field(default_factory=list)
    n_merged_selected: int = 0
    optimal: bool = True       # solver status; not emitted under dse-report/v1
    solver_nodes: int = 0


@dataclass
class Prepared:
    """Mode-level pipeline state shared by every sweep point."""
    module: Module
    trace: Trace
    costs: dict[str, CostEstimate]
    merge_parents: dict[str, tuple[str, str]]
    merges: list[MergeRecord]
    funnel: dict[str, int]
    baseline: Fraction


# written by `mergedse train --seed 7`; tests check it against a fresh training
BUNDLED_MODEL = Path(__file__).parent / "models" / "mlp-seed7.txt"


def default_model(seed: int = DEFAULT_DATASET_SEED):
    """The bundled area model: an MLP trained on the synthetic-oracle dataset.
    The default seed's model ships as package data; other seeds train it."""
    if seed == DEFAULT_DATASET_SEED:
        return load_model(BUNDLED_MODEL)
    _, X, y = synthetic_dataset(600, seed)
    split = int(0.8 * len(X))
    return train_mlp(X[:split], y[:split], seed=seed)


def _profile(m: Module, images: list[HeapImage], fuel: int = 10 ** 8) -> Trace:
    trace = Trace()
    for img in images:
        trace.merge(run_heap_image(m, img, fuel=fuel).trace)
    return trace


def _merged_depth(name: str, parents: dict[str, tuple[str, str]]) -> int:
    if name not in parents:
        return 0
    a, b = parents[name]
    return 1 + max(_merged_depth(a, parents), _merged_depth(b, parents))


def _covered_invocations(name: str, parents, trace) -> int:
    if name not in parents:
        return trace.invocations.get(name, 0)
    a, b = parents[name]
    return (_covered_invocations(a, parents, trace)
            + _covered_invocations(b, parents, trace))


def prepare(m: Module, images: list[HeapImage], cfg: PipelineConfig,
            model=None) -> Prepared:
    """Run the mode's transform + profile + merge + cost stages once."""
    work = extract_loops(m) if cfg.mode.startswith("FLE") else m.clone()
    trace = _profile(work, images)
    if model is None:
        model = default_model(cfg.seed)

    merge_parents: dict[str, tuple[str, str]] = {}
    merges: list[MergeRecord] = []
    funnel = {"ranked": 0, "aligned": 0, "verified": 0, "area_win": 0,
              "ep_positive": 0, "selected": 0}

    cg = build_call_graph(work)
    costs = estimate_costs(work, trace, model, cg, cfg.sw_table, cfg.hw_table,
                           cfg.clock)
    baseline = sum((costs[n].own_sw for n in work.functions), Fraction(0))

    if cfg.mode.endswith("Merging"):
        hw_sel = (cfg.hw_table or DEFAULT_HW_CYCLES)["select"]
        # parent outcomes of verification trials, shared by every candidate:
        # `work` only gains functions under fresh names below
        verify_memo: dict = {}
        for depth_round in range(1, cfg.merge_depth + 1):
            pairs = rank_pairs(work, cfg.min_similarity)
            if depth_round > 1:
                # only pairs that deepen the merge tree by exactly one level
                pairs = [pr for pr in pairs
                         if max(_merged_depth(pr[0], merge_parents),
                                _merged_depth(pr[1], merge_parents))
                         == depth_round - 1]
                if not pairs:
                    break
            added = 0
            for n1, n2, sim in pairs:
                funnel["ranked"] += 1
                try:
                    mf = merge_functions(work, n1, n2, seeds=cfg.seeds)
                except MergeRejected as e:
                    log.debug("merge %s+%s rejected: %s", n1, n2, e)
                    continue
                funnel["aligned"] += 1
                rep = verify_merge(work, n1, n2, mf, trials=cfg.verify_trials,
                                   seed=cfg.seed, memo=verify_memo)
                if not rep.passed:
                    log.error("merged %s failed verification: %s",
                              mf.function.name, rep.detail)
                    continue
                funnel["verified"] += 1

                inv = (_covered_invocations(n1, merge_parents, trace)
                       + _covered_invocations(n2, merge_parents, trace))
                glue = ((mf.mux_selects * hw_sel + 1) * inv) * cfg.clock
                name = mf.function.name
                view = Module({**work.functions, name: mf.function}, work.entry)
                est = merged_cost(view, name, model, build_call_graph(view),
                                  costs[n1], costs[n2], glue)
                parents_area = costs[n1].area + costs[n2].area
                record = MergeRecord(name, (n1, n2), sim,
                                     mf.alignment.aligned_fraction,
                                     rep.passed, rep.trials, est.area,
                                     parents_area, float("nan"))
                merges.append(record)
                if not est.area < parents_area:
                    continue
                funnel["area_win"] += 1

                record.ep = float(estimate_profitability(
                    costs[n1].sw, costs[n2].sw, costs[n1].hw, costs[n2].hw,
                    est.hw, baseline)) if baseline > 0 else 0.0
                if record.ep <= 0:
                    continue
                funnel["ep_positive"] += 1

                # accepted: extend the working module and the cost table
                work.functions[name] = mf.function
                merge_parents[name] = (n1, n2)
                costs[name] = est
                added += 1
            if added == 0:
                break
    return Prepared(work, trace, costs, merge_parents, merges, funnel, baseline)


def partition_point(prep: Prepared, cfg: PipelineConfig, budget: float,
                    latency: int, bandwidth) -> tuple[PartitionSolution, object]:
    problem = build_problem(prep.module, prep.costs, prep.trace,
                            prep.merge_parents, latency=latency,
                            bandwidth=bandwidth, clock=cfg.clock,
                            area_budget=budget)
    return solve(problem), problem


def _report_for(prep: Prepared, cfg: PipelineConfig, sol: PartitionSolution,
                problem, program: str, budget: float, latency: int,
                bandwidth) -> DseReport:
    sw_time = sum((problem.sw[n] for n, v in sol.swv.items() if v), Fraction(0))
    hw_time = sum((problem.hw[n] for n, v in sol.hwv.items() if v), Fraction(0))
    comm = sol.objective - sw_time - hw_time
    obj = sol.objective
    pct = (lambda x: float(100 * x / obj) if obj > 0 else 0.0)
    merged_sel = set(sol.merged_hw)
    merges = [replace(r, selected=r.name in merged_sel) for r in prep.merges]
    funnel = dict(prep.funnel)
    funnel["selected"] = len(merged_sel)
    return DseReport(
        program=program, mode=cfg.mode, budget=budget, latency=latency,
        bandwidth=float(bandwidth),
        objective=obj, baseline=prep.baseline,
        speedup=float(prep.baseline / obj) if obj > 0 else 1.0,
        software=sol.software, hardware=sol.hardware,
        merged_hw=sol.merged_hw,
        area_used=sum(problem.area[n] for n, v in sol.hwv.items() if v),
        sw_pct=pct(sw_time), hw_pct=pct(hw_time), comm_pct=pct(comm),
        funnel=funnel, merges=merges, n_merged_selected=len(merged_sel),
        optimal=sol.optimal, solver_nodes=sol.nodes)


def run_pipeline(m: Module, images: list[HeapImage], cfg: PipelineConfig,
                 model=None, program: str = "program") -> DseReport:
    """One full pipeline pass at one operating point."""
    prep = prepare(m, images, cfg, model)
    sol, problem = partition_point(prep, cfg, cfg.area_budget, cfg.latency,
                                   cfg.bandwidth)
    return _report_for(prep, cfg, sol, problem, program, cfg.area_budget,
                       cfg.latency, cfg.bandwidth)


def sweep(m: Module, images: list[HeapImage], cfg: PipelineConfig,
          budgets: list[float] | None = None,
          latencies: list[int] | None = None,
          bandwidths: list[float] | None = None,
          modes: list[str] | None = None,
          model=None, program: str = "program") -> list[DseReport]:
    """Cartesian product over (mode, budget, latency, bandwidth)."""
    for lst in (budgets, latencies, bandwidths, modes):
        if lst is not None and not lst:
            raise IRError("sweep parameter lists must be non-empty")
    budgets = PRESET_BUDGETS if budgets is None else budgets
    latencies = PRESET_LATENCIES if latencies is None else latencies
    bandwidths = PRESET_BANDWIDTHS if bandwidths is None else bandwidths
    modes = list(MODES) if modes is None else modes
    # every grid point is a valid configuration before any mode is prepared
    for mode, b, l, bw in product(modes, budgets, latencies, bandwidths):
        PipelineConfig(**{**cfg.__dict__, "mode": mode, "area_budget": b,
                          "latency": l, "bandwidth": bw})
    if model is None:
        model = default_model(cfg.seed)

    out: list[DseReport] = []
    for mode in modes:
        mcfg = PipelineConfig(**{**cfg.__dict__, "mode": mode})
        prep = prepare(m, images, mcfg, model)
        for b in budgets:
            for l in latencies:
                for bw in bandwidths:
                    sol, problem = partition_point(prep, mcfg, b, l, bw)
                    out.append(_report_for(prep, mcfg, sol, problem, program,
                                           b, l, bw))
    return out


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _fmt_bw(bw: float) -> str:
    return "inf" if bw == float("inf") else repr(float(bw))


def reports_to_csv(reports: list[DseReport]) -> str:
    lines = [CSV_HEADER]
    for r in reports:
        lines.append(",".join([
            r.mode, repr(float(r.budget)), str(r.latency), _fmt_bw(r.bandwidth),
            repr(float(r.objective)), repr(r.speedup), repr(float(r.area_used)),
            repr(r.comm_pct), str(r.n_merged_selected)]))
    return "\n".join(lines) + "\n"


def report_to_dict(r: DseReport) -> dict:
    return {
        "program": r.program,
        "mode": r.mode,
        "budget_luts": float(r.budget),
        "latency_cycles": r.latency,
        "bandwidth_bps": None if r.bandwidth == float("inf") else float(r.bandwidth),
        "objective_s": float(r.objective),
        "objective_exact": [r.objective.numerator, r.objective.denominator],
        "baseline_s": float(r.baseline),
        "speedup": r.speedup,
        "software": r.software,
        "hardware": r.hardware,
        "merged_hw": r.merged_hw,
        "area_used": float(r.area_used),
        "breakdown_pct": {"sw": r.sw_pct, "hw": r.hw_pct, "comm": r.comm_pct},
        "funnel": r.funnel,
        "merges": [{
            "name": mr.name, "parents": list(mr.parents),
            "similarity": mr.similarity,
            "aligned_fraction": mr.aligned_fraction,
            "verified": mr.verified, "trials": mr.trials,
            "area": mr.area, "parents_area": mr.parents_area,
            "ep": None if mr.ep != mr.ep else mr.ep,
            "selected": mr.selected,
        } for mr in r.merges],
    }


def reports_to_json(reports: list[DseReport]) -> str:
    doc = {"schema": REPORT_SCHEMA,
           "reports": [report_to_dict(r) for r in reports]}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


_REPORT_KEYS = {
    "program": str, "mode": str, "budget_luts": (int, float),
    "latency_cycles": int, "bandwidth_bps": (int, float, type(None)),
    "objective_s": (int, float), "objective_exact": list,
    "baseline_s": (int, float), "speedup": (int, float),
    "software": list, "hardware": list, "merged_hw": list,
    "area_used": (int, float), "breakdown_pct": dict, "funnel": dict,
    "merges": list,
}


def validate_report_json(doc) -> list[str]:
    """Schema check for emitted JSON; returns a list of problems."""
    bad = []
    if not isinstance(doc, dict):
        return ["top level is not an object"]
    if doc.get("schema") != REPORT_SCHEMA:
        bad.append(f"schema is not {REPORT_SCHEMA!r}")
    reports = doc.get("reports")
    if not isinstance(reports, list):
        return bad + ["reports is not a list"]
    for k, r in enumerate(reports):
        if not isinstance(r, dict):
            bad.append(f"reports[{k}] is not an object")
            continue
        for key, ty in _REPORT_KEYS.items():
            if key not in r:
                bad.append(f"reports[{k}] missing {key}")
            elif not isinstance(r[key], ty):
                bad.append(f"reports[{k}].{key} has wrong type")
        if isinstance(r.get("breakdown_pct"), dict):
            for part in ("sw", "hw", "comm"):
                if part not in r["breakdown_pct"]:
                    bad.append(f"reports[{k}].breakdown_pct missing {part}")
        if isinstance(r.get("mode"), str) and r["mode"] not in MODES:
            bad.append(f"reports[{k}].mode unknown")
    return bad


# ---------------------------------------------------------------------------
# Bundled corpus
# ---------------------------------------------------------------------------

def corpus_dir() -> Path:
    return Path(__file__).parent / "corpus"


def corpus_programs() -> list[tuple[str, Path, Path]]:
    """(name, ir path, heap path) for every bundled program."""
    out = []
    for ir_path in sorted(corpus_dir().glob("*.ir")):
        heap = ir_path.with_suffix(".heap")
        out.append((ir_path.stem, ir_path, heap if heap.exists() else None))
    return out

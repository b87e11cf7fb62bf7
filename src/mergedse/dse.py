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
from numbers import Integral, Rational, Real
from pathlib import Path

from .analysis import build_call_graph, extract_loops, rank_pairs
from .cost import (
    DEFAULT_CLOCK, DEFAULT_DATASET_SEED, DEFAULT_HW_CYCLES, DEFAULT_SW_CYCLES,
    CostEstimate, estimate_costs, estimate_profitability, feature_rows,
    load_model, merged_area, merged_cost, module_rows, synthetic_dataset,
    train_mlp,
)
from .ir import (OPCODES, HeapImage, IRError, Module, Program, Trace,
                 run_heap_image)
from .merge import MergeRejected, merge_functions, verify_merge
from .partition import (
    BANDWIDTH_ZERO, PartitionSolution, build_problem, solve, solver_plan,
)

log = logging.getLogger("mergedse")

MODES = ("FE", "FLE", "FE+Merging", "FLE+Merging")

# Paper-style preset operating points.
PRESET_BUDGETS = [1000, 3000, 10000, 30000, 100000, 300000, 1000000]
PRESET_LATENCIES = [25, 500]
PRESET_BANDWIDTHS = [1e9, 4e9, float("inf")]
AREA_PRESETS = {"artix-z7007s": 14400.0, "artix-z7012s": 34400.0}

MIN_SIMILARITY = 0.3   # ranked pairs below this are not merge candidates

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
    seed: int = 7   # picks the area model (`default_model`) when none is given
    # cycles per opcode: the defaults, with the given entries overriding
    sw_table: dict[str, int] | None = None
    hw_table: dict[str, int] | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise IRError(f"unknown mode {self.mode!r} (choose from {MODES})")
        for name in ("area_budget", "latency", "bandwidth", "clock"):
            v = getattr(self, name)
            if not isinstance(v, Real):   # a string would fail to compare
                raise IRError(f"{name} must be a number, got {v!r}")
            # NaN passes every comparison; inf is only an unlimited bandwidth
            if v != v or (v == float("inf") and name != "bandwidth"):
                raise IRError(f"{name} must be "
                              f"{'a number' if v != v else 'finite'}, got {v}")
            if v < 0 and name != "clock":
                raise IRError(f"{name} must be non-negative")
        if not isinstance(self.latency, Integral):
            raise IRError(f"latency must be an integer, got {self.latency}")
        for side, table in (("sw", self.sw_table), ("hw", self.hw_table)):
            for op, cycles in (table or {}).items():
                if op not in OPCODES:
                    raise IRError(f"{side}_table key {op!r} is not an opcode")
                if not isinstance(cycles, Real):
                    raise IRError(f"{side}_table[{op!r}] must be a number, "
                                  f"got {cycles!r}")
                if cycles != cycles or cycles == float("inf"):
                    raise IRError(f"{side}_table[{op!r}] must be a finite "
                                  f"number, got {cycles}")
                if cycles < 0:
                    raise IRError(f"{side}.{op} must be non-negative, "
                                  f"got {cycles}")
                if not isinstance(cycles, Integral):
                    raise IRError(f"{side}_table[{op!r}] must be an integer, "
                                  f"got {cycles}")
        if self.bandwidth == 0:
            raise IRError(BANDWIDTH_ZERO)
        if not isinstance(self.clock, Rational):   # a float, as --clock gives
            self.clock = Fraction(self.clock).limit_denominator(10 ** 15)
        if self.clock <= 0:
            raise IRError("clock must be positive")
        self.sw_table = {**DEFAULT_SW_CYCLES, **(self.sw_table or {})}
        self.hw_table = {**DEFAULT_HW_CYCLES, **(self.hw_table or {})}


@dataclass
class MergeRecord:
    name: str
    parents: tuple[str, str]
    similarity: float
    aligned_fraction: float
    area: float            # merged standalone area (hierarchical features)
    parents_area: float    # sum of the parents' standalone areas
    ep: float


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
    # the mode's records, one list shared by its reports; a record is
    # selected at this point when its name is in merged_hw
    merges: list[MergeRecord] = field(default_factory=list)
    n_merged_selected: int = 0
    optimal: bool = True       # solver status; not emitted under dse-report/v1
    solver_nodes: int = 0


@dataclass
class Prepared:
    """Mode-level pipeline state shared by every sweep point. Its trace holds
    footprints (`edge_bytes`) only when a finite bandwidth reads them."""
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


def _profile(m: Module, images: list[HeapImage], footprints: bool) -> Trace:
    # one Program decodes each function once for all images' runs
    trace, prog = Trace(), Program(m, footprints)
    for img in images:
        trace.merge(run_heap_image(prog, img).trace)
    return trace


def prepare(m: Module, images: list[HeapImage], cfg: PipelineConfig,
            model=None) -> Prepared:
    """Run the mode's transform + profile + merge + cost stages once.
    Footprints are profiled only when a finite `cfg.bandwidth` reads them.
    A merging mode merges in two rounds: over every ranked pair, then, if
    that accepted a merge, over the ranked pairs holding one, which cannot
    pay: a merged parent has no software time (ROADMAP item 1)."""
    work = extract_loops(m) if cfg.mode.startswith("FLE") else m.clone()
    trace = _profile(work, images, cfg.bandwidth != float("inf"))
    if model is None:
        model = default_model(cfg.seed)

    merge_parents: dict[str, tuple[str, str]] = {}
    merges: list[MergeRecord] = []
    funnel = {"ranked": 0, "aligned": 0, "verified": 0, "area_win": 0,
              "ep_positive": 0, "selected": 0}

    rows = module_rows(work, build_call_graph(work))
    costs = estimate_costs(rows, trace, model, cfg.sw_table, cfg.hw_table,
                           cfg.clock)
    baseline = sum((costs[n].own_sw for n in work.functions), Fraction(0))

    def merge_round(pairs):
        for n1, n2, sim in pairs:
            funnel["ranked"] += 1
            try:
                mf = merge_functions(work, n1, n2, memo=memo)
            except MergeRejected as e:
                log.debug("merge %s+%s rejected: %s", n1, n2, e)
                continue
            funnel["aligned"] += 1
            rep = verify_merge(work, mf, memo=memo)
            if not rep.passed:
                log.error("merged %s failed verification: %s",
                          mf.function.name, rep.detail)
                continue
            funnel["verified"] += 1

            # priced as read: the record its area, ep its hardware time
            name, row = mf.function.name, feature_rows(mf.function, rows)
            area, c1, c2 = merged_area(rows, row, model), costs[n1], costs[n2]
            parents_area = c1.area + c2.area
            record = MergeRecord(name, (n1, n2), sim,
                                 mf.alignment.aligned_fraction, area,
                                 parents_area, float("nan"))
            merges.append(record)
            if not area < parents_area:
                continue
            funnel["area_win"] += 1

            # a pair holds no function merged twice, so this is exact
            inv = sum(trace.invocations.get(p, 0) for n in (n1, n2)
                      for p in merge_parents.get(n, (n,)))
            glue = ((mf.mux_selects * hw_sel + 1) * inv) * cfg.clock
            record.ep = float(estimate_profitability(
                c1.sw, c2.sw, c1.hw, c2.hw, c1.hw + c2.hw + glue,
                baseline)) if baseline > 0 else 0.0
            if record.ep <= 0:
                continue
            funnel["ep_positive"] += 1

            # accepted: priced before its row joins the working module's rows
            costs[name] = merged_cost(rows, row, model, c1, c2, glue, area)
            work.functions[name] = mf.function
            rows[name] = row
            merge_parents[name] = (n1, n2)

    if cfg.mode.endswith("Merging"):
        hw_sel = cfg.hw_table["select"]
        # working functions' analyses, shared by every candidate: `work`
        # only gains fresh names below
        memo: dict = {}
        merge_round(rank_pairs(work, MIN_SIMILARITY))
        if merge_parents:
            merge_round([pr for pr in rank_pairs(work, MIN_SIMILARITY)
                         if pr[0] in merge_parents or pr[1] in merge_parents])
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
    merged_hw = sol.merged_hw
    funnel = dict(prep.funnel)
    funnel["selected"] = len(merged_hw)
    return DseReport(
        program=program, mode=cfg.mode, budget=budget, latency=latency,
        bandwidth=float(bandwidth),
        objective=obj, baseline=prep.baseline,
        speedup=float(prep.baseline / obj) if obj > 0 else 1.0,
        software=sol.software, hardware=sol.hardware,
        merged_hw=merged_hw,
        area_used=sum(problem.area[n] for n, v in sol.hwv.items() if v),
        sw_pct=pct(sw_time), hw_pct=pct(hw_time), comm_pct=pct(comm),
        funnel=funnel, merges=prep.merges, n_merged_selected=len(merged_hw),
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
    """Cartesian product over (mode, budget, latency, bandwidth). Footprints
    are profiled if a bandwidth is finite: only a finite one reads them.
    Each (mode, latency, bandwidth) is one problem and solver plan, and
    each budget solves its own copy sharing the plan."""
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

    # a repeated mode is prepared once and a repeated grid point solved once
    out: list[DseReport] = []
    preps: dict[str, tuple[Prepared, PipelineConfig, dict]] = {}
    points: dict[tuple, DseReport] = {}
    for key in product(modes, budgets, latencies, bandwidths):
        mode, b, l, bw = key
        if mode not in preps:
            # min(bandwidths) is finite if any bandwidth is, so prepare
            # records footprints exactly when some point reads them
            mcfg = PipelineConfig(**{**cfg.__dict__, "mode": mode,
                                     "bandwidth": min(bandwidths)})
            preps[mode] = prepare(m, images, mcfg, model), mcfg, {}
        if key not in points:
            prep, mcfg, problems = preps[mode]
            if (l, bw) not in problems:
                base = problems[l, bw] = build_problem(
                    prep.module, prep.costs, prep.trace, prep.merge_parents,
                    latency=l, bandwidth=bw, clock=mcfg.clock)
                base.plan = solver_plan(base)
            problem = replace(problems[l, bw], area_budget=float(b))
            points[key] = _report_for(prep, mcfg, solve(problem), problem,
                                      program, b, l, bw)
        out.append(points[key])
    return out


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def reports_to_csv(reports: list[DseReport]) -> str:
    lines = [CSV_HEADER]
    for r in reports:
        lines.append(",".join([
            r.mode, repr(float(r.budget)), str(r.latency),
            repr(float(r.bandwidth)),   # repr(inf) is "inf"
            repr(float(r.objective)), repr(r.speedup), repr(float(r.area_used)),
            repr(r.comm_pct), str(r.n_merged_selected)]))
    return "\n".join(lines) + "\n"


def _merge_dict(mr: MergeRecord, selected: bool) -> dict:
    # only a proved merge gets a record: "verified" and "trials" are
    # dse-report/v1 constants, which v2's per-side verification replaces
    return {
        "name": mr.name, "parents": list(mr.parents),
        "similarity": mr.similarity,
        "aligned_fraction": mr.aligned_fraction,
        "verified": True, "trials": 48,
        "area": mr.area, "parents_area": mr.parents_area,
        "ep": None if mr.ep != mr.ep else mr.ep,
        "selected": selected,
    }


def _point_dict(r: DseReport, merges: list) -> dict:
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
        "merges": merges,   # the last key: reports_to_json splices it
    }


def report_to_dict(r: DseReport) -> dict:
    selected = set(r.merged_hw)
    return _point_dict(r, [_merge_dict(mr, mr.name in selected)
                           for mr in r.merges])


# one encoder for every document; with an indent CPython encodes in Python
_ENCODER = json.JSONEncoder(indent=2, allow_nan=False)


def _at(text: str, depth: int) -> str:
    """An indent=2 `text` placed at nesting depth `depth`. The layout is
    additive: a value at depth k is its own text with 2k more spaces after
    every newline (strings hold no raw newline)."""
    return text.replace("\n", "\n" + "  " * depth)


def _with_list(text: str, items: list[str], depth: int) -> str:
    """`text`, the indent=2 encoding of an object whose last value is an
    empty list, placed at depth `depth` with `items`, texts already at
    depth + 2, in that list."""
    pad = "\n" + "  " * depth
    head = _at(text[:-len("[]\n}")], depth)
    if not items:
        return head + "[]" + pad + "}"
    sep = pad + "    "
    return head + "[" + sep + ("," + sep).join(items) + pad + "  ]" + pad + "}"


def reports_to_json(reports: list[DseReport]) -> str:
    """The `dse-report/v1` document: exactly `json.dumps(doc, indent=2,
    allow_nan=False) + "\n"` of every `report_to_dict`, and like it raising
    ValueError on a non-finite number. A mode's reports share one merge
    record list, so each (record, selected) pair is encoded once per
    document and spliced into every report that holds it."""
    records: dict[tuple[int, bool], str] = {}
    texts = []
    for r in reports:
        selected = set(r.merged_hw)
        items = []
        for mr in r.merges:
            key = (id(mr), mr.name in selected)
            text = records.get(key)
            if text is None:
                text = records[key] = _at(
                    _ENCODER.encode(_merge_dict(mr, key[1])), 4)
            items.append(text)
        texts.append(_with_list(_ENCODER.encode(_point_dict(r, [])), items, 2))
    doc = _ENCODER.encode({"schema": REPORT_SCHEMA, "reports": []})
    return _with_list(doc, texts, 0) + "\n"


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

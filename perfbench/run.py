#!/usr/bin/env python3
"""The mergedse benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload dse-corpus --seed 7 --seconds 12 --trace 0

Run from the repository root. The pipeline is imported from ``src/``. Set-up
(training the area model and parsing the inputs) is timed once; then whole
passes over the workload's calls repeat while another pass fits in
``--seconds`` (at least one). Pass and call times are reported in units of
a reference block timed through the pass (see ``Sampler``). Every call's
emitted CSV+JSON is checked: against the digests recorded in
``digests.json`` for this seed when there are any, and against
seed-independent report invariants always.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. A traced run makes one untraced pass, then one pass with
spans recorded around every layer (see ``spans.py``); the spans are written
to ``perfbench/out/``. ``--record`` (traced runs only) stores this commit's
digests for the seed once every check of the traced run has passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import threading
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGESTS = BENCH / "digests.json"
OUT = BENCH / "out"


@dataclass
class Outcome:
    """One call's result in one pass."""

    label: str
    latency: float
    reports: list | None = None
    csv: str = ""
    json: str = ""
    error: str | None = None
    latency_ref: float = 0.0   # latency in reference blocks (measured passes)

    @property
    def digest(self) -> str:
        return hashlib.sha256((self.csv + self.json).encode()).hexdigest()


@dataclass
class Pass:
    """One pass over a workload's calls."""

    outcomes: list[Outcome]
    seconds: float                  # the calls and their emission, wall time
    ref: list[float]                # reference blocks timed during the pass

    @property
    def ref_unit(self) -> float:
        return statistics.fmean(self.ref)


# On a shared 2-core x86 virtual machine the same CPU-bound pass ran 15-40%
# slower or faster from one run to the next, and by up to 25% from one pass
# to the next (other tenants share the cores). A fixed block of pure-Python
# work that never touches mergedse is timed all through a measured pass;
# times divided by its mean (unit "ref") keep the pipeline's speed and
# cancel most of the machine's.
REF_ITERS = 20000       # one block: 8-12 ms on that machine
REF_START_BLOCKS = 10   # blocks before the first call of a pass
REF_AFTER_CALL = 3      # blocks, at least, after every call
REF_SHARE = 0.05        # block time per sample, as a share of the time since
                        # the last sample
REF_EVERY = 0.2         # inside a call, sample after a PROBED function once
PROBED = ("solve", "verify_merge")   # this much time has passed
# A call shorter than this is run again, each run followed by one block,
# until runs and blocks add up to it (twice at least); its latency is the
# median of run/block: single runs of a few milliseconds vary 2x.
REPEAT_BELOW = 0.1


def reference_block() -> float:
    t0 = perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(REF_ITERS):
        k = i & 1023
        table[k] = table.get(k, 0) + i
        acc += len(str(i)) if i % 7 else table[k] % 13
    return perf_counter() - t0


class Sampler:
    """Times reference blocks through a pass and keeps their wall time
    (``spent``) out of the pass's times."""

    def __init__(self):
        self.ref: list[float] = []
        self.spent = 0.0
        self.last = perf_counter()

    def sample(self, blocks: int = 1):
        """Blocks for REF_SHARE of the time since the last sample, and at
        least ``blocks`` of them."""
        t0 = perf_counter()
        budget = REF_SHARE * (t0 - self.last)
        while blocks > 0 or perf_counter() - t0 < budget:
            self.ref.append(reference_block())
            blocks -= 1
        self.last = perf_counter()
        self.spent += self.last - t0

    @contextmanager
    def inside_calls(self):
        """Also sample after the PROBED layer functions once REF_EVERY has
        passed, so long calls are sampled while they run."""
        from mergedse import dse
        saved = {name: getattr(dse, name) for name in PROBED}

        def probe(fn):
            def probed(*args, **kwargs):
                out = fn(*args, **kwargs)
                if perf_counter() - self.last >= REF_EVERY:
                    self.sample(0)
                return out
            return probed

        try:
            for name, fn in saved.items():
                setattr(dse, name, probe(fn))
            yield
        finally:
            for name, fn in saved.items():
                setattr(dse, name, fn)


def run_pass(calls, model, measured: bool = True) -> Pass:
    """Run every call and emit its reports. A ``measured`` pass also samples
    reference blocks (see Sampler) and repeats short calls outside the
    pass's time."""
    from mergedse import dse
    outs: list[Outcome] = []
    sampler = Sampler()
    seconds = 0.0

    def timed(fn):
        t0, s0 = perf_counter(), sampler.spent
        out = fn()
        return out, perf_counter() - t0 - (sampler.spent - s0)

    with sampler.inside_calls() if measured else nullcontext():
        if measured:
            sampler.sample(REF_START_BLOCKS)
        for call in calls:
            first = len(sampler.ref) - 1
            t0, s0 = perf_counter(), sampler.spent
            try:
                reports, latency = timed(lambda: call(model))
                csv_text = dse.reports_to_csv(reports)
                json_text = dse.reports_to_json(reports)
                outs.append(Outcome(call.label, latency, reports, csv_text,
                                    json_text))
            except Exception:   # a failing call is counted, not fatal
                outs.append(Outcome(call.label, perf_counter() - t0,
                                    error=traceback.format_exc()))
            seconds += perf_counter() - t0 - (sampler.spent - s0)
            if not measured:
                continue
            out = outs[-1]
            sampler.sample(REF_AFTER_CALL)
            out.latency_ref = out.latency / statistics.fmean(sampler.ref[first:])
            if out.error is None and out.latency < REPEAT_BELOW:
                ratios: list[float] = []
                t0 = perf_counter()
                while len(ratios) < 2 or perf_counter() - t0 < REPEAT_BELOW:
                    run_s = timed(lambda: call(model))[1]
                    ratios.append(run_s / reference_block())
                out.latency_ref = statistics.median(ratios)
    return Pass(outs, seconds, sampler.ref)


def report_problems(out: Outcome) -> list[str]:
    """Seed-independent checks of one call's emitted reports."""
    from mergedse.dse import CSV_HEADER, validate_report_json
    if out.error is not None:
        return [out.error.strip().splitlines()[-1]]
    bad = validate_report_json(json.loads(out.json))
    lines = out.csv.splitlines()
    if lines[0] != CSV_HEADER or len(lines) != len(out.reports) + 1:
        bad.append("CSV header or row count is wrong")
    for r in out.reports:
        where = f"{r.mode}@{r.budget:g}/{r.latency}/{r.bandwidth:g}"
        if not (Fraction(0) < r.objective <= r.baseline):
            bad.append(f"{where}: objective {r.objective} not in (0, baseline]")
        if r.area_used > r.budget + 1e-9:
            bad.append(f"{where}: area {r.area_used} exceeds budget")
        chosen = [*r.software, *r.hardware, *r.merged_hw]
        if len(chosen) != len(set(chosen)):
            bad.append(f"{where}: a function is placed twice")
        f = r.funnel
        if not (f["ranked"] >= f["aligned"] >= f["verified"] >= f["area_win"]
                >= f["ep_positive"] >= f["selected"] >= 0):
            bad.append(f"{where}: merge funnel is not monotone {f}")
        if not r.mode.endswith("Merging") and (r.merges or f["ranked"]):
            bad.append(f"{where}: merging ran in mode {r.mode}")
    return bad


def check(passes: list[Pass], recorded: dict | None
          ) -> dict[tuple[int, str], list[str]]:
    """(pass, call label) -> problems, for every failing call."""
    failures = {}
    for k, p in enumerate(passes):
        for out in p.outcomes:
            bad = report_problems(out)
            if not bad and recorded is not None:
                want = recorded.get(out.label)
                if want is None:
                    bad.append("no digest recorded for this call")
                elif out.digest != want:
                    bad.append(f"digest {out.digest[:12]} != recorded {want[:12]}")
            if bad:
                failures[k, out.label] = bad
    return failures


def quantile(values: list[float], q: int) -> float:
    """The q-th quartile (1..3) by ``statistics.quantiles``; a single value
    is its own quartile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4)[q - 1]


def model_digest(model) -> str:
    from mergedse.cost import save_model
    path = OUT / "model.txt"
    save_model(model, str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_context() -> dict:
    import numpy
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            packed = ROOT / ".git" / "packed-refs"
            if loose.is_file():
                commit = loose.read_text().strip()
            elif packed.is_file():
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + name):
                        commit = line.split()[0]
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (ROOT / "src").rglob("*.py"))
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "threads": threading.active_count(),
            "jobs": 1, "commit": commit, "src_lines": src_lines}


def e2e_metrics(setup_s, passes: list[Pass], attempted, failed) -> dict:
    """End-to-end metrics. A pass time in "ref" is divided by the pass's
    mean reference block; a call latency by the blocks around and in it, or,
    for a short call, by the block after each of its repeats."""
    latencies = [o.latency_ref for p in passes for o in p.outcomes]
    speedups = [r.speedup for o in passes[0].outcomes if o.reports
                for r in o.reports]
    return {
        "setup_s": setup_s,
        "pass_ref": statistics.median(p.seconds / p.ref_unit for p in passes),
        "dse_p50_ref": quantile(latencies, 2),
        "dse_p75_ref": quantile(latencies, 3),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1 - failed / attempted,
        "speedup_geomean": math.exp(statistics.fmean(map(math.log, speedups)))
        if speedups else 1.0,
    }


def layer_metrics(tracer, pass_sid: int, untraced_pass_s: float) -> dict:
    from spans import totals
    t = totals(tracer.spans)
    c = tracer.counts

    def calls(name):
        return t.get(name, [0, 0.0])[0]

    def self_s(name):
        return t.get(name, [0, 0.0])[1]

    def ratio(a, b):
        return a / b if b else 0.0

    _, _, start, end, _, _ = tracer.spans[pass_sid]
    m = {
        "parser.self_s": self_s("parser"),
        "cost.train.self_s": self_s("cost.train"),
        "cost.estimate_costs.calls": calls("cost.estimate_costs"),
        "cost.estimate_costs.self_s": self_s("cost.estimate_costs"),
        "analysis.extract_loops.self_s": self_s("analysis.extract_loops"),
        "analysis.rank_pairs.self_s": self_s("analysis.rank_pairs"),
        "analysis.call_graph.calls": calls("analysis.call_graph"),
        "analysis.call_graph.self_s": self_s("analysis.call_graph"),
        "merge.merge_functions.calls": calls("merge.merge_functions"),
        "merge.merge_functions.self_s": self_s("merge.merge_functions"),
        "merge.merge_functions.rejected": c["merge.merge_functions.rejected"],
        "merge.verify_merge.calls": calls("merge.verify_merge"),
        "merge.verify_merge.self_s": self_s("merge.verify_merge"),
        "merge.verify_merge.failed": c["merge.verify_merge.failed"],
        "funnel.ranked": c["funnel.ranked"],
        "funnel.verified": c["funnel.verified"],
        "funnel.ep_positive": c["funnel.ep_positive"],
        "merge.accept_ratio": ratio(c["funnel.ep_positive"], c["funnel.ranked"]),
        "partition.build_problem.calls": calls("partition.build_problem"),
        "partition.build_problem.self_s": self_s("partition.build_problem"),
        "partition.solve.calls": calls("partition.solve"),
        "partition.solve.self_s": self_s("partition.solve"),
        "partition.solve.nodes": c["partition.solve.nodes"],
        "partition.solve.nodes_per_s": ratio(c["partition.solve.nodes"],
                                             self_s("partition.solve")),
        "partition.solve.nonoptimal": c["partition.solve.nonoptimal"],
        "dse.prepare.self_s": self_s("dse.prepare"),
        "dse.emit.self_s": self_s("dse.emit"),
        "trace.pass_s": end - start,
        "trace.overhead_s": (end - start) - untraced_pass_s,
    }
    for kind in ("profile", "verify"):
        name = "interp." + kind
        m[name + ".calls"] = calls(name)
        m[name + ".self_s"] = self_s(name)
        m[name + ".instrs"] = c[name + ".instrs"]
        m[name + ".instr_per_s"] = ratio(c[name + ".instrs"], self_s(name))
    m["interp.verify.error_frac"] = ratio(c["interp.verify.errors"],
                                          calls("interp.verify"))
    return m


def solve_problems(tracer) -> dict[int, list[str]]:
    """call number -> problems with the solutions the solver returned."""
    from mergedse.partition import check_solution
    bad: dict[int, list[str]] = {}
    for call, problem, sol in tracer.solved:
        issues = check_solution(problem, sol)
        if not sol.optimal:
            issues.append(f"solver stopped at its node limit ({sol.nodes} nodes)")
        if issues:
            bad.setdefault(call, []).extend(issues)
    return bad


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this commit's output digests for the seed "
                         "(needs --trace 1 and every check passing)")
    args = ap.parse_args(argv)
    if args.record and not args.trace:
        ap.error("--record needs --trace 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "mergedse" / "__init__.py").is_file():
        print(f"error: no mergedse sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from mergedse import dse
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    OUT.mkdir(exist_ok=True)

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()

    t0 = perf_counter()
    if tracer:
        with tracer.installed(), tracer.span("setup"):
            model = dse.default_model(workloads.CLI_SEED)
            inputs = workloads.load_inputs(args.workload)
    else:
        model = dse.default_model(workloads.CLI_SEED)
        inputs = workloads.load_inputs(args.workload)
    setup_s = perf_counter() - t0

    t0 = perf_counter()
    if args.workload == "profile-scaled":
        workloads.generate_scaled(inputs, args.seed)
    calls = workloads.calls(args.workload, inputs, args.seed)
    inputs_s = perf_counter() - t0

    recorded_all = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    entry = recorded_all.get(args.workload, {}).get(str(args.seed))
    mdigest = model_digest(model)
    recorded = None
    if entry is not None and not args.record:
        if entry["model"] == mdigest:
            recorded = entry["calls"]
        else:
            print("warning: the area model differs from the one the digests "
                  "were recorded with (another numeric platform?); output "
                  "digests are not compared", file=sys.stderr)

    passes: list[Pass] = []
    begin = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(run_pass(calls, model, measured=not tracer))
        now = perf_counter()
        if tracer or (now - begin) + (now - t0) > args.seconds:
            break
    untraced = list(passes)

    if tracer:
        with tracer.installed(), tracer.span("pass"):
            traced = run_pass(calls, model, measured=False).outcomes
        pass_sid = max(s[0] for s in tracer.spans if s[1] == "pass")
        passes.append(Pass(traced, 0.0, []))

    attempted = sum(len(p.outcomes) for p in passes)
    failures = check(passes, recorded)
    if tracer:
        for call, issues in solve_problems(tracer).items():
            failures.setdefault((len(passes) - 1, traced[call - 1].label),
                                []).extend(issues)
    for (k, label), bad in sorted(failures.items()):
        print(f"FAILED pass {k} {label}: " + "; ".join(bad[:3]), file=sys.stderr)
    failed = len(failures)
    context = run_context()
    print(f"# mergedse benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    print("# context: " + ", ".join(f"{k} {v}" for k, v in context.items()))
    print(f"# {len(calls)} calls per pass, {len(untraced)} untraced "
          f"pass(es), inputs prepared in {inputs_s:.3f} s, digests "
          f"{'compared' if recorded is not None else 'not recorded for this seed'}")
    for name, reason in inputs.excluded.items():
        print(f"# excluded {name}: {reason}")
    print(f"# failed_frac {failed / attempted:.4f} ({failed} of {attempted} "
          f"calls)")
    raw = [o.latency for p in untraced for o in p.outcomes]
    print(f"# wall time: pass_s {statistics.median(p.seconds for p in untraced):.4f}, "
          f"dse_p50_s {quantile(raw, 2):.4f}, dse_p75_s {quantile(raw, 3):.4f} "
          f"over {len(raw)} calls" + ("" if tracer else
          f"; ref unit {1e3 * statistics.fmean(p.ref_unit for p in untraced):.3f} ms"))
    if tracer:
        from spans import totals
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        values = layer_metrics(tracer, pass_sid, untraced[0].seconds)
        names = spec["per_layer"]
        layers = totals(tracer.spans, root=pass_sid)
        top = max((k for k in layers if k != "pass"), key=lambda k: layers[k][1])
        own = layers["pass"][1]
        print(f"# traced pass {values['trace.pass_s']:.3f} s: layer self times "
              f"cover all but {own:.4f} s of benchmark loop; largest is {top} "
              f"({layers[top][1]:.3f} s)")
    else:
        values = e2e_metrics(setup_s, untraced, attempted, failed)
        names = spec["end_to_end"]
    if set(values) != {m["name"] for m in names}:
        raise RuntimeError("metrics computed and BENCHMARK.json disagree: "
                           f"{sorted(set(values) ^ {m['name'] for m in names})}")
    metrics = {}
    for m in names:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:34s} {values[m['name']]:>16.6g} {m['unit']}")

    if args.record:
        if failed:
            print("error: not recording digests: checks failed", file=sys.stderr)
            return 1
        recorded_all.setdefault(args.workload, {})[str(args.seed)] = {
            "model": mdigest, "calls": {o.label: o.digest for o in traced}}
        DIGESTS.write_text(json.dumps(recorded_all, indent=1, sort_keys=True)
                           + "\n")
        print(f"# recorded {len(traced)} digests for seed {args.seed}")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

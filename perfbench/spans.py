"""Span tracing for the benchmark's traced run, done from outside ``src/``.

``Tracer.installed()`` replaces the module attributes that the pipeline's
callers look up (``mergedse.dse.solve``, ``mergedse.merge.interpret``, ...)
with wrappers that record a span per call and read counts from return values
and raised exceptions. The originals are restored on exit. Spans stay in
memory until ``dump``.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from mergedse import analysis, dse, ir, merge
from mergedse.ir import InterpError
from mergedse.merge import MergeRejected

# (module, attribute, span name). ``build_problem`` imports
# ``build_call_graph`` from ``analysis`` when it runs, so both bindings are
# wrapped under one name.
WRAPPED = [
    (ir, "parse_module", "parser"),
    (dse, "default_model", "cost.train"),
    (dse, "estimate_costs", "cost.estimate_costs"),
    (dse, "run_heap_image", "interp.profile"),
    (merge, "interpret", "interp.verify"),
    (dse, "extract_loops", "analysis.extract_loops"),
    (dse, "rank_pairs", "analysis.rank_pairs"),
    (dse, "build_call_graph", "analysis.call_graph"),
    (analysis, "build_call_graph", "analysis.call_graph"),
    (dse, "merge_functions", "merge.merge_functions"),
    (dse, "verify_merge", "merge.verify_merge"),
    (dse, "build_problem", "partition.build_problem"),
    (dse, "solve", "partition.solve"),
    (dse, "prepare", "dse.prepare"),
    (dse, "run_pipeline", "dse.call"),
    (dse, "sweep", "dse.call"),
    (dse, "reports_to_csv", "dse.emit"),
    (dse, "reports_to_json", "dse.emit"),
]


class Tracer:
    """Span stack plus counters. A span is (id, name, start, end, parent,
    call), where ``call`` numbers the public pipeline call it belongs to."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.call = 0
        self.counts: Counter = Counter()
        self.solved: list[tuple[int, object, object]] = []  # call, problem, sol

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        if name == "dse.call":
            self.call += 1
        self.spans.append((sid, name, perf_counter(), None,
                           self.stack[-1] if self.stack else None, self.call))
        self.stack.append(sid)
        return sid

    def _close(self, sid: int):
        end = perf_counter()
        self.stack.pop()
        _, name, start, _, parent, call = self.spans[sid]
        self.spans[sid] = (sid, name, start, end, parent, call)

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                self._close(sid)
                self._count_error(name, e)
                raise
            self._close(sid)
            self._count_result(name, args, out)
            return out
        return traced

    def _count_error(self, name: str, e: BaseException):
        if name == "interp.verify" and isinstance(e, InterpError):
            self.counts["interp.verify.errors"] += 1
        elif name == "merge.merge_functions" and isinstance(e, MergeRejected):
            self.counts["merge.merge_functions.rejected"] += 1

    def _count_result(self, name: str, args, out):
        c = self.counts
        if name in ("interp.profile", "interp.verify"):
            c[name + ".instrs"] += out.trace.total
        elif name == "merge.verify_merge":
            c["merge.verify_merge.failed"] += not out.passed
        elif name == "partition.solve":
            c["partition.solve.nodes"] += out.nodes
            c["partition.solve.nonoptimal"] += not out.optimal
            self.solved.append((self.call, args[0], out))
        elif name == "dse.prepare":
            for key in ("ranked", "verified", "ep_positive"):
                c["funnel." + key] += out.funnel[key]

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in WRAPPED]
        try:
            for mod, attr, name in WRAPPED:
                setattr(mod, attr, self._wrap(getattr(mod, attr), name))
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent",
                                  "call"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[tuple]) -> list[float]:
    """Per span: its duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [(end - start) - covered(children[sid], start, end)
            for sid, _, start, end, _, _ in spans]


def totals(spans: list[tuple], root: int | None = None) -> dict[str, list]:
    """name -> [calls, self seconds], over the spans under ``root`` (all
    spans when ``root`` is None; ``root`` itself included)."""
    keep = None
    if root is not None:
        keep = {root}
        for sid, _, _, _, parent, _ in spans:   # parents precede children
            if parent in keep:
                keep.add(sid)
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for span, self_s in zip(spans, self_times(spans)):
        if keep is None or span[0] in keep:
            out[span[1]][0] += 1
            out[span[1]][1] += self_s
    return dict(out)

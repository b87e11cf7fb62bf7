"""Share of interpreted instructions that run in the hot tier, per workload.

Runs one pass of each benchmark workload (the calls of
``perfbench/workloads.py``) with the interpreter watched from outside:
every calling context is kept, and when a function switches to the hot
tier the segment runs its cold-created contexts have made so far are
counted as cold. Everything a context runs after that, and everything in
contexts created hot, is hot. Instructions are counted as the fuel charges
them, errored runs included; `compiled` counts the functions that switched
to the hot tier. Usage:

    PYTHONPATH=src python tests/hot_share.py [--seed 7] [WORKLOAD ...]
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from mergedse.ir import interp

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402
from mergedse import dse  # noqa: E402


class Watch:
    def __init__(self):
        self.contexts = []           # every context, with its function
        self.cold_open = {}          # id(fn) -> contexts created cold
        self.cold = 0                # instructions run cold so far
        self.compiled = 0            # functions switched to the hot tier

    @staticmethod
    def instrs(ctx) -> int:
        return sum(k * n for k, n in zip(ctx.runs, ctx.fn.lens))

    @contextmanager
    def installed(self):
        context, compiled = interp._Machine.context, interp._Decoded.compiled
        watch = self

        def watched_context(mach, fname, parent):
            ctx = context(mach, fname, parent)
            watch.contexts.append(ctx)
            if ctx.fn.run is interp._cold:
                watch.cold_open.setdefault(id(ctx.fn), []).append(ctx)
            return ctx

        def watched_compiled(fn):
            if fn.run is interp._cold:
                watch.compiled += 1
                for ctx in watch.cold_open.pop(id(fn), []):
                    watch.cold += watch.instrs(ctx)
            return compiled(fn)
        interp._Machine.context = watched_context
        interp._Decoded.compiled = watched_compiled
        try:
            yield self
        finally:
            interp._Machine.context = context
            interp._Decoded.compiled = compiled

    def shares(self) -> tuple[int, int]:
        """(instructions run, instructions run hot)."""
        total = sum(self.instrs(ctx) for ctx in self.contexts)
        cold = self.cold + sum(self.instrs(ctx) for ctxs in
                               self.cold_open.values() for ctx in ctxs)
        return total, total - cold


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("workload", nargs="*", default=list(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    model = dse.default_model(workloads.CLI_SEED)
    print(f"HOT_MULTIPLE {interp.HOT_MULTIPLE}, seed {args.seed}")
    for name in args.workload:
        inputs = workloads.load_inputs(name)
        if name == "profile-scaled":
            workloads.generate_scaled(inputs, args.seed)
        with Watch().installed() as watch:
            for call in workloads.calls(name, inputs, args.seed):
                call(model)
        total, hot = watch.shares()
        print(f"{name:15s} instructions {total:10d}  hot {hot:10d}  "
              f"share {hot / total:.3f}  compiled {watch.compiled:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

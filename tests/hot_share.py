"""Share of interpreted instructions that run in the hot tier, per workload.

Runs one pass of each benchmark workload (the calls of
``perfbench/workloads.py``) with the interpreter watched from outside:
every calling context is kept, and every cold frame counts the segment
runs its context makes until the frame returns, raises or switches to the
hot tier. Those instructions are cold; all others are hot, among them the
runs of a leaf that a hot caller runs inline. Instructions are counted as
the fuel charges them, errored runs included; `compiled` counts the
functions that switched to the hot tier. Usage:

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
        self.frames = []             # [context, its instructions at entry]
        self.cold = 0                # instructions run cold
        self.compiled = 0            # functions switched to the hot tier

    @staticmethod
    def instrs(ctx) -> int:
        return sum(k * n for k, n in zip(ctx.runs, ctx.fn.lens))

    def close(self, frame):
        """Count the cold instructions of `frame` once, when it ends or
        switches; a context is never re-entered while a frame of it runs."""
        if frame[0] is not None:
            self.cold += self.instrs(frame[0]) - frame[1]
            frame[0] = None

    @contextmanager
    def installed(self):
        context, compiled, cold = (interp._Machine.context,
                                   interp._Decoded.compiled, interp._cold)
        watch = self

        def watched_context(mach, fname, parent):
            ctx = context(mach, fname, parent)
            watch.contexts.append(ctx)
            return ctx

        def watched_cold(mach, ctx, args, fuel):
            frame = [ctx, watch.instrs(ctx)]
            watch.frames.append(frame)
            try:
                return cold(mach, ctx, args, fuel)
            finally:
                watch.close(watch.frames.pop())

        def watched_compiled(fn):
            if fn.run is watched_cold:
                watch.compiled += 1
            hot = compiled(fn)

            def switch(mach, ctx, args, fuel, r, i):   # the only caller
                watch.close(watch.frames[-1])
                return hot(mach, ctx, args, fuel, r, i)
            return switch
        # decoding binds the cold tier it finds, so this one is bound
        interp._Machine.context = watched_context
        interp._Decoded.compiled = watched_compiled
        interp._cold = watched_cold
        try:
            yield self
        finally:
            interp._Machine.context = context
            interp._Decoded.compiled = compiled
            interp._cold = cold

    def shares(self) -> tuple[int, int]:
        """(instructions run, instructions run hot)."""
        total = sum(self.instrs(ctx) for ctx in self.contexts)
        return total, total - self.cold


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

"""Random-input differential trials: the tests' oracle for the weave walk.

`verify_merge` proves each f_sel side of a merged body and runs nothing.
These trials check that proof from outside: they run the parent and the
merged body, with f_sel fixed to the side, through the public `interpret`
on the same random inputs, and compare what each returns.

A trial is drawn for the parent's parameter types alone, so every merge of
a parent meets the same inputs: a ptr gets a fresh REGION_SIZE-byte region
of random bytes, laid out as an Arena lays regions out (one after another
from REGION_BASE), and each scalar a small random value of its type. Two
outcomes agree when both return bit-equal values (an f64 by bit pattern)
and identical heap images, or both raise the same error kind. A side whose
parent trials never return checked nothing of its body, so it is refuted
too.
"""

from __future__ import annotations

import random
import struct

from mergedse.ir import (
    REGION_BASE, Arena, InterpError, Module, Program, interpret,
)

REGION_SIZE = 64   # bytes of each ptr argument's random region


def draw_trial(params: list[tuple[str, str]], rng: random.Random
               ) -> tuple[bytes, list]:
    """One trial's heap template and arguments, drawn in parameter order.
    Each region is one rng.randbytes call: uniform bytes, as randrange(256)
    per byte would give, from one draw."""
    heap, args = bytearray(REGION_BASE), []
    for _, ty in params:
        if ty == "ptr":
            args.append(len(heap))
            heap += rng.randbytes(REGION_SIZE)
        elif ty == "i1":
            args.append(rng.randrange(2))
        elif ty == "i64":
            args.append(rng.randrange(0, 9))
        elif ty == "i32":
            args.append(rng.randrange(-64, 65))
        else:
            args.append(round(rng.uniform(-8.0, 8.0), 3))
    return bytes(heap), args


def trial_plans(params: list[tuple[str, str]], trials: int, seed: int
                ) -> list[tuple[bytes, list]]:
    """The (heap template, arguments) of `trials` trials of a function with
    these parameter types, drawn from random.Random(seed)."""
    rng = random.Random(seed)
    return [draw_trial(params, rng) for _ in range(trials)]


def run(prog: Program, fname: str, template: bytes, args: list, fuel: int):
    """One run's outcome, from a fresh arena holding the template: its value
    and heap image, or its error kind."""
    arena = Arena()
    arena.data[:] = template
    try:
        r = interpret(prog, fname, args, arena, fuel=fuel)
    except InterpError as e:
        return ("error:" + e.kind, None, None)
    value = r.value
    if isinstance(value, float):   # compared by bit pattern
        value = struct.pack("<d", value)
    return ("ok", value, r.heap)


def refute(m: Module, merged, side: int, trials: int = 48, seed: int = 7,
           fuel: int = 10 ** 6) -> str:
    """Why `trials` random trials refute `merged` (a MergedFunction) on
    `side` (1 or 2) against its parent in `m`, or "" when every trial
    agrees and some parent trial returns."""
    pname, mname = merged.parents[side - 1], merged.function.name
    prog = Program(Module({**m.functions, mname: merged.function}, m.entry),
                   footprints=False)
    returned = False
    for k, (template, args) in enumerate(
            trial_plans(m.function(pname).params, trials, seed)):
        out_p = run(prog, pname, template, args, fuel)
        out_m = run(prog, mname, template, merged.args_for(side, args), fuel)
        if out_p != out_m:
            return (f"trial {k} {args}: parent {out_p[0]} value/heap differs "
                    f"from merged {out_m[0]}")
        returned = returned or out_p[0] == "ok"
    return "" if returned else f"side {side} (@{pname}) never returns"

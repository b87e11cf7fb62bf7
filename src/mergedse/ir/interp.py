"""Deterministic mini-IR interpreter and dynamic profiler.

The heap is a single flat, bounds-checked byte arena per invocation with
little-endian scalar encoding. Addresses 0..7 act as a null guard and are
never accessible; a small fixed scratch window follows (used by transformed
code for spilling multiple loop live-outs); named regions from the heap
image start at REGION_BASE. The observable heap image is the region area.

Interpretation also collects a Trace: per-function dynamic opcode counts
(own and whole-call-extent), the dynamic call matrix, per-call-edge data
footprints in bytes (profiling only, see below), and the total dynamic
instruction count.

Execution runs on a `Program`, a module decoded once: each function is
decoded on first call into straight-line segments. A segment ends at a
`call` or at a terminator; an unconditional `jmp` continues it into the
target block unless that block is already part of it. Fuel is charged once
per segment; a segment longer than the remaining fuel runs only the
instructions the fuel pays for and then raises, so fuel runs out at the
same dynamic instruction as with per-instruction charging. Frames count
segment runs per calling context (a function reached through one chain of
calls); the Trace is folded from those counts when first read. A frame
records the start addresses of its loads and stores, one set per access
width, and expands them to bytes on return, for its call edge's footprint.

One table of per-opcode source templates implements every instruction, in
two tiers. Cold code runs a prebound handler per instruction on a frame
list; handlers come from one factory per opcode shape, compiled once, so
decoding runs no `exec`. Once the instructions a function has run in its
Program, runs that raise included, reach HOT_MULTIPLE times its static
size, the templates are compiled into one Python function for it, with
registers as locals and fuel, segment counts, branches and calls inline.
Later calls enter it, and a cold frame switches into it at its current
segment, so one long call tiers up too. Heat gates compiling because it
costs about nine decodes; compiling eagerly slows the many short runs of
verification. No output depends on the tier. Names reach generated code
only as repr() strings, literals only as frame slots.

`_Machine.run` is the one run path: `interpret` checks and coerces its
arguments and runs once on a fresh machine; verification runs all trials of
a call on one machine, which keeps its calling contexts and sets only heap
and fuel per run, on `Program(m, footprints=False)` (no footprints).
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, cached_property

from .core import (INT_BITS, TYPE_WIDTH, Function, Instr, IRError, Module, Reg,
                   wrap_int)

NULL_GUARD = 8
SCRATCH_BASE = 8
SCRATCH_SIZE = 256
REGION_BASE = SCRATCH_BASE + SCRATCH_SIZE

DEFAULT_FUEL = 10 ** 8


class InterpError(IRError):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


@dataclass
class Trace:
    """Dynamic profile of one or more interpreter runs."""

    counts: dict[str, dict[str, int]] = field(default_factory=dict)
    hier_counts: dict[str, dict[str, int]] = field(default_factory=dict)
    calls: dict[tuple[str, str], int] = field(default_factory=dict)
    edge_bytes: dict[tuple[str, str], int] = field(default_factory=dict)
    invocations: dict[str, int] = field(default_factory=dict)
    total: int = 0

    def count(self, fname: str, op: str) -> int:
        return self.counts.get(fname, {}).get(op, 0)

    def calls_between(self, caller: str, callee: str) -> int:
        return self.calls.get((caller, callee), 0)

    def merge(self, other: "Trace") -> "Trace":
        """Accumulate another trace into this one (multi-input profiles)."""
        for fn, ops in other.counts.items():
            _add_counts(self.counts.setdefault(fn, {}), ops)
        for fn, ops in other.hier_counts.items():
            _add_counts(self.hier_counts.setdefault(fn, {}), ops)
        _add_counts(self.calls, other.calls)
        _add_counts(self.edge_bytes, other.edge_bytes)
        _add_counts(self.invocations, other.invocations)
        self.total += other.total
        return self


def _add_counts(into: dict, other: dict):
    for k, c in other.items():
        into[k] = into.get(k, 0) + c


class Arena:
    """Flat byte-addressable heap with a null guard and a scratch window."""

    def __init__(self):
        self.data = bytearray(REGION_BASE)
        self.regions: dict[str, tuple[int, int]] = {}  # name -> (addr, length)

    def add_region(self, name: str, content: bytes) -> int:
        if name in self.regions:
            raise InterpError("heap", f"duplicate region {name!r}")
        addr = len(self.data)
        self.data.extend(content)
        self.regions[name] = (addr, len(content))
        return addr

    def region_image(self) -> bytes:
        """Observable heap state: the named-region bytes."""
        return bytes(self.data[REGION_BASE:])


def _coerce_arg(value, ty: str):
    if ty == "f64":
        if not isinstance(value, (int, float)):
            raise InterpError("type", f"argument {value!r} is not a float")
        return float(value)
    if ty == "ptr":
        return int(value)
    if not isinstance(value, int):
        raise InterpError("type", f"argument {value!r} is not an integer")
    return wrap_int(int(value), ty)


# ---------------------------------------------------------------------------
# Decoding: opcode templates, cold handlers and hot functions
# ---------------------------------------------------------------------------

# Frame slots before the registers: the heap bytes, then the touched start
# addresses of this frame's loads and stores, one set per access width.
_HEAP = 0
_TOUCHED = {1: 1, 4: 2, 8: 3}
_RESERVED = 4

# Segment ends.
_BR, _JMP, _CALL, _RET = range(4)

# A function is compiled once the instructions it has run in one Program
# reach this multiple of its static instruction count (see the module
# docstring for why it is gated by heat).
HOT_MULTIPLE = 128


def _wrapper(ty: str):
    bits = INT_BITS[ty]
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    return lambda v: ((v + half) & mask) - half


# Argument conversion on frame entry, as _coerce_arg does for well-typed
# values (interpret checks the entry arguments' types first).
_CONVERT = {"i1": _wrapper("i1"), "i32": _wrapper("i32"),
            "i64": _wrapper("i64"), "f64": float, "ptr": int}

_WRAP = " + {half} & {mask}) - {half}"
_DIV = ("x, y = {a}, {b}\nif y == 0: raise InterpError("
        "'div-zero', 'division by zero in @' + {fn})\n"
        "q = abs(x) // abs(y)\nif (x < 0) != (y < 0): q = -q\n")
_MEM = "if addr < {guard} or addr + {w} > len({H}): oob(addr, {w})\n"

# Per-opcode source templates, the only implementation of instructions.
# {d} is the result, {a} {b} {c} the operands, {H} the heap bytes, {t} the
# touched-address set of the access width and {fn} the function name; the
# other fields are constants of the instruction's types. Integer results are
# wrapped like wrap_int: ((v + half) & mask) - half is v's canonical signed
# representative. Loads decode and stores encode exactly what wrap_int keeps.
_TEMPLATES = {
    **{op: "{d} = (({a} %s {b})" % sym + _WRAP for op, sym in (
        ("add", "+"), ("sub", "-"), ("mul", "*"), ("and", "&"), ("or", "|"),
        ("xor", "^"))},
    "shl": "{d} = (({a} << ({b} & {sh}))" + _WRAP,
    "ashr": "{d} = (({a} >> ({b} & {sh}))" + _WRAP,
    "sdiv": _DIV + "{d} = (q" + _WRAP,
    "srem": _DIV + "{d} = (x - q * y" + _WRAP,
    "fadd": "{d} = {a} + {b}", "fsub": "{d} = {a} - {b}", "fmul": "{d} = {a} * {b}",
    "fdiv": "if {b} == 0.0: raise InterpError("
            "'div-zero', 'float division by zero in @' + {fn})\n{d} = {a} / {b}",
    **dict.fromkeys(("icmp", "fcmp"), "{d} = 1 if {a} {cmp} {b} else 0"),
    "select": "{d} = {b} if {a} else {c}",
    "zext": "{d} = {a} & {mask}",
    "trunc": "{d} = ({a}" + _WRAP,
    "sitofp": "{d} = float({a})",
    # v - v is nonzero (nan) exactly when v is nan or ±inf
    "fptosi": "{d} = 0 if {a} - {a} else (int({a})" + _WRAP,
    "gep": "{d} = {a} + {b} * {w}",
    "const": "{d} = {a}",
    "load": "addr = {a}\n" + _MEM + "{d} = unpack_{ty}({H}, addr)[0]",
    "store": "addr = {b}\n" + _MEM + "pack_{ty}({H}, addr, {a}{store_mask})",
}
_CMP = {"eq": "==", "ne": "!=", "slt": "<", "sgt": ">", "sle": "<=",
        "sge": ">=", "olt": "<", "ogt": ">", "oeq": "=="}


def _oob(addr: int, width: int):
    if addr < NULL_GUARD:
        raise InterpError("oob", f"access to null/guard address {addr}")
    raise InterpError("oob", f"out-of-bounds access at {addr}+{width}")


def _footprint(reached: set, t4: set, t8: set) -> set:
    """Add the bytes of the 4- and 8-byte accesses starting at t4 and t8."""
    for w, starts in ((4, t4), (8, t8)):
        for a in starts:
            reached.update(range(a, a + w))
    return reached


def _exhaust(fn: "_Decoded", i: int, fuel: int, r: list | dict):
    """Run the instructions of segment i that `fuel` pays for on frame r,
    then raise. The hot tier passes its locals(), turned back into a frame."""
    if type(r) is dict:
        r = [r[f"r{k}"] for k in range(len(fn.frame))]
    for h in filter(None, fn.segs[i][7][:max(fuel, 0)]):
        h(r)
    raise InterpError("fuel", f"fuel exhausted in @{fn.name}")


# The generated code's globals: error paths, argument conversions and the
# heap codecs.
_NS = {"InterpError": InterpError, "oob": _oob, "footprint": _footprint,
       "exhaust": _exhaust,
       **{f"conv_{ty}": f for ty, f in _CONVERT.items()},
       "unpack_i1": lambda data, addr: (-(data[addr] & 1),),
       **{f"unpack_{ty}": struct.Struct(f).unpack_from for ty, f in (
           ("i32", "<i"), ("i64", "<q"), ("ptr", "<Q"), ("f64", "<d"))},
       **{f"pack_{ty}": struct.Struct(f).pack_into for ty, f in (
           ("i1", "<B"), ("i32", "<I"), ("i64", "<Q"), ("ptr", "<Q"),
           ("f64", "<d"))}}


def _source(ins, touch: bool, **fields: str) -> str:
    """Source of one non-call, non-terminator instruction from its template;
    `fields` spell the slots ({d} {a} {b} {c} {H} {t}) and {fn}. A load or
    store with `touch` records its start address."""
    ty = ins.ty
    bits = INT_BITS.get(ty if ins.op == "zext" else ins.cast_to or ty, 64)
    mask = (1 << bits) - 1
    return (_TEMPLATES[ins.op] + ("\n{t}.add(addr)" if touch else "")).format(
        **fields, ty=ty, half=1 << (bits - 1), mask=mask, sh=bits - 1,
        w=TYPE_WIDTH[ty], guard=NULL_GUARD, cmp=_CMP.get(ins.pred),
        store_mask="" if ty == "f64" else f" & {mask}")


@cache
def _factory(op: str, ty: str, pred, cast_to, touch: bool):
    """Cold tier: a factory of prebound handlers `h(r)` on the frame list
    for one opcode shape, compiled once from the opcode's template."""
    body = _source(Instr(op, ty, pred=pred, cast_to=cast_to), touch,
                   d="r[d]", a="r[a]", b="r[b]", c="r[c]", H=f"r[{_HEAP}]",
                   t=f"r[{_TOUCHED[TYPE_WIDTH[ty]]}]", fn="fn")
    ns = dict(_NS)
    exec("def make(d, a=None, b=None, c=None, fn=None):\n def h(r):\n  "
         + body.replace("\n", "\n  ") + "\n return h", ns)
    return ns["make"]


def _hot_source(fn: "_Decoded") -> str:
    """Hot tier: the source of one Python function running all of `fn` from
    segment i with the registers as locals r<slot>. It charges fuel, counts
    segment runs and makes calls exactly as _cold does."""
    out = ["def hot(m, ctx, args, r=frame, i=0):",
           " " + "".join(f"r{k}, " for k in range(len(fn.frame))) + "= r",
           " if args is not None:",
           "  ctx.visits += 1",
           "  r0 = m.heap"]

    def emit(ind: str, text: str):
        out.extend(ind + line for line in text.split("\n"))
    if fn.touches:
        emit("  ", "r1, r2, r3 = set(), set(), set()")
    for j, ((s, _), (_, ty)) in enumerate(zip(fn.params, fn.source.params)):
        emit("  ", f"r{s} = conv_{ty}(args[{j}])")
    emit(" ", "fuel, runs, callees = m.fuel, ctx.runs, ctx.callees\n"
              "while True:")

    def segment(k: int, ind: str):
        _, n, end, x, y, z, u, _ = fn.segs[k]
        code = [s and _source(s[0], fn.touches and s[0].op in ("load", "store"),
                              d=f"r{s[1]}", H=f"r{_HEAP}", fn=repr(fn.name),
                              t=f"r{_TOUCHED[TYPE_WIDTH[s[0].ty]]}",
                              **{f: f"r{o}" for f, o in zip("abc", s[2])})
                for s in fn.code[k]]
        emit(ind, f"if fuel < {n}: exhaust(ctx.fn, {k}, fuel, locals())\n"
                  f"fuel -= {n}\nruns[{k}] += 1")
        for c in filter(None, code):
            emit(ind, c)
        if end == _BR:
            emit(ind, f"i = {y} if r{x} else {z}")
        elif end == _JMP:
            emit(ind, f"i = {x}")
        elif end == _CALL:
            emit(ind, f"sub = callees.get({x!r}) or m.context({x!r}, ctx)\n"
                      "m.fuel = fuel\nv, sb = sub.fn.run(m, sub, ["
                      + ", ".join(f"r{a}" for a in y) + "])\nfuel = m.fuel\n"
                      + "if sb:\n sub.touched += len(sb)\n"
                        " if r1 is None: r1 = sb\n else: r1 |= sb\n"
                      + (f"r{z} = v\n" if z is not None else "") + f"i = {u}")
        else:
            emit(ind, "m.fuel = fuel\nreturn "
                      + (f"r{x}, " if x is not None else "None, ")
                      + ("footprint(r1, r2, r3) if ctx.parent else r1"
                         if fn.touches else "r1"))

    def tree(lo: int, hi: int, ind: str):   # dispatch on i by bisection
        if hi - lo == 1:
            return segment(lo, ind)
        mid = (lo + hi) // 2
        emit(ind, f"if i < {mid}:")
        tree(lo, mid, ind + " ")
        emit(ind, "else:")
        tree(mid, hi, ind + " ")
    tree(0, len(fn.segs), "  ")
    return "\n".join(out)


class _Decoded:
    """One function as segments. A segment is the tuple
    (handlers, length, end, x, y, z, u, steps) where the end and its data
    are _BR (cond slot, true segment, false segment), _JMP (target segment),
    _CALL (callee name, argument slots, result slot or None, next segment)
    or _RET (value slot or None). `length` counts every instruction the
    segment charges, the ending one included; `steps` holds one entry per
    instruction before the end (None for a followed `jmp`), for running a
    prefix when fuel runs out. `code` holds, per segment and step, the
    instruction with its result and operand slots, for the hot tier."""

    def __init__(self, f: Function, footprints: bool):
        self.name, self.source = f.name, f
        self.run = _cold   # the tier: run(machine, context, args)
        self.left = HOT_MULTIPLE * f.size()   # instructions until compiled
        slots: dict[str, int] = {}
        frame: list = [None] * _RESERVED

        def slot(o) -> int:
            if type(o) is Reg:
                if o.name not in slots:
                    slots[o.name] = len(frame)
                    frame.append(None)
                return slots[o.name]
            frame.append(o.value)
            return len(frame) - 1

        self.params = [(slot(Reg(p)), _CONVERT[ty]) for p, ty in f.params]
        # every block split after each call: (label, piece) -> segment index
        pieces: dict[str, list[list]] = {}
        for b in f.blocks:
            pieces[b.label] = cur = [[]]
            for ins in b.instrs[:-1]:
                cur[-1].append(ins)
                if ins.op == "call":
                    cur.append([])
            cur[-1].append(b.instrs[-1])
        index = {key: k for k, key in enumerate(
            (label, j) for label, ps in pieces.items() for j in range(len(ps)))}

        self.segs: list[tuple] = []
        self.lens: list[int] = []
        self.hists: list[tuple[tuple[str, int], ...]] = []
        self.code: list[list] = []
        self.touches = False
        for (label, j) in index:
            # a jmp does not end the segment: it continues into the target
            # block unless that block is already part of it
            instrs, seen = list(pieces[label][j]), {label}
            while instrs[-1].op == "jmp" and instrs[-1].succs[0] not in seen:
                label, j = instrs[-1].succs[0], 0
                seen.add(label)
                instrs += pieces[label][0]
            body, steps, code = [], [], []
            for ins in instrs[:-1]:
                h = c = None
                if ins.op != "jmp":
                    touch = footprints and ins.op in ("load", "store")
                    self.touches |= touch
                    c = (ins, slot(Reg(ins.result)) if ins.result is not None
                         else None, [slot(o) for o in ins.operands])
                    h = _factory(ins.op, ins.ty, ins.pred, ins.cast_to,
                                 touch)(c[1], *c[2], fn=f.name)
                    body.append(h)
                steps.append(h)
                code.append(c)
            last = instrs[-1]
            s = [slot(o) for o in last.operands]
            if last.op == "call":
                d = slot(Reg(last.result)) if last.result is not None else None
                end = (_CALL, last.callee, tuple(s), d, index[label, j + 1])
            elif last.op == "br":
                end = (_BR, s[0], index[last.succs[0], 0],
                       index[last.succs[1], 0], None)
            elif last.op == "jmp":
                end = (_JMP, index[last.succs[0], 0], None, None, None)
            else:
                end = (_RET, s[0] if s else None, None, None, None)
            self.segs.append((tuple(body), len(instrs)) + end + (tuple(steps),))
            self.lens.append(len(instrs))
            self.hists.append(tuple(Counter(ins.op for ins in instrs).items()))
            self.code.append(code)
        self.frame = frame
        # footprint charged to every call edge into this function besides
        # the bytes it touches: its scalar arguments and its return value
        self.edge_const = (sum(TYPE_WIDTH[t] for _, t in f.params if t != "ptr")
                           + (TYPE_WIDTH[f.ret] if f.ret != "void" else 0))

    def compiled(self):
        """The hot tier's function, generated and compiled on first use."""
        if self.run is _cold:
            ns = dict(_NS, frame=self.frame)
            exec(_hot_source(self), ns)
            self.run = ns["hot"]
        return self.run


class Program:
    """A module decoded for execution. Functions are decoded on first call,
    and again if their Function object in `module` is replaced. Each gathers
    heat over every run on the Program and turns hot at HOT_MULTIPLE times
    its size; no output depends on the tier. With `footprints=False` loads
    and stores record no touched addresses and traces leave `edge_bytes`
    empty; everything else is the same."""

    def __init__(self, m: Module, footprints: bool = True):
        self.module = m
        self.footprints = footprints
        self.decoded: dict[str, _Decoded] = {}

    def function(self, name: str) -> _Decoded:
        f = self.module.functions[name]
        fn = self.decoded.get(name)
        if fn is None or fn.source is not f:
            fn = self.decoded[name] = _Decoded(f, self.footprints)
        return fn


class _Context:
    """A calling context: one function reached through one chain of calls
    from the entry. Its frames add their segment runs, their invocations and
    the bytes their call edge touched here; the Trace is folded from all
    contexts once, when the run's trace is first read."""

    __slots__ = ("fn", "parent", "runs", "visits", "touched", "callees")

    def __init__(self, fn: _Decoded, parent: "_Context | None"):
        self.fn = fn
        self.parent = parent
        self.runs = [0] * len(fn.segs)
        self.visits = 0
        self.touched = 0
        self.callees: dict[str, _Context] = {}


class _Machine:
    """Runs entries of one Program, keeping the calling contexts (a root
    per entry, its callees under it) from run to run."""

    def __init__(self, prog: Program):
        self.prog = prog
        self.heap, self.fuel = bytearray(), 0
        self.roots: dict[str, _Context] = {}
        self.contexts: list[_Context] = []

    def context(self, fname: str, parent: _Context | None) -> _Context:
        ctx = _Context(self.prog.function(fname), parent)
        (self.roots if parent is None else parent.callees)[fname] = ctx
        self.contexts.append(ctx)
        return ctx

    def run(self, entry: str, args: list, heap: bytearray, fuel: int):
        """`entry`'s value on well-typed `args` over `heap` with `fuel`."""
        self.heap, self.fuel = heap, fuel
        ctx = self.roots.get(entry) or self.context(entry, None)
        return ctx.fn.run(self, ctx, args)[0]

    def trace(self) -> Trace:
        tr = Trace()
        for ctx in self.contexts:
            fn, name = ctx.fn, ctx.fn.name
            own: dict[str, int] = {}
            for hist, k, n in zip(fn.hists, ctx.runs, fn.lens):
                if k:
                    tr.total += k * n
                    for op, c in hist:
                        own[op] = own.get(op, 0) + k * c
            _add_counts(tr.counts.setdefault(name, {}), own)
            # whole-extent counts: every function on the call chain
            anc = ctx
            while anc is not None:
                _add_counts(tr.hier_counts.setdefault(anc.fn.name, {}), own)
                anc = anc.parent
            tr.invocations[name] = tr.invocations.get(name, 0) + ctx.visits
            if ctx.parent is not None:
                key = (ctx.parent.fn.name, name)
                tr.calls[key] = tr.calls.get(key, 0) + ctx.visits
                if self.prog.footprints:
                    tr.edge_bytes[key] = (tr.edge_bytes.get(key, 0)
                                          + ctx.touched
                                          + ctx.visits * fn.edge_const)
        return tr


def _cold(m: _Machine, ctx: _Context, args: list):
    """Run one frame in the cold tier; returns its value and the bytes the
    frame and its callees touched (None when there are none or none are
    recorded). A frame whose function turns hot continues in the hot code."""
    fn = ctx.fn
    ctx.visits += 1
    r = fn.frame[:]
    r[_HEAP] = m.heap
    if fn.touches:   # the _TOUCHED slots; width 1 collects callees too
        r[1], r[2], r[3] = set(), set(), set()
    for (s, conv), a in zip(fn.params, args):
        r[s] = conv(a)
    reached = r[1]   # bytes this frame and its callees touched
    segs, runs, fuel, left = fn.segs, ctx.runs, m.fuel, fn.left
    i = 0
    try:
        while True:
            if left <= 0:
                fn.left, m.fuel, r[1] = left, fuel, reached
                return fn.compiled()(m, ctx, None, r, i)
            body, n, end, x, y, z, u, _ = segs[i]
            if fuel < n:
                _exhaust(fn, i, fuel, r)
            fuel -= n
            left -= n
            runs[i] += 1
            for h in body:
                h(r)
            if end == _BR:
                i = y if r[x] else z
            elif end == _JMP:
                i = x
            elif end == _CALL:
                sub = ctx.callees.get(x) or m.context(x, ctx)
                fn.left, m.fuel = left, fuel
                value, sub_bytes = sub.fn.run(m, sub, [r[s] for s in y])
                left, fuel = fn.left, m.fuel
                if sub_bytes:
                    sub.touched += len(sub_bytes)
                    if reached is None:
                        reached = sub_bytes   # the callee's set is ours now
                    else:
                        reached |= sub_bytes
                if z is not None:
                    r[z] = value
                i = u
            else:
                value = r[x] if x is not None else None
                break
    finally:   # a run that raises keeps its heat too
        fn.left = left
    m.fuel = fuel
    # the entry has no call edge to charge its footprint to
    if fn.touches and ctx.parent is not None:
        _footprint(reached, r[2], r[3])
    return value, reached


class ExecResult:
    """Return value and observable heap image of one run. Its trace is
    folded from the run's calling contexts when first read, so callers
    that only compare outcomes never pay for it."""

    def __init__(self, value: int | float | None, heap: bytes,
                 mach: _Machine):
        self.value = value
        self.heap = heap
        self._mach = mach

    @cached_property
    def trace(self) -> Trace:
        return self._mach.trace()


def interpret(m: Module | Program, entry: str | None = None,
              args: list | None = None, arena: Arena | None = None,
              fuel: int = DEFAULT_FUEL) -> ExecResult:
    """Run `entry` (default: the module entry) on `args`, checked against
    and coerced to its parameter types, with a fresh or caller-provided
    arena. `m` may be a Module or a Program decoded from one."""
    prog = m if isinstance(m, Program) else Program(m)
    m = prog.module
    entry = entry or m.entry
    f = m.functions.get(entry)
    if f is None:
        raise IRError(f"no function @{entry}")
    args = list(args or [])
    if len(args) != len(f.params):
        raise InterpError("type", f"@{entry} expects {len(f.params)} arguments, "
                          f"got {len(args)}")
    args = [_coerce_arg(a, ty) for a, (_, ty) in zip(args, f.params)]
    arena, mach = arena or Arena(), _Machine(prog)
    value = mach.run(entry, args, arena.data, fuel)
    return ExecResult(value, arena.region_image(), mach)


# ---------------------------------------------------------------------------
# Heap-image input format
# ---------------------------------------------------------------------------

@dataclass
class HeapImage:
    """Initial heap contents plus entry-argument bindings.

    Line-oriented text format:

        region <name> <byte-length> [<hex-bytes>]
        arg <index> = <literal | region-name>

    Hex shorter than the declared length is zero-padded; comments start
    with ';'.
    """

    regions: list[tuple[str, bytes]] = field(default_factory=list)
    args: dict[int, object] = field(default_factory=dict)  # int | float | str

    @classmethod
    def parse(cls, text: str) -> "HeapImage":
        img = cls()
        names = set()
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split(";", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "region":
                if len(parts) not in (3, 4):
                    raise IRError(f"heap image line {lineno}: "
                                  "expected 'region <name> <len> [<hex>]'")
                name, ln = parts[1], int(parts[2])
                if ln < 0:
                    raise IRError(f"heap image line {lineno}: negative region length {ln}")
                content = bytes.fromhex(parts[3]) if len(parts) == 4 else b""
                if len(content) > ln:
                    raise IRError(f"heap image line {lineno}: hex longer than region")
                if name in names:
                    raise IRError(f"heap image line {lineno}: duplicate region {name}")
                names.add(name)
                img.regions.append((name, content + bytes(ln - len(content))))
            elif parts[0] == "arg":
                if len(parts) != 4 or parts[2] != "=":
                    raise IRError(f"heap image line {lineno}: "
                                  "expected 'arg <index> = <value>'")
                idx, val = int(parts[1]), parts[3]
                if idx in img.args:
                    raise IRError(f"heap image line {lineno}: duplicate arg {idx}")
                if val in names:
                    img.args[idx] = val
                elif val == "true":
                    img.args[idx] = 1
                elif val == "false":
                    img.args[idx] = 0
                elif val == "null":
                    img.args[idx] = 0
                else:
                    try:
                        img.args[idx] = int(val)
                    except ValueError:
                        img.args[idx] = float(val)
            else:
                raise IRError(f"heap image line {lineno}: unknown directive {parts[0]!r}")
        return img

    def instantiate(self, f: Function) -> tuple[Arena, list]:
        """Build an arena and the bound argument list for function `f`."""
        arena = Arena()
        addrs = {name: arena.add_region(name, content)
                 for name, content in self.regions}
        extra = sorted(i for i in self.args if not 0 <= i < len(f.params))
        if extra:
            raise IRError(f"heap image binds arg {extra[0]}, but @{f.name} "
                          f"has {len(f.params)} parameters")
        args = []
        for i, (p, ty) in enumerate(f.params):
            if i not in self.args:
                raise IRError(f"heap image missing arg {i} (%{p}: {ty})")
            v = self.args[i]
            if isinstance(v, str):
                if ty != "ptr":
                    raise IRError(f"arg {i} binds region {v!r} to non-ptr %{p}")
                args.append(addrs[v])
            else:
                args.append(_coerce_arg(v, ty))
        return arena, args


def run_heap_image(m: Module, image: HeapImage, entry: str | None = None,
                   fuel: int = DEFAULT_FUEL) -> ExecResult:
    entry = entry or m.entry
    arena, args = image.instantiate(m.functions[entry])
    return interpret(m, entry, args, arena, fuel)

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
`call` or at a terminator; an unconditional `jmp` does not end it but
continues it into the target block, unless that block is already part of
it. A segment holds one prebound handler per instruction (operands resolved
to slots of a flat frame list, literals preloaded), its successor segment
indices and its opcode histogram. Fuel is charged once per segment; a
segment longer than the remaining fuel runs only the instructions the fuel
pays for and then raises, so fuel runs out at the same dynamic instruction
as with per-instruction charging. Frames count segment runs per calling
context (a function reached through one chain of calls); opcode counts,
whole-extent counts, the call matrix and the total are folded from those
counts once, when a result's trace is first read. Loads and stores use
precompiled `struct` codecs behind the bounds check. A frame records the
start addresses of its loads and stores, one set per access width, and
expands them to bytes only when it returns, for its call edge's footprint.
`interpret` accepts a Module or a Program. Differential verification runs
one module many times and compares only values and heaps, so it decodes
it once as `Program(m, footprints=False)`: loads and stores that record
no addresses, traces without `edge_bytes`. Profiling records footprints.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from operator import add, and_, eq, ge, gt, le, lt, mul, ne, or_, sub, xor

from .core import INT_BITS, TYPE_WIDTH, Function, IRError, Module, Reg, wrap_int

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
# Decoding: functions to segments of prebound handlers
# ---------------------------------------------------------------------------

# Frame slots before the registers: the heap bytes, then the touched start
# addresses of this frame's loads and stores, one set per access width.
_HEAP = 0
_TOUCHED = {1: 1, 4: 2, 8: 3}
_RESERVED = 4

# Segment ends.
_BR, _JMP, _CALL, _RET = range(4)

# Loads decode and stores encode exactly what wrap_int keeps: i32/i64 are
# read signed, ptr unsigned, and an i1 byte keeps its low bit as 0 or -1.
_UNPACK = {"i1": lambda data, addr: (-(data[addr] & 1),),
           **{ty: struct.Struct(f).unpack_from for ty, f in (
               ("i32", "<i"), ("i64", "<q"), ("ptr", "<Q"), ("f64", "<d"))}}
_PACK = {ty: struct.Struct(f).pack_into for ty, f in (
    ("i1", "<B"), ("i32", "<I"), ("i64", "<Q"), ("ptr", "<Q"), ("f64", "<d"))}
_STORE_MASK = {"i1": 1, "i32": (1 << 32) - 1, "i64": (1 << 64) - 1,
               "ptr": (1 << 64) - 1}

_BINOP = {"add": add, "sub": sub, "mul": mul, "and": and_, "or": or_,
          "xor": xor, "fadd": add, "fsub": sub, "fmul": mul}
_CMP = {"eq": eq, "ne": ne, "slt": lt, "sgt": gt, "sle": le, "sge": ge,
        "olt": lt, "ogt": gt, "oeq": eq}
_INF = float("inf")


def _wrapper(ty: str):
    bits = INT_BITS[ty]
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    return lambda v: ((v + half) & mask) - half


# Argument conversion on frame entry, as _coerce_arg does for well-typed
# values (interpret checks the entry arguments' types first).
_CONVERT = {"i1": _wrapper("i1"), "i32": _wrapper("i32"),
            "i64": _wrapper("i64"), "f64": float, "ptr": int}


def _oob(addr: int, width: int):
    if addr < NULL_GUARD:
        raise InterpError("oob", f"access to null/guard address {addr}")
    raise InterpError("oob", f"out-of-bounds access at {addr}+{width}")


def _wrapping(op: str, d: int, a: int, b: int, ty: str):
    """add/sub/mul/and/or/xor/shl/ashr, wrapped like wrap_int:
    ((v + half) & mask) - half is v's canonical signed representative."""
    bits = INT_BITS[ty]
    half, mask, sh = 1 << (bits - 1), (1 << bits) - 1, bits - 1
    if op == "shl":
        def h(r): r[d] = ((r[a] << (r[b] & sh)) + half & mask) - half
    elif op == "ashr":
        def h(r): r[d] = ((r[a] >> (r[b] & sh)) + half & mask) - half
    else:
        f = _BINOP[op]

        def h(r): r[d] = (f(r[a], r[b]) + half & mask) - half
    return h


def _handler(ins, d, s: list[int], fname: str, footprints: bool):
    """The prebound handler of one non-call, non-terminator instruction:
    `d` is the result slot, `s` the operand slots."""
    op, ty = ins.op, ins.ty
    if op in ("add", "sub", "mul", "and", "or", "xor", "shl", "ashr"):
        return _wrapping(op, d, s[0], s[1], ty)
    if op in ("sdiv", "srem"):
        a, b, want_q = s[0], s[1], op == "sdiv"
        msg = f"division by zero in @{fname}"

        def h(r):
            x, y = r[a], r[b]
            if y == 0:
                raise InterpError("div-zero", msg)
            q = abs(x) // abs(y)
            if (x < 0) != (y < 0):
                q = -q
            r[d] = wrap_int(q if want_q else x - q * y, ty)
        return h
    if op in ("fadd", "fsub", "fmul"):
        a, b, f = s[0], s[1], _BINOP[op]

        def h(r): r[d] = f(r[a], r[b])
        return h
    if op == "fdiv":
        a, b, msg = s[0], s[1], f"float division by zero in @{fname}"

        def h(r):
            y = r[b]
            if y == 0.0:
                raise InterpError("div-zero", msg)
            r[d] = r[a] / y
        return h
    if op in ("icmp", "fcmp"):
        a, b = s
        cmp = _CMP[ins.pred]

        def h(r): r[d] = 1 if cmp(r[a], r[b]) else 0
        return h
    if op == "select":
        c, a, b = s

        def h(r): r[d] = r[a] if r[c] else r[b]
        return h
    if op == "zext":
        a, mask = s[0], (1 << INT_BITS[ty]) - 1

        def h(r): r[d] = r[a] & mask
        return h
    if op == "trunc":
        a, to = s[0], ins.cast_to

        def h(r): r[d] = wrap_int(r[a], to)
        return h
    if op == "sitofp":
        a = s[0]

        def h(r): r[d] = float(r[a])
        return h
    if op == "fptosi":
        a, to = s[0], ins.cast_to

        def h(r):
            v = r[a]
            r[d] = 0 if v != v or v in (_INF, -_INF) else wrap_int(int(v), to)
        return h
    if op == "gep":
        a, b, w = s[0], s[1], TYPE_WIDTH[ty]

        def h(r): r[d] = r[a] + r[b] * w
        return h
    if op == "const":
        a = s[0]

        def h(r): r[d] = r[a]
        return h
    t = _TOUCHED[TYPE_WIDTH[ty]] if footprints else None
    if op == "load":
        return _load(d, s[0], ty, t)
    if op == "store":
        return _store(s[0], s[1], ty, t)
    raise AssertionError(f"unhandled opcode {op}")


def _load(d: int, a: int, ty: str, t: int | None):
    """Load handler; `t` is the frame slot of the touched-address set of
    this access width, None when the program records no footprints."""
    w, unpack = TYPE_WIDTH[ty], _UNPACK[ty]
    if t is None:
        def h(r):
            addr, data = r[a], r[_HEAP]
            if addr < NULL_GUARD or addr + w > len(data):
                _oob(addr, w)
            r[d] = unpack(data, addr)[0]
    else:
        def h(r):
            addr, data = r[a], r[_HEAP]
            if addr < NULL_GUARD or addr + w > len(data):
                _oob(addr, w)
            r[d] = unpack(data, addr)[0]
            r[t].add(addr)
    return h


def _store(v: int, a: int, ty: str, t: int | None):
    """Store handler; `t` as for _load. Integers are masked to their width
    (an i1 store writes the low bit), f64 values are stored as they are."""
    w, pack, mask = TYPE_WIDTH[ty], _PACK[ty], _STORE_MASK.get(ty)
    if mask is None and t is None:
        def h(r):
            addr, data = r[a], r[_HEAP]
            if addr < NULL_GUARD or addr + w > len(data):
                _oob(addr, w)
            pack(data, addr, r[v])
    elif mask is None:
        def h(r):
            addr, data = r[a], r[_HEAP]
            if addr < NULL_GUARD or addr + w > len(data):
                _oob(addr, w)
            pack(data, addr, r[v])
            r[t].add(addr)
    elif t is None:
        def h(r):
            addr, data = r[a], r[_HEAP]
            if addr < NULL_GUARD or addr + w > len(data):
                _oob(addr, w)
            pack(data, addr, r[v] & mask)
    else:
        def h(r):
            addr, data = r[a], r[_HEAP]
            if addr < NULL_GUARD or addr + w > len(data):
                _oob(addr, w)
            pack(data, addr, r[v] & mask)
            r[t].add(addr)
    return h


class _Decoded:
    """One function as segments. A segment is the tuple
    (handlers, length, end, x, y, z, u, steps) where the end and its data
    are _BR (cond slot, true segment, false segment), _JMP (target segment),
    _CALL (callee name, argument slots, result slot or None, next segment)
    or _RET (value slot or None). `length` counts every instruction the
    segment charges, the ending one included; `steps` holds one entry per
    instruction before the end (None for a followed `jmp`), for running a
    prefix when fuel runs out."""

    def __init__(self, f: Function, footprints: bool):
        self.name = f.name
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
        self.touches = False
        for (label, j) in index:
            # a jmp does not end the segment: it continues into the target
            # block unless that block is already part of it
            instrs, seen = list(pieces[label][j]), {label}
            while instrs[-1].op == "jmp" and instrs[-1].succs[0] not in seen:
                label, j = instrs[-1].succs[0], 0
                seen.add(label)
                instrs += pieces[label][0]
            body, steps, hist = [], [], Counter(ins.op for ins in instrs)
            for ins in instrs[:-1]:
                h = None
                if ins.op != "jmp":
                    self.touches |= footprints and ins.op in ("load", "store")
                    s = [slot(o) for o in ins.operands]
                    h = _handler(ins, slot(Reg(ins.result)) if ins.result
                                 is not None else None, s, f.name, footprints)
                    body.append(h)
                steps.append(h)
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
            self.hists.append(tuple(hist.items()))
        self.frame = frame
        # footprint charged to every call edge into this function besides
        # the bytes it touches: its scalar arguments and its return value
        self.edge_const = (sum(TYPE_WIDTH[t] for _, t in f.params if t != "ptr")
                           + (TYPE_WIDTH[f.ret] if f.ret != "void" else 0))


class Program:
    """A module decoded for execution. Functions are decoded on first call;
    the module's functions must not change while the Program is in use.
    With `footprints=False` loads and stores record no touched addresses and
    traces leave `edge_bytes` empty; everything else is the same."""

    def __init__(self, m: Module, footprints: bool = True):
        self.module = m
        self.footprints = footprints
        self._decoded: dict[str, _Decoded] = {}

    def function(self, name: str) -> _Decoded:
        fn = self._decoded.get(name)
        if fn is None:
            fn = self._decoded[name] = _Decoded(self.module.functions[name],
                                                self.footprints)
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
    def __init__(self, prog: Program, arena: Arena, fuel: int):
        self.prog = prog
        self.heap = arena.data
        self.fuel = fuel
        self.contexts: list[_Context] = []

    def context(self, fname: str, parent: _Context | None) -> _Context:
        ctx = _Context(self.prog.function(fname), parent)
        if parent is not None:
            parent.callees[fname] = ctx
        self.contexts.append(ctx)
        return ctx

    def call(self, ctx: _Context, args: list):
        """Run one frame; returns its value and the bytes the frame and its
        callees touched (None when there are none or none are recorded)."""
        fn = ctx.fn
        ctx.visits += 1
        r = fn.frame[:]
        r[_HEAP] = self.heap
        reached = None   # bytes this frame and its callees touched
        if fn.touches:   # the _TOUCHED slots; width 1 collects callees too
            reached = r[1] = set()
            r[2], r[3] = set(), set()
        for (s, conv), a in zip(fn.params, args):
            r[s] = conv(a)
        segs, runs = fn.segs, ctx.runs
        fuel = self.fuel
        i = 0
        while True:
            body, n, end, x, y, z, u, steps = segs[i]
            if fuel < n:
                for h in steps[:max(fuel, 0)]:
                    if h is not None:
                        h(r)
                raise InterpError("fuel", f"fuel exhausted in @{fn.name}")
            fuel -= n
            runs[i] += 1
            for h in body:
                h(r)
            if end == _BR:
                i = y if r[x] else z
            elif end == _JMP:
                i = x
            elif end == _CALL:
                sub = ctx.callees.get(x) or self.context(x, ctx)
                self.fuel = fuel
                value, sub_bytes = self.call(sub, [r[s] for s in y])
                fuel = self.fuel
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
        self.fuel = fuel
        # the entry has no call edge to charge its footprint to
        if fn.touches and ctx.parent is not None:
            for w in (4, 8):
                for a in r[_TOUCHED[w]]:
                    reached.update(range(a, a + w))
        return value, reached

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
    """Run `entry` (default: the module entry) on `args` with a fresh or
    caller-provided arena. Deterministic for fixed (module, args, heap).
    `m` may be a Module or a Program decoded from one."""
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
    arena = arena or Arena()
    mach = _Machine(prog, arena, fuel)
    value = mach.call(mach.context(entry, None), args)[0]
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
                idx = int(parts[1])
                val = parts[3]
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

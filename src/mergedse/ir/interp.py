"""Deterministic mini-IR interpreter and dynamic profiler.

The heap is a single flat, bounds-checked byte arena per invocation with
little-endian scalar encoding. Addresses 0..7 act as a null guard and are
never accessible; a small fixed scratch window follows (used by transformed
code for spilling multiple loop live-outs); named regions from the heap
image start at REGION_BASE. The observable heap image is the region area.

Interpretation also collects a Trace: per-function dynamic opcode counts
(own and whole-call-extent), the dynamic call matrix, per-call-edge data
footprints in bytes (if recorded, see below), and the total dynamic
instruction count.

Execution runs on a `Program`, a module decoded once: each function is
decoded on first call into straight-line segments. A segment ends at a
`call` or at a terminator; an unconditional `jmp` continues it into the
target block unless that block is already part of it. Only what control
can enter starts a segment: the entry, branch targets, call continuations
and the targets of segment-ending jmps. Fuel is charged once per segment;
a segment longer than the remaining fuel runs only the instructions the
fuel pays for and then raises, so fuel runs out at the same dynamic
instruction as with per-instruction charging. Frames count segment runs per
calling context (a function reached through one chain of calls); the Trace
is folded from those counts when first read. A frame records the start
addresses of its loads and stores, one set per access width, and expands
them to bytes on return, for its call edge's footprint.

One table of per-opcode source templates implements every instruction, in
two tiers. Cold code runs a prebound handler per instruction on a frame
list; handlers come from one factory per opcode shape, compiled once, so
decoding runs no `exec`. Once the instructions a function has run in its
Program, runs that raise included, reach HOT_MULTIPLE times its static
size, the templates are compiled into one Python function for it, with
registers as locals and fuel, segment counts, branches and calls inline;
one fuel comparison per segment, against the longest segment's length,
guards the exact check. Later calls enter it, and a cold frame switches
into it at its current segment, so one long call tiers up too. Heat gates
compiling because it costs about eleven decodes; compiling eagerly slows
the many short runs of profiling. A leaf (a call-free function) and a twig
(one whose every call goes to a leaf) run inline in their hot callers, a
twig with its leaves nested one level inside it, as adaptive compilers
inline hot call sites (Hölzle and Ungar, PLDI 1994). Either holds at most
INLINE_MAX instructions, a twig's leaves counted, has an acyclic segment
graph, reads only registers it assigned first and records no footprint.
When fuel pays for its longest path, its leaves' included, the caller runs
its body on renamed locals and counts its visits and segment runs in its
calling contexts; otherwise it calls it. Such a function reached by a call
stays cold when its heat runs out, so it is compiled only inside its
callers. Hot code keeps each callee's calling context in a local once it
has looked it up.
No output depends on the tier. Names reach generated code only as repr()
strings, literals only as frame slots. Generated code compiles under
filenames profilers keep apart: `<hot @NAME #N>` per hot function compiled
and `<cold OP TY ...>` per handler factory.
In both tiers an integer result is wrapped only when it leaves the range
its type holds (`INT_RANGE`; an i1 holds 0 or 1; and, or, xor and ashr
never leave it, so they are not wrapped), fuel passes through calls
as an argument and a return value, frame entry converts no argument (every
producer yields a value in range) and a frame reads the heap's length once.

`_Machine.run` is the one run path, and a machine runs once: `interpret`
checks and coerces its arguments and runs them on a fresh machine.
Profiling records footprints only when a finite bandwidth reads them
(`dse.prepare`); merge verification runs nothing (`merge.weave_walk`).

Each interpreted call that is not inlined is a Python call, so a run
enters at most MAX_CALL_DEPTH nested frames; a call one deeper, inlined or
not, raises InterpError("depth") instead of exhausting Python's stack. A
calling context records its depth when it is made, once per call edge, so
no frame pays for the check.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import count

from .core import (INT_RANGE, TYPE_WIDTH, Function, Instr, IRError, Module,
                   Reg, postorder, wrap_int)
from .validate import unassigned_uses

NULL_GUARD = 8
SCRATCH_BASE = 8
SCRATCH_SIZE = 256
REGION_BASE = SCRATCH_BASE + SCRATCH_SIZE

DEFAULT_FUEL = 10 ** 8

# The deepest chain of calls a run may enter, the entry's frame included; a
# call one deeper raises InterpError("depth"). An interpreted call takes no
# Python frame when it runs inline and one or two otherwise: two when a cold
# frame goes on in hot code, or when inline code hands a twig over to its
# own frame (`_handover` and the frame). Under Python's default recursion
# limit of 1,000 the deepest chain that ran with every frame going on in hot
# code was 490 calls from `mergedse dse` and 472 from `sweep` under pytest.
# 400 keeps 72 calls (144 Python frames) of margin below the lesser for
# callers with deeper stacks.
MAX_CALL_DEPTH = 400

# The most bytes the regions of one heap image may hold together (16 MiB).
MAX_HEAP_BYTES = 1 << 24


class InterpError(IRError):
    """A run's error; `kind` names what went wrong."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


@dataclass
class Trace:
    """Dynamic profile of one or more interpreter runs."""

    counts: dict[str, dict[str, int]] = field(default_factory=dict)
    hier_counts: dict[str, dict[str, int]] = field(default_factory=dict)
    calls: dict[tuple[str, str], int] = field(default_factory=dict)
    # None when the run recorded no footprints (see Program)
    edge_bytes: dict[tuple[str, str], int] | None = field(default_factory=dict)
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
        if self.edge_bytes is None or other.edge_bytes is None:
            self.edge_bytes = None   # a sum with an unrecorded part
        else:
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
    if not isinstance(value, int):
        raise InterpError("type", f"argument {value!r} is not an integer")
    return int(value) if ty == "ptr" else wrap_int(value, ty)


# ---------------------------------------------------------------------------
# Decoding: opcode templates, cold handlers and hot functions
# ---------------------------------------------------------------------------

# Frame slots before the registers: the heap bytes, the start addresses this
# frame's loads and stores touched (a set per access width), the heap length.
_HEAP = 0
_TOUCHED = {1: 1, 4: 2, 8: 3}
_HLEN = 4
_RESERVED = 5

# Segment ends.
_BR, _JMP, _CALL, _RET = range(4)

# A function is compiled once the instructions it has run in one Program
# reach this multiple of its static instruction count (see the module
# docstring for why it is gated by heat). A bundled program's profile runs
# at most 16 times the size of any function but a leaf or twig reached by a
# call, so 32 keeps a 2x margin there and long runs tier up early.
HOT_MULTIPLE = 32

# Numbers each compiled hot function's filename, so that profilers, which
# key on (file, line, name), keep apart the same function compiled in
# several Programs.
_COMPILES = count(1)

# The most instructions a leaf or a twig may hold and still run inline, a
# twig counting its leaf at each call: every call site copies its source,
# and the caller's heat, which gates compiling that source, does not count
# the copies. The corpus's leaves hold 5-12, its twigs 10-12.
INLINE_MAX = 16


_WRAP = "\nif {d} > {top} or {d} < -{half}: {d} = ({d} + {half} & {mask}) - {half}"
_DIV = ("x, y = {a}, {b}\nif y == 0: raise InterpError("
        "'div-zero', 'division by zero in @' + {fn})\n"
        "q = abs(x) // abs(y)\nif (x < 0) != (y < 0): q = -q\n")
_MEM = "if addr < {guard} or addr + {w} > {n}: oob(addr, {w})\n"

# Per-opcode source templates, the only implementation of instructions.
# {d} is the result, {a} {b} {c} the operands, {H} the heap bytes and {n} its
# length, {t} the touched-address set of the access width and {fn} the
# function name; the other fields are constants of the instruction's types.
# Integer results are wrapped like wrap_int, but only outside [-half, top],
# the range the type holds (0 and 1 for i1), where wrap_int is the identity.
# and, or, xor and ashr of values in that range stay in it (two's complement
# for i32/i64, 0 and 1 for i1, unsigned for ptr), so they wrap nothing.
# Loads and stores keep what wrap_int keeps.
_TEMPLATES = {
    **{op: "{d} = {a} %s {b}" % sym + _WRAP for op, sym in (
        ("add", "+"), ("sub", "-"), ("mul", "*"))},
    **{op: "{d} = {a} %s {b}" % sym for op, sym in (
        ("and", "&"), ("or", "|"), ("xor", "^"))},
    "shl": "{d} = {a} << ({b} & {sh})" + _WRAP,
    "ashr": "{d} = {a} >> ({b} & {sh})",
    "sdiv": _DIV + "{d} = q" + _WRAP,
    "srem": _DIV + "{d} = x - q * y" + _WRAP,
    "fadd": "{d} = {a} + {b}", "fsub": "{d} = {a} - {b}", "fmul": "{d} = {a} * {b}",
    "fdiv": "if {b} == 0.0: raise InterpError("
            "'div-zero', 'float division by zero in @' + {fn})\n{d} = {a} / {b}",
    **dict.fromkeys(("icmp", "fcmp"), "{d} = 1 if {a} {cmp} {b} else 0"),
    "select": "{d} = {b} if {a} else {c}",
    "zext": "{d} = {a} & {mask}",
    "trunc": "{d} = {a}" + _WRAP,
    "sitofp": "{d} = float({a})",
    # v - v is nonzero (nan) exactly when v is nan or ±inf
    "fptosi": "{d} = 0 if {a} - {a} else int({a})" + _WRAP,
    "gep": "{d} = {a} + {b} * {w}",
    "const": "{d} = {a}",
    "load": "addr = {a}\n" + _MEM + "{d} = unpack_{ty}({H}, addr)[0]",
    "store": "addr = {b}\n" + _MEM + "pack_{ty}({H}, addr, {a}{store_mask})",
}
_CMP = {"eq": "==", "ne": "!=", "slt": "<", "sgt": ">", "sle": "<=",
        "sge": ">=", "olt": "<", "ogt": ">", "oeq": "=="}


class _Unset:
    """Every register slot's value before its first assignment. Each operator,
    comparison and conversion on it raises, so a read raises where it
    computes and assigned registers pay nothing; a copy passes it to `ret`,
    which raises."""

    __slots__ = ()

    def _read(self, *_):
        raise InterpError("unassigned", "read of an unassigned register")


for _op in ("add sub mul truediv floordiv mod lshift rshift and or xor radd "
            "rsub rmul rtruediv rfloordiv rmod rlshift rrshift rand ror rxor "
            "neg abs lt le gt ge eq ne bool float int index").split():
    setattr(_Unset, f"__{_op}__", _Unset._read)
_UNSET = _Unset()


def _unset_store() -> InterpError:
    """What a struct.error means: it comes only from an f64 store of an
    unassigned register."""
    return InterpError("unassigned", "store of an unassigned register")


def _unset_ret():
    """`ret` of a register still UNSET, in either tier."""
    raise InterpError("unassigned", "return of an unassigned register")


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


def _frame_of(fn: "_Decoded", scope: dict, prefix: str) -> list:
    """The frame of `fn` that generated code holds as the locals
    <prefix><slot> of `scope`; a slot not bound there keeps its first
    value."""
    return [scope.get(f"{prefix}{k}", v) for k, v in enumerate(fn.frame)]


def _handover(m: "_Machine", ctx: "_Context", scope: dict, j: int,
              reached: set | None, fuel: int, i: int):
    """Go on with the twig of `ctx`, which hot code ran inline on its locals
    l<j>_<slot> until a leaf it calls took a real call that touched
    `reached`, in its own frame from segment i: that frame charges fuel
    exactly, whatever the call cost."""
    r = _frame_of(ctx.fn, scope, f"l{j}_")
    r[_HEAP], r[1], r[_HLEN] = m.heap, reached, len(m.heap)
    return ctx.fn.run(m, ctx, None, fuel, r, i)


def _exhaust(fn: "_Decoded", i: int, fuel: int, r: list | dict):
    """Run the instructions of segment i that `fuel` pays for on frame r,
    then raise. The hot tier passes its locals(), turned back into a frame."""
    if type(r) is dict:
        r = _frame_of(fn, r, "r")
    try:
        for h in filter(None, fn.segs[i][7][:max(fuel, 0)]):
            h(r)
    except struct.error:
        raise _unset_store() from None
    raise InterpError("fuel", f"fuel exhausted in @{fn.name}")


# The generated code's globals: error paths and the heap codecs.
_NS = {"InterpError": InterpError, "oob": _oob, "footprint": _footprint,
       "exhaust": _exhaust, "handover": _handover,
       "unset_store": _unset_store,
       "unset_ret": _unset_ret, "struct_error": struct.error, "UNSET": _UNSET,
       "unpack_i1": lambda data, addr: (data[addr] & 1,),
       **{f"unpack_{ty}": struct.Struct(f).unpack_from for ty, f in (
           ("i32", "<i"), ("i64", "<q"), ("ptr", "<Q"), ("f64", "<d"))},
       **{f"pack_{ty}": struct.Struct(f).pack_into for ty, f in (
           ("i1", "<B"), ("i32", "<I"), ("i64", "<Q"), ("ptr", "<Q"),
           ("f64", "<d"))}}


def _source(ins, touch: bool, **fields: str) -> str:
    """Source of one non-call, non-terminator instruction from its template;
    `fields` spell the slots ({d} {a} {b} {c} {H} {n} {t}) and {fn}. A load
    or store with `touch` records its start address."""
    ty = ins.ty
    lo, top = INT_RANGE.get(ty if ins.op == "zext" else ins.cast_to or ty,
                            (0, (1 << 64) - 1))
    mask = top - lo
    return (_TEMPLATES[ins.op] + ("\n{t}.add(addr)" if touch else "")).format(
        **fields, ty=ty, half=-lo, top=top, mask=mask, sh=mask.bit_length() - 1,
        w=TYPE_WIDTH[ty], guard=NULL_GUARD, cmp=_CMP.get(ins.pred),
        store_mask="" if ty == "f64" else f" & {mask}")


@cache
def _factory(op: str, ty: str, pred, cast_to, touch: bool):
    """Cold tier: a factory of prebound handlers `h(r)` on the frame list
    for one opcode shape, compiled once from the opcode's template."""
    body = _source(Instr(op, ty, pred=pred, cast_to=cast_to), touch,
                   d="v", a="r[a]", b="r[b]", c="r[c]", H=f"r[{_HEAP}]",
                   n=f"r[{_HLEN}]", t=f"r[{_TOUCHED[TYPE_WIDTH[ty]]}]",
                   fn="fn") + ("" if op == "store" else "\nr[d] = v")
    ns, name = dict(_NS), " ".join(filter(None, (op, ty, pred, cast_to)))
    exec(compile("def make(d, a=None, b=None, c=None, fn=None):\n def h(r):\n  "
                 + body.replace("\n", "\n  ") + "\n return h",
                 f"<cold {name}>", "exec"), ns)
    return ns["make"]


def _code(fn: "_Decoded", k: int, name) -> list[str]:
    """The source of segment k's instructions with slot s spelled name(s)."""
    return [_source(ins, fn.touches and ins.op in ("load", "store"),
                    d=name(d), H=f"r{_HEAP}", n=f"r{_HLEN}", fn=repr(fn.name),
                    t=f"r{_TOUCHED[TYPE_WIDTH[ins.ty]]}",
                    **{f: name(o) for f, o in zip("abc", ops)})
            for ins, d, ops in filter(None, fn.code[k])]


def _hot_source(fn: "_Decoded") -> str:
    """Hot tier: the source of one Python function running all of `fn` from
    segment i with registers as locals r<slot>, charging fuel (one guard at
    the loop head), counting segment runs and calling as _cold does. Each
    callee's calling context is kept in a local sub<n>, looked up on first
    use. A call of a leaf or a twig (`_Decoded.plan`) runs its body inline
    on locals l<j>_<slot> while fuel pays for its longest path and its
    context holds the decoding compiled in (inl<j>), with a twig's leaves
    nested in it the same way under the same guard; the bodies' constants
    come bound in c. Where a twig's leaf's context holds another decoding,
    the call is made for real and the twig's own frame runs the rest
    (`_handover`), charging fuel exactly whatever that call cost."""
    bodies = fn.inlined()
    index = {key: j for j, key in enumerate(bodies)}
    calls = [(x,) for _, _, end, x, *_ in fn.segs if end == _CALL]
    subs = {key: f"sub{n}" for n, key in enumerate(dict.fromkeys(
        [*calls, *bodies]))}   # the local holding each callee's context
    out = ["def hot(m, ctx, args, fuel, r=frame, i=0, c=consts):",
           " " + "".join(f"r{k}, " for k in range(len(fn.frame))) + "= r",
           " if args is not None:",
           "  ctx.visits += 1", f"  r{_HEAP} = m.heap", f"  r{_HLEN} = len(r{_HEAP})"]

    def emit(ind: str, text: str):
        out.extend(ind + line for line in text.split("\n"))
    bound = [f"l{j}_{s}" for j, body in enumerate(bodies.values())
             for s in body.plan[2]]
    if subs:
        out.insert(2, " " + " = ".join(subs.values()) + " = None")
    if bound:
        out.insert(2, " " + "".join(f"{b}, " for b in bound) + "= c")
    if fn.touches:
        emit("  ", "r1, r2, r3 = set(), set(), set()")
    emit("  ", "(" + "".join(f"r{s}, " for s in fn.params) + ") = args")
    emit(" ", "runs = ctx.runs\ntry:\n"
              f" while True:\n  if fuel < {max(fn.lens)}:\n   if fuel < "
              f"{tuple(fn.lens)}[i]: exhaust(ctx.fn, i, fuel, locals())")

    def context(sub: str, x: str, parent: str) -> str:
        """Set `sub` to callee x's context under `parent` on first use."""
        return (f"if {sub} is None: {sub} = {parent}.callees.get({x!r}) or "
                f"m.context({x!r}, {parent})")

    def call(sub: str, args: list[str], res) -> str:
        """A real call through `sub` into local res (or None)."""
        return (f"{res or '_'}, sb, fuel = {sub}.fn.run(m, {sub}, "
                f"[{', '.join(args)}], fuel)")

    def touched(sub: str) -> str:
        """Charge the bytes a real call through `sub` returned in sb."""
        return (f"\nif sb:\n {sub}.touched += len(sb)\n if r1 is None: r1 = "
                "sb\n else: r1 |= sb" if fn.prog.footprints else "")

    def inline(key: tuple[str, ...], args: list[str], z, ind: str):
        """Run body `key` on the values `args` into local z (or None) as its
        frame would: its segments in topological order, each entered when
        the level's j names it. Each ends in a branch, a return or a twig's
        call, since a segment ends in a jmp only where the jmp closes a
        cycle; a twig's leaf needs no guard of its own."""
        body, j, sub = bodies[key], index[key], subs[key]
        order, jv = body.plan[1], "j" * len(key)
        runs = f"{sub}.runs"
        if len(order) > 1:
            emit(ind, f"l{jv} = {runs}")
            runs = f"l{jv}"
        emit(ind, f"{sub}.visits += 1")
        for p, a in zip(body.params, args):
            emit(ind, f"l{j}_{p} = {a}")
        for s in order:
            _, n, end, x, y, w, u, _ = body.segs[s]
            sind = ind
            if s != order[0]:
                emit(ind, f"if {jv} == {s}:")
                sind = ind + " "
            emit(sind, f"fuel -= {n}\n{runs}[{s}] += 1")
            for text in _code(body, s, lambda o: f"l{j}_{o}"):
                emit(sind, text)
            if end == _BR:
                emit(sind, f"{jv} = {y} if l{j}_{x} else {w}")
            elif end == _CALL:
                leaf = subs[key + (x,)]
                res = None if w is None else f"l{j}_{w}"
                vals = [f"l{j}_{a}" for a in y]
                emit(sind, context(leaf, x, sub)
                     + f"\nif {leaf}.fn is inl{index[key + (x,)]}:")
                inline(key + (x,), vals, res, sind + " ")
                emit(sind, f" {jv} = {u}\nelse:")
                # a real call; the twig's own frame takes the rest
                emit(sind + " ", call(leaf, vals, res)
                     + (f"\nif sb: {leaf}.touched += len(sb)"
                        if fn.prog.footprints else "")
                     + f"\n{z or '_'}, sb, fuel = handover(m, {sub}, "
                     f"locals(), {j}, sb, fuel, {u})" + touched(sub)
                     + f"\n{jv} = -1")
            elif x is not None:
                emit(sind, f"if l{j}_{x} is UNSET: unset_ret()"
                           + (f"\n{z} = l{j}_{x}" if z is not None else ""))

    def segment(k: int, ind: str):
        _, n, end, x, y, z, u, _ = fn.segs[k]
        emit(ind, f"fuel -= {n}\nruns[{k}] += 1")
        for text in _code(fn, k, lambda o: f"r{o}"):
            emit(ind, text)
        if end == _BR:
            emit(ind, f"i = {y} if r{x} else {z}")
        elif end == _JMP:
            emit(ind, f"i = {x}")
        elif end == _CALL:
            sub, vals = subs[x,], [f"r{a}" for a in y]
            res, cind = None if z is None else f"r{z}", ind
            emit(ind, context(sub, x, "ctx"))
            if (x,) in bodies:
                emit(ind, f"if {sub}.fn is inl{index[x,]} and fuel >= "
                          f"{bodies[x,].plan[0]}:")
                inline((x,), vals, res, ind + " ")
                emit(ind, "else:")
                cind += " "
            emit(cind, call(sub, vals, res) + touched(sub))
            emit(ind, f"i = {u}")
        else:
            emit(ind, (f"if r{x} is UNSET: unset_ret()\n"
                       if x is not None else "") + "return "
                      + (f"r{x}, " if x is not None else "None, ")
                      + ("footprint(r1, r2, r3) if ctx.parent else r1"
                         if fn.touches else "r1") + ", fuel")

    def tree(lo: int, hi: int, ind: str):   # dispatch on i by bisection
        if hi - lo == 1:
            return segment(lo, ind)
        mid = (lo + hi) // 2
        emit(ind, f"if i < {mid}:")
        tree(lo, mid, ind + " ")
        emit(ind, "else:")
        tree(mid, hi, ind + " ")
    tree(0, len(fn.segs), "   ")
    emit(" ", "except struct_error:\n raise unset_store() from None")
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
    instruction with its result and operand slots, for the hot tier.
    `postorder` finds the segments from the entry piece; they are numbered
    in block order, and a leaf's order is their reverse postorder."""

    def __init__(self, f: Function, prog: "Program"):
        self.name, self.source, self.prog = f.name, f, prog
        self.run = _cold   # the tier: run(machine, context, args, fuel)
        self.left = HOT_MULTIPLE * f.size()   # instructions until compiled
        slots: dict[str, int] = {}
        frame: list = [None] * _RESERVED

        def slot(o) -> int:
            if type(o) is Reg:
                if o.name not in slots:
                    slots[o.name] = len(frame)
                    frame.append(_UNSET)
                return slots[o.name]
            frame.append(o.value)
            return len(frame) - 1

        self.params = [slot(Reg(p)) for p, _ in f.params]
        # every block split after each call into pieces
        pieces: dict[str, list[list]] = {}
        for b in f.blocks:
            pieces[b.label] = cur = [[]]
            for ins in b.instrs[:-1]:
                cur[-1].append(ins)
                if ins.op == "call":
                    cur.append([])
            cur[-1].append(b.instrs[-1])
        # a jmp does not end a segment: it continues into the target block
        # unless that block is already part of it. Only the pieces something
        # can enter start a segment: the entry piece, branch targets, call
        # continuations and the targets of segment-ending jmps
        spans: dict[tuple[str, int], tuple[list, str, int]] = {}

        def span(key: tuple[str, int]) -> list[tuple[str, int]]:
            (label, j), seen = key, {key[0]}
            instrs = list(pieces[label][j])
            while instrs[-1].op == "jmp" and instrs[-1].succs[0] not in seen:
                label, j = instrs[-1].succs[0], 0
                seen.add(label)
                instrs += pieces[label][0]
            spans[key] = instrs, label, j
            last = instrs[-1]
            return ([(label, j + 1)] if last.op == "call" else
                    [(t, 0) for t in last.succs])
        postorder((f.entry, 0), span)
        index = {key: k for k, key in enumerate(   # in block order
            (label, j) for label, ps in pieces.items() for j in range(len(ps))
            if (label, j) in spans)}

        self.segs: list[tuple] = []
        self.lens: list[int] = []
        self.hists: list[tuple[tuple[str, int], ...]] = []
        self.code: list[list] = []
        self.touches = False
        for key in index:
            instrs, label, j = spans[key]
            body, steps, code = [], [], []
            for ins in instrs[:-1]:
                h = c = None
                if ins.op != "jmp":
                    touch = prog.footprints and ins.op in ("load", "store")
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

    @cached_property
    def plan(self) -> tuple[int, list[int], list[int], dict] | None:
        """What a hot caller needs to run this function inline, if it is a
        leaf or a twig: the fuel of its longest path, its segments in
        topological order, its constant slots and the leaves it calls by
        name. A leaf makes no call; a twig calls only leaves, current in its
        Program when this is decided, and its longest path includes theirs.
        Neither forms a cycle of segments, reads a register some path leaves
        unassigned (so no invocation resets a register to UNSET) or records
        a footprint, and each holds at most INLINE_MAX instructions, a
        twig's leaves counted at each call. Decided at most once, when a
        caller compiles or its heat runs out, so decoding pays nothing."""
        funcs, leaves = self.prog.module.functions, {}
        size = self.source.size()
        if self.touches or size > INLINE_MAX:
            return None
        for ins in (ins for b in self.source.blocks for ins in b.instrs
                    if ins.op == "call"):
            leaf = (self.prog.function(ins.callee) if ins.callee in funcs
                    else None)
            # a callee that calls is no leaf; asking that first keeps this
            # from recursing down a chain of calls
            if (leaf is None or any(seg[2] == _CALL for seg in leaf.segs)
                    or leaf.plan is None):
                return None
            leaves[ins.callee] = leaf
            size += leaf.source.size()
        if size > INLINE_MAX:
            return None

        def succs(k: int) -> tuple:
            _, _, end, x, y, z, u, _ = self.segs[k]
            return ((y, z) if end == _BR else (x,) if end == _JMP else
                    (u,) if end == _CALL else ())
        # every segment is reachable from the entry; in postorder an edge to
        # a segment not earlier than its source closes a cycle
        longest: dict[int, int] = {}
        for k in postorder(0, succs):
            if any(t not in longest for t in succs(k)):
                return None
            _, n, end, x, *_ = self.segs[k]
            longest[k] = (n + (leaves[x].plan[0] if end == _CALL else 0)
                          + max(map(longest.get, succs(k)), default=0))
        if unassigned_uses(self.source):
            return None
        return longest[0], list(longest)[::-1], [
            k for k in range(_RESERVED, len(self.frame))
            if self.frame[k] is not _UNSET], leaves

    def inlined(self) -> dict[tuple[str, ...], "_Decoded"]:
        """What this function's hot code runs inline: the leaves and twigs
        it calls, current in its Program, in order of first call, each
        followed by the leaves a twig calls, keyed by the names called
        from here."""
        funcs, out = self.prog.module.functions, {}
        for _, _, end, x, *_ in self.segs:
            if end == _CALL and (x,) not in out and x in funcs:
                callee = self.prog.function(x)
                if callee.plan is not None:
                    out[x,] = callee
                    for y, leaf in callee.plan[3].items():
                        out[x, y] = leaf
        return out

    def compiled(self):
        """The hot tier's function, generated and compiled on first use."""
        if self.run is _cold:
            bodies = self.inlined().values()
            ns = dict(_NS, frame=self.frame, consts=tuple(
                body.frame[k] for body in bodies for k in body.plan[2]),
                **{f"inl{j}": body for j, body in enumerate(bodies)})
            exec(compile(_hot_source(self), f"<hot @{self.name} "
                         f"#{next(_COMPILES)}>", "exec"), ns)
            self.run = ns["hot"]
        return self.run


class Program:
    """A module decoded for execution. Functions are decoded on first call
    or when a caller compiles, and again if their Function object in
    `module` is replaced. Each gathers heat over every run on the Program and
    turns hot at HOT_MULTIPLE times its size, except a leaf or twig reached
    by a call, which its hot callers run inline; no output depends on the
    tier.
    Footprints are for a finite bandwidth only: with `footprints=False`
    loads and stores record no touched addresses and traces mark
    `edge_bytes` as not recorded (None); everything else is the same."""

    def __init__(self, m: Module, footprints: bool = True):
        self.module = m
        self.footprints = footprints
        self.decoded: dict[str, _Decoded] = {}

    def function(self, name: str) -> _Decoded:
        f = self.module.functions[name]
        fn = self.decoded.get(name)
        if fn is None or fn.source is not f:
            fn = self.decoded[name] = _Decoded(f, self)
        return fn


class _Context:
    """A calling context: one function reached through one chain of calls
    from the entry. Its frames add their segment runs, their invocations and
    the bytes their call edge touched here; the Trace is folded from all
    contexts once, when the run's trace is first read."""

    __slots__ = ("fn", "parent", "depth", "runs", "visits", "touched",
                 "callees")

    def __init__(self, fn: _Decoded, parent: "_Context | None"):
        self.fn = fn
        self.parent = parent
        self.depth = 1 if parent is None else parent.depth + 1
        self.runs = [0] * len(fn.segs)
        self.visits = 0
        self.touched = 0
        self.callees: dict[str, _Context] = {}


class _Machine:
    """Runs one entry of a Program once, keeping the calling contexts it
    made (the entry's, its callees under it) for the trace."""

    def __init__(self, prog: Program):
        self.prog = prog
        self.contexts: list[_Context] = []

    def context(self, fname: str, parent: _Context | None) -> _Context:
        """The new calling context of `fname` under `parent`, made once per
        call edge; one deeper than MAX_CALL_DEPTH raises."""
        if parent is not None and parent.depth >= MAX_CALL_DEPTH:
            raise InterpError("depth", f"call to @{fname} exceeds the call "
                              f"depth limit of {MAX_CALL_DEPTH}")
        ctx = _Context(self.prog.function(fname), parent)
        if parent is not None:
            parent.callees[fname] = ctx
        self.contexts.append(ctx)
        return ctx

    def run(self, entry: str, args: list, heap: bytearray, fuel: int):
        """`entry`'s value on well-typed `args` over `heap` with `fuel`."""
        self.heap = heap
        ctx = self.context(entry, None)
        return ctx.fn.run(self, ctx, args, fuel)[0]

    def trace(self) -> Trace:
        tr = Trace(edge_bytes={} if self.prog.footprints else None)
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


def _cold(m: _Machine, ctx: _Context, args: list | None, fuel: int,
          r: list | None = None, i: int = 0):
    """Run one frame in the cold tier; returns its value, the bytes the frame
    and its callees touched (None when there are none or none are recorded)
    and the fuel left. With `args` None it goes on with frame r from segment
    i, as hot code hands over an inline twig. A frame whose function turns
    hot goes on in hot code."""
    fn = ctx.fn
    if args is not None:
        ctx.visits += 1
        r = fn.frame[:]
        r[_HEAP], r[_HLEN] = m.heap, len(m.heap)
        if fn.touches:   # the _TOUCHED slots; width 1 collects callees too
            r[1], r[2], r[3] = set(), set(), set()
        for s, a in zip(fn.params, args):
            r[s] = a
    reached = r[1]   # bytes this frame and its callees touched
    segs, runs, left = fn.segs, ctx.runs, fn.left
    try:
        while True:
            # a leaf or twig reached by a call stays cold: hot callers run
            # it inline
            if left <= 0 and (ctx.parent is None or fn.plan is None):
                fn.left, r[1] = left, reached
                return fn.compiled()(m, ctx, None, fuel, r, i)
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
                fn.left = left
                value, sub_bytes, fuel = sub.fn.run(m, sub, [r[s] for s in y], fuel)
                left = fn.left
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
                if value is _UNSET:
                    _unset_ret()
                break
    except struct.error:
        raise _unset_store() from None
    finally:   # a run that raises keeps its heat too
        fn.left = left
    # the entry has no call edge to charge its footprint to
    if fn.touches and ctx.parent is not None:
        _footprint(reached, r[2], r[3])
    return value, reached, fuel


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
    return ExecResult(mach.run(entry, args, arena.data, fuel),
                      arena.region_image(), mach)


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
    with ';'. The regions of one image hold at most MAX_HEAP_BYTES in all.
    """

    regions: list[tuple[str, bytes]] = field(default_factory=list)
    args: dict[int, object] = field(default_factory=dict)  # int | float | str

    @classmethod
    def parse(cls, text: str) -> "HeapImage":
        img = cls()
        names = set()
        room = MAX_HEAP_BYTES
        for lineno, raw in enumerate(text.splitlines(), 1):
            try:
                room -= img._directive(raw.split(";", 1)[0].split(), names, room)
            except ValueError as e:   # a bad number, hex string or directive
                raise IRError(f"heap image line {lineno}: {e}") from None
        return img

    def _directive(self, parts: list[str], names: set, room: int) -> int:
        """Apply one line's directive, allocating at most `room` bytes;
        return the bytes it allocated."""
        if not parts:
            return 0
        if parts[0] == "region":
            if len(parts) not in (3, 4):
                raise ValueError("expected 'region <name> <len> [<hex>]'")
            name, ln = parts[1], int(parts[2])
            if ln < 0:
                raise ValueError(f"negative region length {ln}")
            if ln > room:
                raise ValueError(f"regions exceed {MAX_HEAP_BYTES} bytes")
            content = bytes.fromhex(parts[3]) if len(parts) == 4 else b""
            if len(content) > ln:
                raise ValueError("hex longer than region")
            if name in names:
                raise ValueError(f"duplicate region {name}")
            names.add(name)
            self.regions.append((name, content + bytes(ln - len(content))))
            return ln
        if parts[0] != "arg":
            raise ValueError(f"unknown directive {parts[0]!r}")
        if len(parts) != 4 or parts[2] != "=":
            raise ValueError("expected 'arg <index> = <value>'")
        idx, val = int(parts[1]), parts[3]
        if idx in self.args:
            raise ValueError(f"duplicate arg {idx}")
        if val in names:
            self.args[idx] = val
        elif val in ("true", "false", "null"):
            self.args[idx] = int(val == "true")
        else:
            try:
                self.args[idx] = int(val)
            except ValueError:
                self.args[idx] = float(val)
        return 0

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


def run_heap_image(m: Module | Program, image: HeapImage,
                   entry: str | None = None,
                   fuel: int = DEFAULT_FUEL) -> ExecResult:
    """`interpret` (Module or Program) on the arena and args `image` binds."""
    mod = m.module if isinstance(m, Program) else m
    entry = entry or mod.entry
    arena, args = image.instantiate(mod.functions[entry])
    return interpret(m, entry, args, arena, fuel)

"""Core data types for the mini-IR: types, instructions, functions, modules.

The IR is register-based and non-SSA: a register may be reassigned, but every
assignment within one function must use the same type tag. Every basic block
ends in exactly one terminator (br/jmp/ret).
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable
from dataclasses import dataclass, field
from typing import TypeVar

TYPE_TAGS = ("i1", "i32", "i64", "f64", "ptr")

# Byte widths used by load/store/gep and by the data-footprint accounting.
TYPE_WIDTH = {"i1": 1, "i32": 4, "i64": 8, "f64": 8, "ptr": 8}

# The lowest and highest integer a register of each integer type holds: i1
# holds 0 (false) and 1 (true), i32 and i64 their signed ranges. wrap_int,
# the interpreter's wrapping and the validator all read this one rule.
INT_RANGE = {"i1": (0, 1), "i32": (-1 << 31, (1 << 31) - 1),
             "i64": (-1 << 63, (1 << 63) - 1)}

BINOPS_INT = ("add", "sub", "mul", "sdiv", "srem", "and", "or", "xor", "shl", "ashr")
BINOPS_FLOAT = ("fadd", "fsub", "fmul", "fdiv")
CASTS = ("zext", "trunc", "sitofp", "fptosi")
TERMINATORS = ("br", "jmp", "ret")

ICMP_PREDS = ("eq", "ne", "slt", "sgt", "sle", "sge")
FCMP_PREDS = ("olt", "ogt", "oeq")

# Fixed opcode vocabulary. This is also the alignment alphabet and the
# feature alphabet for the area models, in this canonical column order.
OPCODES = BINOPS_INT + BINOPS_FLOAT + ("icmp", "fcmp", "select") + CASTS + (
    "load", "store", "gep", "const", "call") + TERMINATORS

OPCODE_INDEX = {op: i for i, op in enumerate(OPCODES)}

# Operand slots of every opcode but call and ret, whose operands follow the
# callee's parameters and the function's return type. "T" is the
# instruction's type, "idx" gep's index (an i32 or i64), anything else a
# fixed type. This is the only listing of operand slots: the parser, the
# printer, the validator and merged codegen all read it.
SLOTS = {
    **dict.fromkeys(BINOPS_INT + BINOPS_FLOAT + ("icmp", "fcmp"), ("T", "T")),
    "select": ("i1", "T", "T"),
    **dict.fromkeys(CASTS + ("const",), ("T",)),
    "load": ("ptr",), "store": ("T", "ptr"), "gep": ("ptr", "idx"),
    "br": ("i1",), "jmp": (),
}

# Function provenance -> the keyword after the return type in the text form
# ("original" has none).
PROVENANCE_WORDS = {"merged": "merged", "extracted-loop": "extracted_loop"}


class IRError(Exception):
    """Base class for all mini-IR errors."""


@dataclass(frozen=True)
class Reg:
    name: str

    def __repr__(self):
        return "%" + self.name


@dataclass(frozen=True)
class Lit:
    value: int | float
    ty: str

    def __repr__(self):
        return f"{self.value}:{self.ty}"


Operand = Reg | Lit


@dataclass(frozen=True)
class Instr:
    op: str
    ty: str | None = None          # type annotation (None only for jmp / void ret)
    result: str | None = None      # destination register name, without '%'
    operands: tuple[Operand, ...] = ()
    succs: tuple[str, ...] = ()    # successor labels for br/jmp
    callee: str | None = None      # for call
    pred: str | None = None       # icmp/fcmp predicate
    cast_to: str | None = None    # target type for casts

    def is_terminator(self) -> bool:
        return self.op in TERMINATORS

    def result_type(self) -> str | None:
        """Type of the value this instruction writes, or None."""
        if self.result is None:
            return None
        if self.op in ("icmp", "fcmp"):
            return "i1"
        if self.op in CASTS:
            return self.cast_to
        if self.op == "gep":
            return "ptr"
        return self.ty


def operand_slot_types(ins: Instr, reg_types: dict[str, str],
                       callee_params: list[tuple[str, str]] | None = None) -> tuple[str, ...]:
    """Actual type of each operand slot of `ins`.

    `reg_types` maps register names to type tags for the enclosing function;
    `callee_params` is required for call instructions. The gep index slot takes
    the type the operand actually has (i32 or i64 are both accepted).
    """
    if ins.op == "call":
        return tuple(t for _, t in (callee_params or []))
    if ins.op == "ret":
        return (ins.ty,) if ins.operands else ()

    def actual(slot, o):
        if slot == "T":
            return ins.ty
        if slot != "idx":
            return slot
        return o.ty if isinstance(o, Lit) else reg_types.get(o.name, "i64")
    return tuple(map(actual, SLOTS.get(ins.op, ()), ins.operands))


@dataclass
class Block:
    label: str
    instrs: list[Instr] = field(default_factory=list)

    def terminator(self) -> Instr:
        return self.instrs[-1]


@dataclass
class Function:
    name: str
    params: list[tuple[str, str]]      # (register name, type tag)
    ret: str                           # type tag or "void"
    blocks: list[Block]
    provenance: str = "original"       # or "extracted-loop" / "merged"

    @property
    def entry(self) -> str:
        return self.blocks[0].label

    def size(self) -> int:
        """Static instruction count."""
        return sum(len(b.instrs) for b in self.blocks)

    def instructions(self):
        for b in self.blocks:
            yield from b.instrs

    def register_types(self) -> dict[str, str]:
        """Map every register in the function to its (unique) type tag.

        Raises IRError if a register is assigned with two different types;
        the validator reports this with better context first.
        """
        types: dict[str, str] = dict(self.params)
        for ins in self.instructions():
            if ins.result is not None:
                rt = ins.result_type()
                prev = types.get(ins.result)
                if prev is not None and prev != rt:
                    raise IRError(
                        f"register %{ins.result} assigned as {rt} and {prev} in @{self.name}")
                types[ins.result] = rt
        return types


@dataclass
class Module:
    functions: dict[str, Function]
    entry: str

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise IRError(f"no function @{name} in module") from None

    def clone(self) -> "Module":
        funcs = {}
        for name, f in self.functions.items():
            funcs[name] = clone_function(f)
        return Module(funcs, self.entry)


def clone_function(f: Function) -> Function:
    blocks = [Block(b.label, list(b.instrs)) for b in f.blocks]
    return Function(f.name, list(f.params), f.ret, blocks, f.provenance)


def zero_literal(ty: str) -> Lit:
    """The neutral literal of a type: 0 / 0.0 / false / null."""
    return Lit(0.0 if ty == "f64" else 0, ty)


def wrap_int(value: int, ty: str) -> int:
    """The integer in INT_RANGE[ty] congruent to `value` modulo its size."""
    lo, hi = INT_RANGE[ty]
    return (value - lo & hi - lo) + lo


N = TypeVar("N", bound=Hashable)


def postorder(entry: N, succs_of: Callable[[N], Iterable[N]]) -> list[N]:
    """The nodes reachable from `entry` in depth-first postorder, found with
    an explicit stack; `succs_of(node)` gives a node's successors in visit
    order, called once, when the search first reaches it. An edge to a node
    not earlier in the list closes a cycle (Tarjan, SIAM J. Comput. 1972)."""
    post: list[N] = []
    seen = {entry}
    path = [(entry, iter(succs_of(entry)))]
    while path:
        node, it = path[-1]
        for s in it:
            if s not in seen:
                seen.add(s)
                path.append((s, iter(succs_of(s))))
                break
        else:
            post.append(node)
            path.pop()
    return post


def _alpha_text(f: Function) -> str:
    """Canonical text of f with registers and labels alpha-renamed."""
    regs: dict[str, str] = {}
    labels: dict[str, str] = {}

    def rr(name):
        return regs.setdefault(name, f"r{len(regs)}")

    def rl(name):
        return labels.setdefault(name, f"L{len(labels)}")

    for p, _ in f.params:
        rr(p)
    for b in f.blocks:
        rl(b.label)
    out = [",".join(ty for _, ty in f.params), f.ret]
    for b in f.blocks:
        out.append(rl(b.label) + ":")
        for ins in b.instrs:
            ops = []
            for o in ins.operands:
                ops.append(rr(o.name) if isinstance(o, Reg) else repr(o))
            out.append("|".join([
                ins.op,
                ins.ty or "",
                rr(ins.result) if ins.result else "",
                ",".join(ops),
                ",".join(rl(s) for s in ins.succs),
                ins.callee or "",
                ins.pred or "",
                ins.cast_to or "",
            ]))
    return "\n".join(out)


def structurally_equal(f: Function, g: Function) -> bool:
    """Equality of two functions modulo register and label names."""
    return _alpha_text(f) == _alpha_text(g)


__all__ = [
    "TYPE_TAGS", "TYPE_WIDTH", "INT_RANGE", "OPCODES", "OPCODE_INDEX",
    "BINOPS_INT", "BINOPS_FLOAT", "CASTS", "TERMINATORS",
    "ICMP_PREDS", "FCMP_PREDS",
    "IRError", "Reg", "Lit", "Operand", "Instr", "Block", "Function", "Module",
    "clone_function", "zero_literal", "wrap_int", "structurally_equal",
    "operand_slot_types", "SLOTS", "PROVENANCE_WORDS", "postorder",
]

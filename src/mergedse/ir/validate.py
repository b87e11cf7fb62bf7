"""Module validator: structural, type, initialization and call-graph checks.

Checks are deliberately strict so that every transformation in the toolkit
(loop extraction, function merging) can assert its output is well formed:

  - every block ends in exactly one terminator, and blocks are reachable
  - every referenced label / callee / register exists
  - operand counts and types match the opcode
  - each register has a single type within a function
  - every register is assigned before use on every path from entry
  - the entry block has no predecessors
  - the module call graph is acyclic (no recursion)
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import product

from .core import (
    BINOPS_FLOAT, BINOPS_INT, CASTS, FCMP_PREDS, ICMP_PREDS, INT_RANGE, OPCODES,
    SLOTS, TYPE_TAGS, Function, Instr, IRError, Module, Reg,
    operand_slot_types, wrap_int,
)

CAST_PAIRS = {
    "zext": {("i1", "i32"), ("i1", "i64"), ("i32", "i64")},
    "trunc": {("i64", "i32"), ("i64", "i1"), ("i32", "i1")},
    "sitofp": {("i32", "f64"), ("i64", "f64")},
    "fptosi": {("f64", "i32"), ("f64", "i64")},
}

_NO_RESULT = {"store", "br", "jmp", "ret"}


class ValidationError(IRError):
    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


def _shape_findings(op, ty, pred, cast_to, assigns: bool, nops: int,
                    nsuccs: int, ret) -> tuple[list[str], bool]:
    """The findings of an instruction shape, without `@function: `, and
    whether they end its checks; `ret` is the function's return type."""
    if op not in OPCODES:
        return [f"unknown opcode {op!r}"], True
    arity = len(SLOTS[op]) if op in SLOTS else None
    if arity is not None and nops != arity:
        return [f"{op} expects {arity} operands, has {nops}"], True
    out = []
    if assigns == (op in _NO_RESULT or op == "call" and ty == "void"):
        out.append(f"{op} cannot produce a result" if assigns
                   else f"{op} must assign a register")
    if op == "br" and nsuccs != 2:
        out.append("br needs exactly two successors")
    if op == "jmp" and nsuccs != 1:
        out.append("jmp needs exactly one successor")
    if op not in ("br", "jmp") and nsuccs:
        out.append(f"{op} cannot have successors")
    if op in BINOPS_INT and ty not in ("i1", "i32", "i64"):
        out.append(f"{op} requires an integer type, got {ty}")
    if op in BINOPS_INT and op not in ("and", "or", "xor") and ty == "i1":
        out.append(f"{op} not defined on i1")
    if op in BINOPS_FLOAT and ty != "f64":
        out.append(f"{op} requires f64")
    if op == "icmp" and pred not in ICMP_PREDS:
        out.append(f"bad icmp predicate {pred!r}")
    if op == "icmp" and ty not in ("i1", "i32", "i64"):
        out.append(f"icmp requires an integer type, got {ty}")
    if op == "fcmp" and pred not in FCMP_PREDS:
        out.append(f"bad fcmp predicate {pred!r}")
    if op == "fcmp" and ty != "f64":
        out.append("fcmp requires f64")
    if op in CASTS and (ty, cast_to) not in CAST_PAIRS[op]:
        out.append(f"invalid cast {op} {ty} to {cast_to}")
    if op == "ret" and ret == "void" and nops:
        out.append("ret with a value in a void function")
    if op == "ret" and ret != "void" and (nops != 1 or ty != ret):
        out.append(f"ret must return one {ret} value")
    return out, False


# Every shape without findings among those the parser and merged codegen
# write (up to 8 call arguments), built at import: the parser validates.
_FINE_SHAPES = frozenset(
    shape for op in OPCODES for shape in product(
        (op,), TYPE_TAGS + (None, "void"),
        {"icmp": ICMP_PREDS, "fcmp": FCMP_PREDS}.get(op, (None,)),
        TYPE_TAGS if op in CASTS else (None,), (False, True),
        range(9) if op == "call" else (0, 1) if op == "ret"
        else (len(SLOTS[op]),), ({"br": 2, "jmp": 1}.get(op, 0),),
        ("void",) + TYPE_TAGS if op == "ret" else (None,))
    if not _shape_findings(*shape)[0])


def _check_instr_shape(f: Function, ins: Instr, reg_types, m: Module, diags):
    """Append the diagnostics of one instruction of f: its shape's
    `_shape_findings` unless `_FINE_SHAPES` holds it, then its callee's and
    operand types'."""
    op, where = ins.op, f"@{f.name}"
    shape = (op, ins.ty, ins.pred, ins.cast_to, ins.result is not None,
             len(ins.operands), len(ins.succs), f.ret if op == "ret" else None)
    if shape not in _FINE_SHAPES:
        found, stop = _shape_findings(*shape)
        diags.extend(f"{where}: {d}" for d in found)
        if stop:
            return
    callee_params = None
    if ins.op == "call":
        if ins.callee not in m.functions:
            diags.append(f"{where}: call to undefined function @{ins.callee}")
            return
        cal = m.functions[ins.callee]
        callee_params = cal.params
        if ins.ty != cal.ret:
            diags.append(f"{where}: call type {ins.ty} does not match @{cal.name} -> {cal.ret}")
        if len(ins.operands) != len(cal.params):
            diags.append(f"{where}: call to @{cal.name} expects {len(cal.params)} args, "
                         f"has {len(ins.operands)}")
            return

    slots = operand_slot_types(ins, reg_types, callee_params)
    if ins.op == "gep" and slots[1] not in ("i32", "i64"):
        diags.append(f"{where}: gep index must be i32 or i64, got {slots[1]}")
    for o, want in zip(ins.operands, slots):
        if isinstance(o, Reg):
            have = reg_types.get(o.name)
            if have is None:
                continue  # reported by the must-assign pass
            if have != want:
                diags.append(f"{where}: operand %{o.name} has type {have}, expected {want}")
        else:
            if o.ty != want:
                diags.append(f"{where}: literal {o.value!r} has type {o.ty}, expected {want}")
            if o.ty in INT_RANGE and o.value != wrap_int(o.value, o.ty):
                diags.append(f"{where}: {o.ty} literal {o.value} out of range")


def check_function(f: Function, m: Module, diags: list[str],
                   reg_types: dict[str, str] | None = None):
    """Append the diagnostics of `f` to `diags`; `m` supplies its callees.
    `reg_types`, when given, is `f.register_types()`, already found."""
    where = f"@{f.name}"
    names = [p for p, _ in f.params]
    diags.extend(f"{where}: duplicate parameter %{p}"
                 for i, p in enumerate(names) if p in names[:i])
    if not f.blocks:
        diags.append(f"{where}: function has no blocks")
        return
    labels = [b.label for b in f.blocks]
    if len(set(labels)) != len(labels):
        diags.append(f"{where}: duplicate block label")
        return
    label_set = set(labels)

    for b in f.blocks:
        if not b.instrs:
            diags.append(f"{where}: block {b.label} is empty")
            return
        for ins in b.instrs[:-1]:
            if ins.is_terminator():
                diags.append(f"{where}: terminator in the middle of block {b.label}")
        if not b.instrs[-1].is_terminator():
            diags.append(f"{where}: block {b.label} does not end in a terminator")
        for s in b.instrs[-1].succs:
            if s not in label_set:
                diags.append(f"{where}: undefined label {s} in block {b.label}")
    if diags:
        return

    if reg_types is None:
        try:
            reg_types = f.register_types()
        except IRError as e:
            diags.append(str(e))
            return

    for b in f.blocks:
        for ins in b.instrs:
            _check_instr_shape(f, ins, reg_types, m, diags)
    if diags:
        return

    # reachability + entry has no predecessors
    succs = {b.label: b.terminator().succs for b in f.blocks}
    seen, stack = set(), [f.entry]
    while stack:
        lab = stack.pop()
        if lab not in seen:
            seen.add(lab)
            stack.extend(succs[lab])
    diags.extend(f"{where}: unreachable block {lab}"
                 for lab in labels if lab not in seen)
    if any(f.entry in succs[lab] for lab in seen):
        diags.append(f"{where}: entry block {f.entry} has predecessors")
    if diags:
        return

    # must-assign analysis: every register assigned before use on every path
    for label, r in unassigned_uses(f):
        what = "undefined register" if r not in reg_types else "register"
        diags.append(f"{where}: {what} %{r} used before assignment "
                     f"in block {label}")


def _must_masks(f: Function) -> tuple[dict[str, int], dict[str, int]]:
    """Each register's bit (params first, then results in program order) and
    the mask of registers definitely assigned on every path at each block's
    entry: the maximal fixpoint of the forward intersection dataflow, reached
    by round-robin passes in block order from all registers at every block
    but the entry, which holds the parameters."""
    bit: dict[str, int] = {}
    for p, _ in f.params:
        bit.setdefault(p, 1 << len(bit))
    params = (1 << len(bit)) - 1
    preds: dict[str, list[str]] = {b.label: [] for b in f.blocks}
    gen: dict[str, int] = {}
    for b in f.blocks:
        for s in b.terminator().succs:
            preds[s].append(b.label)
        g = 0
        for ins in b.instrs:
            if ins.result is not None:
                g |= bit.setdefault(ins.result, 1 << len(bit))
        gen[b.label] = g
    universe = (1 << len(bit)) - 1
    avail = dict.fromkeys(gen, universe)
    avail[f.entry] = params
    out = {lab: avail[lab] | g for lab, g in gen.items()}   # at block exit
    rest = [(lab, preds[lab], gen[lab]) for lab in preds if lab != f.entry]
    changed = True
    while changed:
        changed = False
        for lab, ps, g in rest:
            inb = universe
            for p in ps:
                inb &= out[p]
            if inb != avail[lab]:
                avail[lab], out[lab] = inb, inb | g
                changed = True
    return bit, avail


def must_assigned_at(f: Function) -> dict[str, set[str]]:
    """Registers definitely assigned on every path at each block's entry."""
    bit, avail = _must_masks(f)
    return {lab: {r for r, b in bit.items() if mask & b}
            for lab, mask in avail.items()}


def unassigned_uses(f: Function) -> list[tuple[str, str]]:
    """(block label, register) of every operand read that some path from the
    entry reaches before the register is assigned, in program order. A
    register no instruction assigns has no bit, so every read of it counts."""
    bit, avail = _must_masks(f)
    out = []
    for b in f.blocks:
        running = avail[b.label]
        for ins in b.instrs:
            for o in ins.operands:
                if type(o) is Reg and not running & bit.get(o.name, 0):
                    out.append((b.label, o.name))
            if ins.result is not None:
                running |= bit[ins.result]
    return out


def validate_module(m: Module) -> None:
    """Validate a module; raise ValidationError listing every diagnostic."""
    diags: list[str] = []
    if m.entry not in m.functions:
        diags.append(f"entry function @{m.entry} does not exist")
    for f in m.functions.values():
        local: list[str] = []
        check_function(f, m, local)
        diags.extend(local)

    # recursion: the call graph must be a DAG
    if not diags:
        cycle = _call_cycle(m)
        if cycle:
            diags.append("recursive call cycle: " + " -> ".join(cycle))

    if diags:
        raise ValidationError(diags)


def _call_cycle(m: Module) -> list[str] | None:
    """The path of a depth-first search (roots in module order, callees in
    instruction order, an explicit stack) to its first repeated function."""
    def callees(name: str) -> Iterator[str]:
        return (ins.callee for ins in m.functions[name].instructions()
                if ins.op == "call" and ins.callee in m.functions)
    color: dict[str, int] = {}   # 1 on the search path, 2 done
    for root in m.functions:
        if root in color:
            continue
        color[root], path, stack = 1, [root], [callees(root)]
        while stack:
            for c in stack[-1]:
                if color.get(c) == 1:
                    return path + [c]
                if c not in color:
                    color[c] = 1
                    path.append(c)
                    stack.append(callees(c))
                    break
            else:
                stack.pop()
                color[path.pop()] = 2
    return None

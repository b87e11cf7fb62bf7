"""Canonical text form of the mini-IR. parse(print(m)) is the identity."""

from __future__ import annotations

from .core import PROVENANCE_WORDS, Function, Instr, Lit, Module, Reg


def _lit(o: Lit) -> str:
    if o.ty == "i1":
        return "true" if o.value else "false"
    if o.ty == "ptr":
        return "null" if o.value == 0 else str(o.value)
    if o.ty == "f64":   # an infinity is written as a float that overflows
        return repr(float(o.value)).replace("inf", "1e999")
    return str(o.value)


def _op(o) -> str:
    return "%" + o.name if isinstance(o, Reg) else _lit(o)


def print_instr(ins: Instr) -> str:
    """`[%r =] op [pred] [type][,] operands [labels] [to type]`, the path the
    parser reads; br and jmp carry no type, and call its own argument list."""
    lhs = f"%{ins.result} = " if ins.result is not None else ""
    if ins.op == "call":
        args = ", ".join(map(_op, ins.operands))
        return f"{lhs}call {ins.ty} @{ins.callee}({args})"
    text = " ".join(filter(None, (ins.op, ins.pred,
                                  None if ins.succs else ins.ty)))
    items = ", ".join([*map(_op, ins.operands), *ins.succs])
    if items:
        text += (", " if ins.op == "load" else " ") + items
    if ins.cast_to is not None:
        text += f" to {ins.cast_to}"
    return lhs + text


def print_function(f: Function) -> str:
    params = ", ".join(f"%{p}: {t}" for p, t in f.params)
    word = PROVENANCE_WORDS.get(f.provenance)
    tag = f" {word}" if word else ""
    lines = [f"func @{f.name}({params}) -> {f.ret}{tag} {{"]
    for b in f.blocks:
        lines.append(f"{b.label}:")
        for ins in b.instrs:
            lines.append("  " + print_instr(ins))
    lines.append("}")
    return "\n".join(lines)


def print_module(m: Module) -> str:
    """Deterministic canonical form; function and block order is preserved."""
    return "\n\n".join(print_function(f) for f in m.functions.values()) + "\n"

"""Parser for the mini-IR textual format.

Grammar sketch (comments start with ';' and run to end of line):

    module   := function*
    function := "func" "@" name "(" [param ("," param)*] ")" "->" rettype "{" block+ "}"
    param    := "%" name ":" type
    block    := label ":" instr+
    type     := "i1" | "i32" | "i64" | "f64" | "ptr"

Instruction forms:

    %r = add i32 %a, %b            (add sub mul sdiv srem and or xor shl ashr,
                                    fadd fsub fmul fdiv with f64)
    %r = icmp slt i32 %a, %b
    %r = fcmp olt f64 %x, %y
    %r = select i32 %c, %a, %b
    %r = zext i1 %x to i32         (zext trunc sitofp fptosi)
    %r = load i32, %p
    store i32 %v, %p
    %r = gep i32 %p, %i
    %r = const i32 42
    %r = call i32 @g(%a, 7)        / call void @g()
    br %c, then_label, else_label
    jmp label
    ret i32 %r                     / ret
"""

from __future__ import annotations

import re

from .core import (
    BINOPS_FLOAT, BINOPS_INT, FCMP_PREDS, ICMP_PREDS, TYPE_TAGS,
    Block, Function, Instr, IRError, Lit, Module, Reg, wrap_int,
)
from .validate import CAST_PAIRS, validate_module


class ParseError(IRError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>;[^\n]*)
  | (?P<float>-?\d+\.\d*(?:[eE][+-]?\d+)?|-?\d+[eE][+-]?\d+)
  | (?P<int>-?\d+)
  | (?P<reg>%[A-Za-z0-9_.]+)
  | (?P<gname>@[A-Za-z_][A-Za-z0-9_.]*)
  | (?P<word>[A-Za-z_][A-Za-z0-9_.]*)
  | (?P<punct>->|[(){}:,=])
""", re.VERBOSE)


def _tokenize(text: str):
    tokens = []
    pos, line, col = 0, 1, 1
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind not in ("ws", "comment"):
            tokens.append((kind, value, line, col))
        nl = value.count("\n")
        if nl:
            line += nl
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def error(self, message):
        _, value, line, col = self.peek()
        got = repr(value) if value else "end of input"
        raise ParseError(f"{message}, got {got}", line, col)

    def expect(self, kind, value=None):
        k, v, _, _ = self.peek()
        if k != kind or (value is not None and v != value):
            self.error(f"expected {value or kind}")
        return self.next()

    def accept(self, kind, value=None):
        k, v, _, _ = self.peek()
        if k == kind and (value is None or v == value):
            return self.next()
        return None

    # ---- grammar ----

    def module(self) -> Module:
        funcs: dict[str, Function] = {}
        while self.peek()[0] != "eof":
            f = self.function()
            if f.name in funcs:
                self.error(f"duplicate function @{f.name}")
            funcs[f.name] = f
        if not funcs:
            self.error("expected at least one function")
        entry = "main" if "main" in funcs else next(iter(funcs))
        return Module(funcs, entry)

    def function(self) -> Function:
        self.expect("word", "func")
        name = self.expect("gname")[1][1:]
        self.expect("punct", "(")
        params = []
        if not self.accept("punct", ")"):
            while True:
                p = self.expect("reg")[1][1:]
                self.expect("punct", ":")
                params.append((p, self.type_tag()))
                if self.accept("punct", ")"):
                    break
                self.expect("punct", ",")
        self.expect("punct", "->")
        if self.accept("word", "void"):
            ret = "void"
        else:
            ret = self.type_tag()
        provenance = "original"
        if self.accept("word", "merged"):
            provenance = "merged"
        elif self.accept("word", "extracted_loop"):
            provenance = "extracted-loop"
        self.expect("punct", "{")
        blocks = []
        while not self.accept("punct", "}"):
            blocks.append(self.block(ret))
        return Function(name, params, ret, blocks, provenance)

    def type_tag(self) -> str:
        k, v, _, _ = self.peek()
        if k == "word" and v in TYPE_TAGS:
            return self.next()[1]
        self.error("expected a type (i1/i32/i64/f64/ptr)")

    def block(self, ret: str) -> Block:
        label = self.expect("word")[1]
        self.expect("punct", ":")
        instrs = []
        while True:
            instrs.append(self.instr(ret))
            k, v, _, _ = self.peek()
            # a new label or '}' closes the block; the validator checks that a
            # terminator is actually present (and unique, and last)
            if v == "}" or (k == "word" and self.toks[self.i + 1][1] == ":"):
                return Block(label, instrs)

    def operand(self, ty: str) -> Reg | Lit:
        k, v, line, col = self.peek()
        if k == "reg":
            self.next()
            return Reg(v[1:])
        if k == "int":
            self.next()
            if ty == "f64":
                return Lit(float(v), ty)
            if ty == "ptr":
                return Lit(int(v), ty)
            if ty not in ("i1", "i32", "i64"):
                raise ParseError(f"integer literal for non-integer type {ty}", line, col)
            return Lit(wrap_int(int(v), ty), ty)
        if k == "float":
            self.next()
            if ty != "f64":
                raise ParseError(f"float literal for type {ty}", line, col)
            return Lit(float(v), ty)
        if k == "word" and v in ("true", "false"):
            self.next()
            if ty != "i1":
                raise ParseError(f"boolean literal for type {ty}", line, col)
            return Lit(1 if v == "true" else 0, ty)
        if k == "word" and v == "null":
            self.next()
            if ty != "ptr":
                raise ParseError(f"null literal for type {ty}", line, col)
            return Lit(0, ty)
        self.error("expected an operand")

    def instr(self, ret: str) -> Instr:
        k, v, line, col = self.peek()

        if k == "word" and v == "br":
            self.next()
            cond = self.operand("i1")
            self.expect("punct", ",")
            t = self.expect("word")[1]
            self.expect("punct", ",")
            f = self.expect("word")[1]
            return Instr("br", "i1", None, (cond,), succs=(t, f))
        if k == "word" and v == "jmp":
            self.next()
            t = self.expect("word")[1]
            return Instr("jmp", None, None, (), succs=(t,))
        if k == "word" and v == "ret":
            self.next()
            if ret == "void":
                return Instr("ret", None, None, ())
            # canonical form carries the return type: `ret i32 %r`
            nk, nv, nl, nc = self.peek()
            if nk == "word" and nv in TYPE_TAGS:
                if nv != ret:
                    raise ParseError(f"ret type {nv} does not match function type {ret}", nl, nc)
                self.next()
            val = self.operand(ret)
            return Instr("ret", ret, None, (val,))
        if k == "word" and v == "store":
            self.next()
            ty = self.type_tag()
            val = self.operand(ty)
            self.expect("punct", ",")
            ptr = self.operand("ptr")
            return Instr("store", ty, None, (val, ptr))
        if k == "word" and v == "call":
            self.next()
            return self.call(None)
        if k == "reg":
            result = self.next()[1][1:]
            self.expect("punct", "=")
            return self.rhs(result)
        self.error("expected an instruction")

    def call(self, result: str | None) -> Instr:
        if self.accept("word", "void"):
            ty = "void"
        else:
            ty = self.type_tag()
        callee = self.expect("gname")[1][1:]
        self.expect("punct", "(")
        args = []
        if not self.accept("punct", ")"):
            while True:
                args.append(self.raw_operand())
                if self.accept("punct", ")"):
                    break
                self.expect("punct", ",")
        res = result if ty != "void" else None
        if result is not None and ty == "void":
            self.error("void call cannot produce a result")
        return Instr("call", ty, res, tuple(args), callee=callee)

    def raw_operand(self) -> Reg | Lit:
        """Call argument: type checked later against the callee signature."""
        k, v, line, col = self.peek()
        if k == "reg":
            self.next()
            return Reg(v[1:])
        if k == "int":
            self.next()
            return Lit(int(v), "i64")       # width refined by the validator
        if k == "float":
            self.next()
            return Lit(float(v), "f64")
        if k == "word" and v in ("true", "false"):
            self.next()
            return Lit(1 if v == "true" else 0, "i1")
        if k == "word" and v == "null":
            self.next()
            return Lit(0, "ptr")
        self.error("expected a call argument")

    def rhs(self, result: str) -> Instr:
        k, v, line, col = self.peek()
        if k != "word":
            self.error("expected an opcode")
        op = v

        if op in BINOPS_INT or op in BINOPS_FLOAT:
            self.next()
            ty = self.type_tag()
            a = self.operand(ty)
            self.expect("punct", ",")
            b = self.operand(ty)
            return Instr(op, ty, result, (a, b))
        if op in ("icmp", "fcmp"):
            self.next()
            preds = ICMP_PREDS if op == "icmp" else FCMP_PREDS
            pk, pv, pl, pc = self.peek()
            if pk != "word" or pv not in preds:
                self.error(f"expected a {op} predicate ({'/'.join(preds)})")
            self.next()
            ty = self.type_tag()
            a = self.operand(ty)
            self.expect("punct", ",")
            b = self.operand(ty)
            return Instr(op, ty, result, (a, b), pred=pv)
        if op == "select":
            self.next()
            ty = self.type_tag()
            c = self.operand("i1")
            self.expect("punct", ",")
            a = self.operand(ty)
            self.expect("punct", ",")
            b = self.operand(ty)
            return Instr("select", ty, result, (c, a, b))
        if op in CAST_PAIRS:
            self.next()
            src = self.type_tag()
            val = self.operand(src)
            self.expect("word", "to")
            dst = self.type_tag()
            if (src, dst) not in CAST_PAIRS[op]:
                raise ParseError(f"invalid cast {op} {src} to {dst}", line, col)
            return Instr(op, src, result, (val,), cast_to=dst)
        if op == "load":
            self.next()
            ty = self.type_tag()
            self.expect("punct", ",")
            ptr = self.operand("ptr")
            return Instr("load", ty, result, (ptr,))
        if op == "gep":
            self.next()
            ty = self.type_tag()
            base = self.operand("ptr")
            self.expect("punct", ",")
            idx = self.raw_operand()
            if isinstance(idx, Lit):
                idx = Lit(int(idx.value), "i64")
            return Instr("gep", ty, result, (base, idx))
        if op == "const":
            self.next()
            ty = self.type_tag()
            val = self.operand(ty)
            if not isinstance(val, Lit):
                self.error("const takes a literal")
            return Instr("const", ty, result, (val,))
        if op == "call":
            self.next()
            return self.call(result)
        self.error(f"unknown opcode {op!r}")


def _retype_call_literals(m: Module):
    """Give call-argument literals the type of the matching callee parameter.

    Bare literals in call argument lists are parsed width-agnostically; once
    the whole module is known they are coerced to the callee's declared types.
    """
    for f in m.functions.values():
        for b in f.blocks:
            for i, ins in enumerate(b.instrs):
                if ins.op != "call" or ins.callee not in m.functions:
                    continue
                params = m.functions[ins.callee].params
                if len(params) != len(ins.operands):
                    continue  # validator reports the arity mismatch
                ops = []
                for o, (_, ty) in zip(ins.operands, params):
                    if isinstance(o, Lit) and o.ty != ty:
                        if ty == "f64" and isinstance(o.value, (int, float)):
                            o = Lit(float(o.value), ty)
                        elif ty in ("i1", "i32", "i64") and isinstance(o.value, int):
                            o = Lit(wrap_int(o.value, ty), ty)
                        elif ty == "ptr" and isinstance(o.value, int):
                            o = Lit(int(o.value), ty)
                    ops.append(o)
                b.instrs[i] = Instr("call", ins.ty, ins.result, tuple(ops),
                                    callee=ins.callee)


def parse_module(text: str) -> Module:
    """Parse mini-IR source into a validated Module."""
    m = _Parser(text).module()
    _retype_call_literals(m)
    validate_module(m)
    return m

"""Parser for the mini-IR textual format.

Grammar sketch (comments start with ';' and run to end of line):

    module   := function*
    function := "func" "@" name "(" [param ("," param)*] ")" "->" rettype
                [provenance] "{" block+ "}"
    param    := "%" name ":" type
    block    := label ":" instr+
    type     := "i1" | "i32" | "i64" | "f64" | "ptr"
    instr    := ["%" name "="] opcode [pred] [type] [","] slots [labels] ["to" type]
              | ["%" name "="] "call" (type | "void") "@" name "(" [operand ("," operand)*] ")"
              | "ret" [[type] operand]

`SLOTS` (core.py) gives the operand slots of every opcode but call and ret,
and slots and labels are comma-separated. Only load has the comma before
its slots, only casts the "to" type, and only br and jmp have labels (and
no type). In a non-void function `ret` takes one operand, optionally after
its type. A literal fits a slot as `_Parser.literal` says; call arguments
are typed by the callee's parameters once every function is known. The
validator owns every other rule: predicates, types, and which opcodes
write a register.

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
from dataclasses import replace

from .core import (
    CASTS, PROVENANCE_WORDS, SLOTS, TYPE_TAGS, Block, Function, Instr, IRError,
    Lit, Module, Reg, wrap_int,
)
from .validate import validate_module


class ParseError(IRError):
    """`message` about the token at offset `pos` of `text`, by line and column."""

    def __init__(self, message: str, text: str, pos: int):
        self.line = text.count("\n", 0, pos) + 1
        self.col = pos - text.rfind("\n", 0, pos)
        super().__init__(f"{self.line}:{self.col}: {message}")
        self.message = message


# One match per token: the blanks and comments before it, then the token.
# `bad` and `eof` leave no text unmatched, so the greedy prefix is never
# given back (a trailing blank may add a second eof token, which nothing
# reads).
_TOKEN_RE = re.compile(r"""
    (?:[ \t\r\n]|;[^\n]*)*
    (?:(?P<float>-?\d+\.\d*(?:[eE][+-]?\d+)?|-?\d+[eE][+-]?\d+)
     | (?P<int>-?\d+)
     | (?P<reg>%[A-Za-z0-9_.]+)
     | (?P<gname>@[A-Za-z_][A-Za-z0-9_.]*)
     | (?P<word>[A-Za-z_][A-Za-z0-9_.]*)
     | (?P<punct>->|[(){}:,=])
     | (?P<bad>.)
     | (?P<eof>\Z))
""", re.VERBOSE)

# br and jmp are written without a type and end in successor labels:
# opcode -> (the instruction's type, number of labels)
_BRANCHES = {"br": ("i1", 2), "jmp": (None, 1)}

# The type of a literal token before it meets a slot (a call argument).
_OWN_TYPE = {"int": "i64", "float": "f64", "true": "i1", "false": "i1",
             "null": "ptr"}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = [(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup))
                     for m in _TOKEN_RE.finditer(text)]
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def error(self, message, tok=None):
        kind, value, pos = tok or self.peek()
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", self.text, pos)
        if len(value) > 40:  # echo at most 40 characters of a token
            value = value[:40] + "…"
        got = repr(value) if value else "end of input"
        raise ParseError(f"{message}, got {got}", self.text, pos)

    def expect(self, kind, value=None):
        k, v, _ = self.peek()
        if k != kind or (value is not None and v != value):
            self.error(f"expected {value or kind}")
        return self.next()

    def accept(self, kind, value=None):
        k, v, _ = self.peek()
        if k == kind and (value is None or v == value):
            return self.next()
        return None

    # ---- grammar ----

    def module(self) -> Module:
        funcs: dict[str, Function] = {}
        while self.peek()[0] != "eof":
            at = self.toks[self.i + 1][2]   # where the @name after "func" is
            f = self.function()
            if f.name in funcs:
                raise ParseError(f"duplicate function @{f.name}", self.text, at)
            funcs[f.name] = f
        if not funcs:
            self.error("expected at least one function")
        entry = "main" if "main" in funcs else next(iter(funcs))
        m = Module(funcs, entry)
        self.type_call_literals(m)
        return m

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
        provenance = next((p for p, word in PROVENANCE_WORDS.items()
                           if self.accept("word", word)), "original")
        self.expect("punct", "{")
        blocks = []
        while not self.accept("punct", "}"):
            blocks.append(self.block(ret))
        return Function(name, params, ret, blocks, provenance)

    def type_tag(self) -> str:
        k, v, _ = self.peek()
        if k == "word" and v in TYPE_TAGS:
            return self.next()[1]
        self.error("expected a type (i1/i32/i64/f64/ptr)")

    def block(self, ret: str) -> Block:
        label = self.expect("word")[1]
        self.expect("punct", ":")
        instrs = []
        while True:
            instrs.append(self.instr(ret))
            k, v, _ = self.peek()
            # a new label or '}' closes the block; the validator checks that a
            # terminator is actually present (and unique, and last)
            if v == "}" or (k == "word" and self.toks[self.i + 1][1] == ":"):
                return Block(label, instrs)

    def literal(self, tok, ty: str | None) -> Lit:
        """The literal token `tok` denotes in a slot of type `ty`. Integers
        fit every slot, wrapping into INT_RANGE; floats fit only f64,
        true/false only i1 and null only ptr. An "idx" slot (gep's index)
        takes integers as i64; `ty` None means the token's own type."""
        kind, text, _ = tok
        want = ty or _OWN_TYPE.get(text) or _OWN_TYPE.get(kind)
        if kind == "int" and want != "f64":
            try:
                value = int(text)
            except ValueError:   # more digits than int() converts
                self.error("integer literal too long", tok)
            if want == "ptr":
                return Lit(value, want)
            want = "i64" if want == "idx" else want
            return Lit(wrap_int(value, want), want)
        if kind in ("int", "float") and want == "f64":
            return Lit(float(text), want)
        if text in ("true", "false", "null") and _OWN_TYPE[text] == want:
            return Lit(int(text == "true"), want)
        what = {None: "an operand", "idx": "a register or an integer"}
        self.error("expected " + what.get(ty, f"an operand of type {ty}"), tok)

    def operand(self, ty: str | None):
        """A register, or a literal for a slot of type `ty`. A call argument
        (`ty` None) keeps a literal's token until its callee is known."""
        tok = self.next()
        if tok[0] == "reg":
            return Reg(tok[1][1:])
        lit = self.literal(tok, ty)
        return tok if ty is None else lit

    def instr(self, ret: str) -> Instr:
        result = None
        if self.peek()[0] == "reg":
            result = self.next()[1][1:]
            self.expect("punct", "=")
        k, op, _ = self.peek()
        if k != "word" or op not in SLOTS and op not in ("call", "ret"):
            self.error("expected an instruction")
        self.next()
        if op == "call":
            ty = "void" if self.accept("word", "void") else self.type_tag()
            callee = self.expect("gname")[1][1:]
            self.expect("punct", "(")
            args = []
            while not self.accept("punct", ")"):
                if args:
                    self.expect("punct", ",")
                args.append(self.operand(None))
            return Instr("call", ty, result, tuple(args), callee=callee)
        if op == "ret":
            if ret == "void":
                return Instr("ret", None, result)
            ty = self.type_tag() if self.peek()[1] in TYPE_TAGS else ret
            return Instr("ret", ty, result, (self.operand(ty),))
        pred = self.expect("word")[1] if op in ("icmp", "fcmp") else None
        ty, nlabels = _BRANCHES.get(op) or (self.type_tag(), 0)
        if op == "load":
            self.expect("punct", ",")
        slots = SLOTS[op]
        items = []
        for n, slot in enumerate(slots + ("label",) * nlabels):
            if n:
                self.expect("punct", ",")
            items.append(self.expect("word")[1] if slot == "label" else
                         self.operand(ty if slot == "T" else slot))
        cast_to = None
        if op in CASTS:
            self.expect("word", "to")
            cast_to = self.type_tag()
        return Instr(op, ty, result, tuple(items[:len(slots)]),
                     tuple(items[len(slots):]), pred=pred, cast_to=cast_to)

    def type_call_literals(self, m: Module):
        """Type each call-argument literal by its callee's parameter; one the
        validator rejects (unknown callee, wrong arity) keeps its own type."""
        for f in m.functions.values():
            for b in f.blocks:
                for i, ins in enumerate(b.instrs):
                    if ins.op != "call":
                        continue
                    callee = m.functions.get(ins.callee)
                    tys = [t for _, t in callee.params] if callee else []
                    if len(tys) != len(ins.operands):
                        tys = [None] * len(ins.operands)
                    b.instrs[i] = replace(ins, operands=tuple(
                        o if isinstance(o, Reg) else self.literal(o, ty)
                        for o, ty in zip(ins.operands, tys)))


def parse_module(text: str) -> Module:
    """Parse mini-IR source into a validated Module."""
    m = _Parser(text).module()
    validate_module(m)
    return m

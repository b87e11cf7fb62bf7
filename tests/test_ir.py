import json
import random
import struct
from itertools import product

import pytest

from mergedse.analysis import extract_loops, rank_pairs
from mergedse.dse import MIN_SIMILARITY
from mergedse.ir import (
    BINOPS_FLOAT, BINOPS_INT, CASTS, FCMP_PREDS, ICMP_PREDS, OPCODES,
    TYPE_TAGS, Arena, Block, Function, HeapImage, Instr, InterpError,
    IRError, Lit, Module, ParseError, Program, Reg, Trace, ValidationError,
    interpret, operand_slot_types, parse_module, print_module,
    run_heap_image, validate, validate_module, wrap_int,
)
from mergedse.ir.core import INT_RANGE, SLOTS
from mergedse.ir.validate import CAST_PAIRS, _check_instr_shape
from mergedse.merge import MergeRejected, merge_functions

from conftest import PAIR_SRC
from test_interp_golden import GOLDEN, _cases


def test_parse_identity_function():
    m = parse_module("func @id(%a: i32) -> i32 { bb0: ret i32 %a }")
    assert list(m.functions) == ["id"]
    f = m.functions["id"]
    assert len(f.blocks) == 1
    assert f.blocks[0].instrs[0].op == "ret"


def test_parse_selector_pair(pair_module):
    f1 = pair_module.functions["sel_a"]
    f2 = pair_module.functions["sel_b"]
    assert len(f1.blocks) == 4
    assert len(f2.blocks) == 4
    assert any(i.op == "call" and i.callee == "helper"
               for i in f1.instructions())


def test_use_before_assignment_rejected():
    with pytest.raises(ValidationError, match=r"register %y used before assignment"):
        parse_module("func @bad() -> i32 { bb0: %x = add i32 %y, 1\n ret i32 %x }")


@pytest.mark.parametrize("src,match", [
    ("func @f() -> i32 { bb0: %x = add i32 1, 2 }", "terminator"),
    ("func @f() -> i32 { bb0: jmp nowhere }", "undefined label"),
    ("func @f() -> i32 { bb0: %x = call i32 @g(1)\n ret i32 %x }",
     "undefined function"),
    ("func @f(%p: f64) -> i32 { bb0: %x = add i32 %p, 1\n ret i32 %x }",
     "has type f64"),
    ("func @f() -> i32 { bb0: jmp bb0 }", "entry block"),
    ("func @f() -> i32 { bb0: ret i32 1\nbb1: ret i32 2 }", "unreachable"),
])
def test_validator_diagnostics(src, match):
    with pytest.raises(ValidationError, match=match):
        parse_module(src)


def _check_instr_shape_oracle(f, ins, reg_types, m, diags):
    """The instruction check as it was written before its shape findings
    came from one table: every rule tested in turn, per instruction."""
    where = f"@{f.name}"
    if ins.op not in OPCODES:
        diags.append(f"{where}: unknown opcode {ins.op!r}")
        return

    arity = len(SLOTS[ins.op]) if ins.op in SLOTS else None
    if arity is not None and len(ins.operands) != arity:
        diags.append(f"{where}: {ins.op} expects {arity} operands, has {len(ins.operands)}")
        return

    if ins.op in ("store", "br", "jmp", "ret") or (ins.op == "call"
                                                   and ins.ty == "void"):
        if ins.result is not None:
            diags.append(f"{where}: {ins.op} cannot produce a result")
    elif ins.result is None:
        diags.append(f"{where}: {ins.op} must assign a register")

    if ins.op == "br" and len(ins.succs) != 2:
        diags.append(f"{where}: br needs exactly two successors")
    if ins.op == "jmp" and len(ins.succs) != 1:
        diags.append(f"{where}: jmp needs exactly one successor")
    if ins.op not in ("br", "jmp") and ins.succs:
        diags.append(f"{where}: {ins.op} cannot have successors")

    if ins.op in BINOPS_INT and ins.ty not in ("i1", "i32", "i64"):
        diags.append(f"{where}: {ins.op} requires an integer type, got {ins.ty}")
    if ins.op in BINOPS_INT and ins.op not in ("and", "or", "xor") and ins.ty == "i1":
        diags.append(f"{where}: {ins.op} not defined on i1")
    if ins.op in BINOPS_FLOAT and ins.ty != "f64":
        diags.append(f"{where}: {ins.op} requires f64")
    if ins.op == "icmp":
        if ins.pred not in ICMP_PREDS:
            diags.append(f"{where}: bad icmp predicate {ins.pred!r}")
        if ins.ty not in ("i1", "i32", "i64"):
            diags.append(f"{where}: icmp requires an integer type, got {ins.ty}")
    if ins.op == "fcmp":
        if ins.pred not in FCMP_PREDS:
            diags.append(f"{where}: bad fcmp predicate {ins.pred!r}")
        if ins.ty != "f64":
            diags.append(f"{where}: fcmp requires f64")
    if ins.op in CASTS and (ins.ty, ins.cast_to) not in CAST_PAIRS[ins.op]:
        diags.append(f"{where}: invalid cast {ins.op} {ins.ty} to {ins.cast_to}")
    if ins.op == "ret":
        if f.ret == "void" and ins.operands:
            diags.append(f"{where}: ret with a value in a void function")
        if f.ret != "void" and (len(ins.operands) != 1 or ins.ty != f.ret):
            diags.append(f"{where}: ret must return one {f.ret} value")

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


def test_shape_table_gives_the_oracle_diagnostics():
    # every shape: each opcode and an unknown one, each type tag and None
    # and void, no / a valid / an invalid predicate, each cast target, with
    # and without a result, 0-3 operands, 0-2 successors, a ret in a void
    # and in an i32 function, a call to a present and to a missing callee.
    # The diagnostics, their list and order, are the rule-by-rule check's
    g = Function("g", [("x", "i32"), ("y", "i64")], "i32", [])
    reg_types = {"a": "i32", "b": "i64", "p": "ptr"}
    operands = (Reg("a"), Lit(7, "i64"), Reg("p"))
    checked = fine = 0
    for ret in ("void", "i32"):
        f = Function("f", [], ret, [])
        m = Module({"f": f, "g": g}, "f")
        for op, ty, pred, cast_to, result, nops, nsuccs in product(
                OPCODES + ("bogus",), TYPE_TAGS + (None, "void"),
                (None, "slt", "oeq", "between"), TYPE_TAGS + (None,),
                (None, "r"), range(4), range(3)):
            if ret == "void" and op != "ret":
                continue
            for callee in (("g", "nosuch") if op == "call" else (None,)):
                ins = Instr(op, ty, result, operands[:nops],
                            ("L1", "L2")[:nsuccs], callee, pred, cast_to)
                got, want = [], []
                _check_instr_shape(f, ins, reg_types, m, got)
                _check_instr_shape_oracle(f, ins, reg_types, m, want)
                assert got == want, ins
                checked += 1
                fine += not got
    assert checked > 100_000 and fine > 100


def test_recursion_rejected():
    src = """
    func @a(%x: i32) -> i32 { bb0: %r = call i32 @b(%x)\n ret i32 %r }
    func @b(%x: i32) -> i32 { bb0: %r = call i32 @a(%x)\n ret i32 %r }
    """
    with pytest.raises(ValidationError, match="recursive call cycle"):
        parse_module(src)


def call_chain_ir(n: int, back: int | None = None) -> str:
    """@f0 calls @f1, which calls @f2, ... down to @f{n-1}; with `back`,
    @f{n-1} calls @f{back} instead of returning its argument."""
    funcs = []
    for i in range(n):
        callee = i + 1 if i + 1 < n else back
        body = ("  ret i32 %x" if callee is None else
                f"  %r = call i32 @f{callee}(%x)\n  ret i32 %r")
        funcs.append(f"func @f{i}(%x: i32) -> i32 {{\nbb0:\n{body}\n}}\n")
    return "\n".join(funcs)


def _cycle(src):
    with pytest.raises(ValidationError) as e:
        parse_module(src)
    return e.value.diagnostics


def test_call_cycle_diagnostic_names_the_search_path():
    assert _cycle("""
    func @a(%x: i32) -> i32 { bb0: %r = call i32 @b(%x)\n ret i32 %r }
    func @b(%x: i32) -> i32 { bb0: %r = call i32 @a(%x)\n ret i32 %r }
    """) == ["recursive call cycle: a -> b -> a"]
    # the path starts at the first function in module order; callees are
    # searched in instruction order, and finished ones are not searched again
    assert _cycle("""
    func @r(%x: i32) -> i32 { bb0: %u = call i32 @d(%x)
      %v = call i32 @a(%u)\n ret i32 %v }
    func @d(%x: i32) -> i32 { bb0: ret i32 %x }
    func @a(%x: i32) -> i32 { bb0: %u = call i32 @d(%x)
      %r = call i32 @a(%u)\n ret i32 %r }
    """) == ["recursive call cycle: r -> a -> a"]
    deep = _cycle(call_chain_ir(5000, back=2500))
    assert deep == ["recursive call cycle: " + " -> ".join(
        [f"f{i}" for i in range(5000)] + ["f2500"])]


def test_a_5000_deep_call_chain_parses():
    m = parse_module(call_chain_ir(5000))
    assert len(m.functions) == 5000 and m.entry == "f0"


def _set_must_assigned_at(f):
    """The reference for `validate.must_assigned_at`, on sets: every block
    but the entry starts with all registers and keeps the intersection over
    its predecessors' exits, in block-order passes until nothing changes."""
    preds = {b.label: [] for b in f.blocks}
    universe = {p for p, _ in f.params}
    gen = {}
    for b in f.blocks:
        for s in b.terminator().succs:
            preds[s].append(b.label)
        gen[b.label] = {ins.result for ins in b.instrs
                        if ins.result is not None}
        universe |= gen[b.label]
    avail = {b.label: set(universe) for b in f.blocks}
    avail[f.entry] = {p for p, _ in f.params}
    changed = True
    while changed:
        changed = False
        for b in f.blocks:
            if b.label == f.entry:
                continue
            inb = set(universe)
            for p in preds[b.label]:
                inb &= avail[p] | gen[p]
            if inb != avail[b.label]:
                avail[b.label] = inb
                changed = True
    return avail


def _set_unassigned_uses(f):
    avail = _set_must_assigned_at(f)
    out = []
    for b in f.blocks:
        running = set(avail[b.label])
        for ins in b.instrs:
            out += [(b.label, o.name) for o in ins.operands
                    if isinstance(o, Reg) and o.name not in running]
            if ins.result is not None:
                running.add(ins.result)
    return out


def _random_dataflow_function(rng):
    """A function the parser would refuse: unreachable blocks, self-loops,
    entry predecessors, reads of registers nothing assigns, repeated
    assignments and duplicate parameters."""
    n = rng.randrange(1, 12)
    regs = [f"v{k}" for k in range(rng.randrange(1, 9))]
    params = [(rng.choice(regs), "i32") for _ in range(rng.randrange(0, 4))]
    blocks = []
    for i in range(n):
        instrs = []
        for _ in range(rng.randrange(0, 5)):
            ops = tuple(Reg(rng.choice(regs + ["undef0", "undef1"]))
                        if rng.random() < 0.8 else Lit(1, "i32")
                        for _ in range(2))
            instrs.append(Instr("add", "i32", rng.choice(regs), ops))
        r = rng.random()
        succs = tuple(f"b{rng.randrange(n)}" for _ in range(2))
        if r < 0.45:
            instrs.append(Instr("br", "i1", None, (Reg(rng.choice(regs)),),
                                succs=succs))
        elif r < 0.8:
            instrs.append(Instr("jmp", succs=succs[:1]))
        else:
            instrs.append(Instr("ret", "i32", None, (Reg(rng.choice(regs)),)))
        blocks.append(Block(f"b{i}", instrs))
    return Function("g", params, "i32", blocks)


def _without_inits(mf):
    """The merged body as woven, before its zero initializers."""
    f = mf.function
    first = Block(f.blocks[0].label, f.blocks[0].instrs[mf.inits:])
    return Function(f.name, f.params, f.ret, [first] + f.blocks[1:],
                    f.provenance)


def test_must_assign_matches_the_set_based_dataflow(corpus):
    fns, initialized = [], 0
    for _, m, _ in corpus:
        for mod in (m, extract_loops(m)):
            fns += mod.functions.values()
            for n1, n2, _ in rank_pairs(mod, MIN_SIMILARITY):
                try:
                    mf = merge_functions(mod, n1, n2)
                except MergeRejected:
                    continue
                fns += [_without_inits(mf), mf.function]
                initialized += mf.inits > 0
    rng = random.Random(20)
    generated = [_random_dataflow_function(rng) for _ in range(600)]
    fns += generated
    got = [(validate.must_assigned_at(f), validate.unassigned_uses(f))
           for f in fns]
    assert got == [(_set_must_assigned_at(f), _set_unassigned_uses(f))
                   for f in fns]
    # the evidence covers what it claims to: woven bodies that needed
    # initializers, and generated functions with reads no path assigns
    assert initialized > 50
    assert sum(bool(u) for _, u in got[-len(generated):]) > 300


def test_syntax_error_has_position():
    with pytest.raises(ParseError) as exc:
        parse_module("func @f( -> i32 { bb0: ret i32 1 }")
    assert exc.value.line == 1
    assert "expected" in str(exc.value)


def test_duplicate_function_points_at_its_name():
    src = "func @f() -> i32 { e: ret i32 1 }\nfunc @f() -> i32 { e: ret i32 2 }\n"
    with pytest.raises(ParseError) as exc:
        parse_module(src)
    assert (exc.value.line, exc.value.col) == (2, 6)
    assert str(exc.value) == "2:6: duplicate function @f"


def test_duplicate_parameter_rejected():
    # both would name one register, so the first argument would be dropped
    with pytest.raises(ValidationError) as exc:
        parse_module("func @f(%x: i1, %x: i32) -> i32 {\n"
                     "e:\n  %y = add i32 %x, 1\n  ret i32 %y\n}")
    assert exc.value.diagnostics == ["@f: duplicate parameter %x"]


@pytest.mark.parametrize("value, ty", [
    (2, "i1"), (-1, "i1"), (2 ** 31, "i32"), (-2 ** 31 - 1, "i32"),
    (2 ** 63, "i64"),
])
def test_integer_literal_outside_its_type_rejected(value, ty):
    # the parser wraps integer literals, so only built IR can hold these
    f = Function("f", [], ty, [Block("e", [Instr("ret", ty, None,
                                                 (Lit(value, ty),))])])
    with pytest.raises(ValidationError) as exc:
        validate_module(Module({"f": f}, "f"))
    assert exc.value.diagnostics == [
        f"@f: {ty} literal {value} out of range"]


def test_roundtrip_is_fixed_point(pair_module, corpus):
    mods = [pair_module] + [m for _, m, _ in corpus]
    for m in mods:
        t1 = print_module(m)
        m2 = parse_module(t1)
        assert print_module(m2) == t1
        assert m2 == m  # structural equality of the dataclasses


def test_roundtrip_twice_byte_identical():
    t1 = print_module(parse_module(PAIR_SRC))
    t2 = print_module(parse_module(t1))
    assert t1 == t2


def test_empty_void_function_prints_canonically():
    m = parse_module("func @f() -> void { bb0: ret }")
    assert print_module(m) == "func @f() -> void {\nbb0:\n  ret\n}\n"


def test_interpret_selector_sides(pair_module):
    # with the helper computing c - a: (2+3) - 2 = 3
    r1 = interpret(pair_module, "sel_a", [2, 3, 1])
    assert r1.value == 3
    assert r1.trace.count("sel_a", "add") == 1
    assert r1.trace.count("sel_a", "mul") == 0
    assert r1.trace.calls_between("sel_a", "helper") == 1

    r2 = interpret(pair_module, "sel_b", [2, 3, 7, 1])
    assert r2.value == 6
    assert r2.trace.count("sel_b", "mul") == 1


def test_fuel_exhaustion(pair_module):
    with pytest.raises(InterpError, match="fuel"):
        interpret(pair_module, "sel_a", [2, 3, 1], fuel=0)


def test_division_by_zero():
    m = parse_module("func @f(%a: i32) -> i32 { bb0: %r = sdiv i32 %a, 0\n ret i32 %r }")
    with pytest.raises(InterpError, match="division by zero"):
        interpret(m, "f", [7])


def test_out_of_bounds_and_null_guard():
    m = parse_module("func @f(%p: ptr) -> i32 { bb0: %v = load i32, %p\n ret i32 %v }")
    with pytest.raises(InterpError, match="null/guard"):
        interpret(m, "f", [0])
    with pytest.raises(InterpError, match="out-of-bounds"):
        interpret(m, "f", [10 ** 6])


def test_integer_wraparound_and_shifts():
    m = parse_module("""
    func @f(%a: i32, %b: i32) -> i32 {
    bb0:
      %m = mul i32 %a, %b
      %s = shl i32 %m, 1
      %t = ashr i32 %s, 3
      ret i32 %t
    }
    """)
    big = 2 ** 30
    r = interpret(m, "f", [big, 2])
    # 2^31 wraps to INT_MIN; << 1 gives 0; >> 3 stays 0
    assert r.value == 0
    r2 = interpret(m, "f", [-5, 3])
    assert r2.value == ((-15 << 1) >> 3)


def test_casts_and_floats():
    m = parse_module("""
    func @f(%a: i32) -> i64 {
    bb0:
      %w = zext i32 %a to i64
      %d = sitofp i32 %a to f64
      %e = fmul f64 %d, 2.5
      %t = fptosi f64 %e to i64
      %r = add i64 %w, %t
      ret i64 %r
    }
    """)
    r = interpret(m, "f", [-3])
    # zext treats the i32 bits as unsigned; fptosi truncates toward zero
    assert r.value == ((-3) & 0xFFFFFFFF) + int(-3 * 2.5)


def test_trace_conservation(corpus):
    for name, m, img in corpus:
        r = run_heap_image(m, img)
        total = sum(c for ops in r.trace.counts.values() for c in ops.values())
        assert total == r.trace.total


def test_trace_calls_subset_of_static_graph(corpus):
    from mergedse.analysis import build_call_graph
    for name, m, img in corpus:
        r = run_heap_image(m, img)
        cg = build_call_graph(m)
        for (i, j), c in r.trace.calls.items():
            assert c >= 0
            assert j in cg.direct[i]


def test_interpretation_deterministic(corpus):
    name, m, img = corpus[0]
    r1 = run_heap_image(m, img)
    r2 = run_heap_image(m, img)
    assert r1.value == r2.value
    assert r1.heap == r2.heap
    assert r1.trace.counts == r2.trace.counts
    assert r1.trace.calls == r2.trace.calls
    assert r1.trace.edge_bytes == r2.trace.edge_bytes
    assert r1.trace.total == r2.trace.total


def test_heap_image_parse_and_bind():
    img = HeapImage.parse("""
    ; a region and three scalars
    region buf 8 0102030405060708
    arg 0 = buf
    arg 1 = -7
    arg 2 = true
    """)
    m = parse_module("""
    func @f(%p: ptr, %k: i32, %flag: i1) -> i32 {
    bb0:
      %v = load i32, %p
      %s = select i32 %flag, %v, %k
      ret i32 %s
    }
    """)
    r = run_heap_image(m, img)
    assert r.value == struct.unpack("<i", bytes([1, 2, 3, 4]))[0]


def test_heap_image_errors():
    with pytest.raises(IRError, match="hex longer"):
        HeapImage.parse("region a 1 0102")
    with pytest.raises(IRError, match="duplicate region"):
        HeapImage.parse("region a 1\nregion a 1")
    with pytest.raises(IRError, match="unknown directive"):
        HeapImage.parse("blob a 1")
    with pytest.raises(IRError, match="line 1: invalid literal for int"):
        HeapImage.parse("region a b")
    with pytest.raises(IRError, match="line 2: non-hexadecimal"):
        HeapImage.parse("region a 1\nregion b 1 zz")
    m = parse_module("func @g(%k: i32, %j: i32) -> i32 { bb0: ret i32 %k }")
    with pytest.raises(IRError, match="missing arg"):
        HeapImage.parse("arg 0 = 5").instantiate(m.functions["g"])
    with pytest.raises(IRError, match="non-ptr"):
        HeapImage.parse("region b 4\narg 0 = b\narg 1 = 2").instantiate(
            m.functions["g"])


def test_heap_image_regions_are_bounded_in_all(monkeypatch):
    # the limit holds for the sum, and is checked before a region is built
    from mergedse.ir import interp
    monkeypatch.setattr(interp, "MAX_HEAP_BYTES", 64)
    assert len(HeapImage.parse("region a 40\nregion b 24").regions) == 2
    with pytest.raises(IRError, match="line 2: regions exceed 64 bytes"):
        HeapImage.parse("region a 40\nregion b 25")


def test_store_visible_in_region_image():
    m = parse_module("""
    func @f(%p: ptr) -> void {
    bb0:
      store i32 -1, %p
      ret
    }
    """)
    arena = Arena()
    addr = arena.add_region("r", bytes(8))
    r = interpret(m, "f", [addr], arena)
    assert r.heap[:4] == b"\xff\xff\xff\xff"
    assert r.heap[4:] == bytes(4)


def test_outcome_only_program_matches_the_full_path():
    # Program(footprints=False), as differential verification runs it, must
    # give the same value, heap and instruction counts as the profiling path
    # on every golden case and fuel value (fuel exhaustion included); only
    # the per-edge byte footprints are left out
    golden = json.loads(GOLDEN.read_text())

    def run(prog, img, fuel):
        arena, args = img.instantiate(prog.module.functions[prog.module.entry])
        try:
            r = interpret(prog, None, args, arena, fuel=fuel)
        except InterpError as e:
            return f"{e.kind}: {e}", None
        t = r.trace
        return ((repr(r.value), r.heap, t.total, t.counts, t.hier_counts,
                 t.calls, t.invocations), t.edge_bytes)

    for case, m, img in _cases():
        full, lean = Program(m), Program(m, footprints=False)
        fuels = [10 ** 8] + [f for lo, hi, _ in golden["fuel"][case]
                             for f in range(lo, hi + 1)]
        for fuel in fuels:
            want, edges = run(full, img, fuel)
            got, no_edges = run(lean, img, fuel)
            assert got == want, (case, fuel)
            assert no_edges in (None, {}), (case, fuel)
            if edges is not None:   # the full path charges every call edge
                assert sorted(edges) == sorted(want[5]), (case, fuel)


def test_trace_merge_keeps_unrecorded_footprints_unrecorded():
    # a profile without footprints marks edge_bytes None, and a sum with
    # such a part is unrecorded too, never a smaller count
    recorded, lean = Trace(edge_bytes={("f", "g"): 8}), Trace(edge_bytes=None)
    twice = Trace().merge(recorded).merge(recorded)
    assert twice.edge_bytes == {("f", "g"): 16}
    assert Trace().merge(recorded).merge(lean).edge_bytes is None
    assert Trace().merge(lean).merge(recorded).edge_bytes is None
    m = parse_module(PAIR_SRC)
    assert interpret(Program(m, footprints=False), "sel_a",
                     [2, 3, 1]).trace.edge_bytes is None
    assert interpret(m, "sel_a", [2, 3, 1]).trace.edge_bytes == {
        ("sel_a", "helper"): 12}

"""The interpreter's two tiers compute the same thing.

Every golden case runs with the tier forced cold, forced hot from the first
segment, and (on the all-opcode module) with the switch from cold to hot at
every segment index; boundary operands of every opcode, and random wide
operands of every wrapping opcode, give the same values in both tiers as a
wrap_int-based reference; call arguments of every type pass through `call`
alike in both tiers, unconverted; an i1 from every producer is 0 or 1 in
both tiers, through calls and against `true`; the generated code is
the same under any hash seed and no IR name can change it. The tier is
forced by patching the module constant HOT_MULTIPLE.
"""

from __future__ import annotations

import ast
import json
import math
import struct
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_interp_golden as golden_tests
from conftest import SRC
from mergedse.ir import (
    BINOPS_FLOAT, BINOPS_INT, FCMP_PREDS, ICMP_PREDS, Arena, Block, Function,
    HeapImage, Instr, InterpError, Lit, Module, Program, Reg, interp,
    interpret, parse_module, run_heap_image, wrap_int,
)
import test_ir
from test_interp_golden import GOLDEN, _cases, _summary

TIERS = {"cold": math.inf, "hot": 0}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("tier", TIERS)
def test_forced_tier_matches_golden(golden, monkeypatch, tier):
    monkeypatch.setattr(interp, "HOT_MULTIPLE", TIERS[tier])
    cases = list(_cases())
    golden_tests.test_runs_match_golden(golden, cases)
    golden_tests.test_fuel_boundaries_match_golden(golden, cases)
    golden_tests.test_fuel_runs_out_inside_mid_block_callee(golden)
    golden_tests.test_error_kinds_and_messages_match_golden(golden)
    test_ir.test_outcome_only_program_matches_the_full_path()


def _inline_instrs(fn, contexts) -> int:
    """The instructions `fn` ran inside hot callers, under HOT_MULTIPLE 0:
    all it ran less those its cold frames charged to its heat."""
    return fn.left + sum(k * n for ctx in contexts if ctx.fn is fn
                         for k, n in zip(ctx.runs, fn.lens))


def _assert_tiers(contexts, tier: str) -> set[str]:
    """Every function that ran took the forced tier, except that forced hot
    a leaf or twig reached by a call stays cold and runs inline in its
    callers; returns the names of those leaves and twigs."""
    called = {ctx.fn for ctx in contexts if ctx.parent is not None}
    inline = set()
    for fn in {ctx.fn for ctx in contexts}:
        if fn.run is interp._cold and tier == "hot":
            assert fn.plan is not None and fn in called, fn.name
            assert _inline_instrs(fn, contexts) > 0, fn.name
            inline.add(fn.name)
        else:
            assert (fn.run is not interp._cold) == (tier == "hot"), fn.name
    return inline


def test_forced_tiers_take_their_tier(monkeypatch):
    # in ops @cmp holds more than INLINE_MAX instructions, and the others
    # load or store while the run records footprints
    want = {"ops/FE": set(), "decode/FE": {"clip", "bias_clip", "scale_clip"}}
    for case, m, img in _cases():
        for tier in TIERS if case in want else ():
            monkeypatch.setattr(interp, "HOT_MULTIPLE", TIERS[tier])
            r = run_heap_image(Program(m), img)
            assert _assert_tiers(r._mach.contexts, tier) == (
                want[case] if tier == "hot" else set()), case


@pytest.mark.parametrize("tier", TIERS)
def test_call_depth_limit_in_both_tiers(monkeypatch, tier):
    # forced hot, every frame starts cold and goes on in hot code: two
    # Python frames per call, the most the limit has to leave room for
    monkeypatch.setattr(interp, "HOT_MULTIPLE", TIERS[tier])
    limit = interp.MAX_CALL_DEPTH
    chain, deeper = (Program(parse_module(test_ir.call_chain_ir(n)))
                     for n in (limit, limit + 1))
    # every frame but the last charges a call segment and a ret segment
    mach = interp._Machine(chain)
    assert mach.run("f0", [3], bytearray(interp.REGION_BASE),
                    2 * limit - 1) == 3
    assert max(ctx.depth for ctx in mach.contexts) == limit
    assert _outcome(chain, 2 * limit - 2) == "fuel"
    with pytest.raises(InterpError) as e:
        interpret(deeper, args=[3])
    assert e.value.kind == "depth"
    assert str(e.value) == (f"call to @f{limit} exceeds the call depth "
                            f"limit of {limit}")
    # the depth error comes once the call segments above it are charged
    assert _outcome(deeper, limit) == "depth"
    assert _outcome(deeper, limit - 1) == "fuel"


def _outcome(prog: Program, fuel: int, args=(3,)):
    """The entry's value on `args` with `fuel`, or the kind it raised."""
    try:
        return interpret(prog, args=list(args), fuel=fuel).value
    except InterpError as e:
        return e.kind


RAISE_SRC = """
func @step(%x: i64, %stop: i64) -> i64 {
e:
  %d = sub i64 %stop, %x
  %q = sdiv i64 1, %d
  %y = add i64 %x, 1
  ret i64 %y
}

func @main(%n: i64, %stop: i64, %p: ptr) -> i64 {
e:
  %i = const i64 0
  jmp head
head:
  %c = icmp slt i64 %i, %n
  br %c, body, done
body:
  %i = call i64 @step(%i, %stop)
  jmp head
done:
  %v = load i64, %p
  ret i64 %v
}
"""


def test_runs_that_raise_keep_their_heat(monkeypatch):
    # Heat counts charged segments. @main's are [const jmp icmp br],
    # [call], [jmp icmp br] and [load ret]; @step is one segment of 4.
    monkeypatch.setattr(interp, "HOT_MULTIPLE", 10 ** 6)
    m = parse_module(RAISE_SRC)

    def heat(n, stop, p, raises):
        prog, arena = Program(m), Arena()
        buf = arena.add_region("buf", bytes(8))
        try:
            interpret(prog, "main", [n, stop, buf if p else 0], arena)
        except InterpError as e:
            assert e.kind == raises
        else:
            assert raises is None
        return {name: 10 ** 6 * m.functions[name].size() - fn.left
                for name, fn in prog.decoded.items()}
    returned = heat(5, 100, True, None)
    assert returned == {"main": 4 + 5 * (1 + 3) + 2, "step": 5 * 4}
    assert heat(5, 100, False, "oob") == returned    # the last load raises
    # the fourth call raises in @step, after @main charged its call
    assert heat(5, 3, True, "div-zero") == {"main": 4 + 3 * (1 + 3) + 1,
                                            "step": 4 * 4}


@pytest.mark.parametrize("tier", TIERS)
def test_each_outcome_needs_the_same_least_fuel_in_both_tiers(monkeypatch,
                                                              tier):
    # Charged segments as above; a run of 5 steps charges 4 + 5 * 8 + 2.
    # The least fuel reaching an outcome pays for every instruction up to
    # the one that gives it; one unit less runs out first
    monkeypatch.setattr(interp, "HOT_MULTIPLE", TIERS[tier])
    m = parse_module(RAISE_SRC)

    def run(stop, p, fuel):
        prog, arena = Program(m), Arena()
        buf = arena.add_region("buf", bytes(8))
        mach = interp._Machine(prog)
        try:
            return mach.run("main", [5, stop, buf if p else 0], arena.data,
                            fuel)
        except InterpError as e:
            # forced hot, @step runs inline while fuel pays for all of it
            assert _assert_tiers(mach.contexts, tier) == (
                {"step"} if tier == "hot" else set())
            return e.kind
    # the value; the last load, the paid prefix of [load ret]; and the
    # fourth call, after @main charged it, at @step's sdiv, the second
    # instruction of @step's one segment
    for stop, p, least, want in ((100, True, 4 + 5 * 8 + 2, 0),
                                 (100, False, 4 + 5 * 8 + 1, "oob"),
                                 (3, True, 4 + 3 * 8 + 1 + 2, "div-zero")):
        assert run(stop, p, 1000) == want
        assert run(stop, p, least) == want
        assert run(stop, p, least - 1) == "fuel"
    with pytest.raises(InterpError) as raised:   # raised before any frame
        interpret(m, "main", [1, 2])
    assert raised.value.kind == "type"


@pytest.mark.parametrize("case", ["ops/FE", "ops/FLE"])
def test_switch_at_every_segment_matches_golden(golden, monkeypatch, case):
    # For each function f and each count T of instructions f runs cold, a
    # multiple of T / size(f) switches f to the hot tier at the segment
    # boundary where its cold instructions first reach T, in mid-frame.
    m, img = next((m, img) for c, m, img in _cases() if c == case)
    want = golden["runs"][case]
    total = want["total"]
    monkeypatch.setattr(interp, "HOT_MULTIPLE", math.inf)
    ran = {(ctx.fn.name, i) for ctx in run_heap_image(m, img)._mach.contexts
           for i, k in enumerate(ctx.runs) if k}

    switched = set()
    compiled = interp._Decoded.compiled

    def spy(fn):
        hot = compiled(fn)

        def enter(mach, ctx, args, fuel, r, i):
            switched.add((fn.name, i))
            return hot(mach, ctx, args, fuel, r, i)
        return enter
    monkeypatch.setattr(interp._Decoded, "compiled", spy)

    fuel_outcomes = {f: o for lo, hi, o in golden["fuel"][case]
                     for f in range(lo, hi + 1)}
    for name, f in m.functions.items():
        for t in range(sum(want["counts"][name].values()) + 1):
            monkeypatch.setattr(interp, "HOT_MULTIPLE",
                                Fraction(t, f.size()))
            seen = len(switched)
            got = json.loads(json.dumps(_summary(run_heap_image(m, img))))
            assert got == want, (name, t)
            if len(switched) == seen:
                continue
            # a new switch point: fuel must carry over exactly
            for fuel in (total - 1, t, total - t):
                assert golden_tests._outcome(lambda: run_heap_image(
                    m, img, fuel=fuel)) == fuel_outcomes[fuel], (name, t, fuel)
    assert ran <= switched


# Segments: [e + head] of 9 (the jmp continues into head), [body + head] of
# 6 and [done] of 2. [head] alone is entered only by followed jmps, so it
# gets no segment.
GUARD_SRC = """
func @main(%p: ptr, %n: i32) -> i32 {
e:
  %i = const i32 0
  %s = const i32 0
  %q = gep i32 %p, 1
  %t = load i32, %p
  %s = add i32 %s, %t
  %k = mul i32 %n, 3
  jmp head
head:
  %c = icmp slt i32 %i, %n
  br %c, body, done
body:
  %i = add i32 %i, 1
  %s = add i32 %s, %i
  store i32 %s, %q
  jmp head
done:
  store i32 %s, %q
  ret i32 %s
}
"""


def test_fuel_guard_takes_its_slow_path_and_continues(monkeypatch):
    # The hot tier compares fuel once per segment against the longest
    # segment (9); below that it checks the entered segment's own length.
    m = parse_module(GUARD_SRC)

    def run(tier, fuel):
        monkeypatch.setattr(interp, "HOT_MULTIPLE", TIERS[tier])
        prog, arena = Program(m), Arena()
        p = arena.add_region("r", bytes([5, 0, 0, 0, 0, 0, 0, 0]))
        try:
            out = interpret(prog, "main", [p, 2], arena, fuel=fuel).value
        except InterpError as e:
            out = f"{e.kind}: {e}"
        assert {fn.run is not interp._cold
                for fn in prog.decoded.values()} == {tier == "hot"}
        return out, arena.region_image()

    assert Program(m).function("main").lens == [9, 6, 2]
    total = 9 + 2 * 6 + 2
    outcomes = {f: run("hot", f) for f in range(total + 2)}
    assert outcomes == {f: run("cold", f) for f in range(total + 2)}
    exhausted = "fuel: fuel exhausted in @main"
    # total enters the second [body] with 8 and [done] with exactly 2:
    # both below 9, neither below its own length, so the run returns
    assert outcomes[total] == (8, bytes([5, 0, 0, 0, 8, 0, 0, 0]))
    # one less enters [done] with 1: its store runs, then fuel runs out
    assert outcomes[total - 1] == (exhausted, bytes([5, 0, 0, 0, 8, 0, 0, 0]))
    # 17 enters the second [body] with 2: its two adds run, not its store
    assert outcomes[17] == (exhausted, bytes([5, 0, 0, 0, 6, 0, 0, 0]))


def test_hot_sources_have_one_fuel_check(corpus):
    from mergedse.analysis import extract_loops
    checked = 0
    for _, m, _ in corpus:
        for mm in (m, extract_loops(m)):
            prog = Program(mm)
            for f in mm.functions:
                src = interp._hot_source(prog.function(f))
                assert src.count("exhaust(") == 1, f
                checked += 1
    assert checked > 50


def test_corpus_runs_stay_below_half_the_hot_multiple(corpus):
    # the margin HOT_MULTIPLE is chosen with: each bundled program and image,
    # untransformed and with loops extracted, on a fresh Program compiles
    # nothing, and each function but a leaf reached by a call (which stays
    # cold whatever its heat) runs at most HOT_MULTIPLE / 2 instructions per
    # instruction of its size
    from mergedse.analysis import extract_loops
    checked = 0
    for name, m, img in corpus:
        for mm in (m, extract_loops(m)):
            contexts = run_heap_image(Program(mm), img)._mach.contexts
            called = {ctx.fn for ctx in contexts if ctx.parent is not None}
            for fn in {ctx.fn for ctx in contexts}:
                assert fn.run is interp._cold, (name, fn.name)
                if fn.plan is None or fn not in called:
                    size = fn.source.size()
                    heat = interp.HOT_MULTIPLE * size - fn.left
                    assert 2 * heat <= interp.HOT_MULTIPLE * size, (
                        name, fn.name, heat / size)
                    checked += 1
    assert checked > 30


# ---------------------------------------------------------------------------
# Leaves run inline
# ---------------------------------------------------------------------------

# A hot @main calls four leaves: @one is one segment, @clip branches into
# five, @put stores and returns nothing, and @risky loads, divides and
# computes on f64, so its inputs reach oob, div-zero (integer and float)
# and f64 specials.
LEAF_SRC = """
func @one(%x: i64) -> i64 {
e:
  %y = mul i64 %x, 3
  %y = add i64 %y, 1
  ret i64 %y
}

func @clip(%x: i32, %lo: i32, %hi: i32) -> i32 {
e:
  %c = icmp slt i32 %x, %lo
  br %c, low, up
low:
  ret i32 %lo
up:
  %d = icmp sgt i32 %x, %hi
  br %d, high, mid
high:
  ret i32 %hi
mid:
  %y = add i32 %x, 0
  ret i32 %y
}

func @put(%p: ptr, %i: i32, %v: i32) -> void {
e:
  %q = gep i32 %p, %i
  store i32 %v, %q
  ret
}

func @risky(%p: ptr, %i: i32, %d: i64, %f: f64) -> f64 {
e:
  %q = gep i64 %p, %i
  %v = load i64, %q
  %v = sdiv i64 %v, %d
  %g = sitofp i64 %v to f64
  %g = fdiv f64 %g, %f
  ret f64 %g
}

func @main(%p: ptr, %n: i32, %d: i64, %f: f64) -> f64 {
e:
  %i = const i32 0
  %acc = const f64 0.0
  jmp h
h:
  %c = icmp slt i32 %i, %n
  br %c, b, x
b:
  %k = call i32 @clip(%i, 1, 3)
  %v = mul i32 %i, 40000
  call void @put(%p, %k, %v)
  %o = call i64 @one(%d)
  %r = call f64 @risky(%p, %i, %d, %f)
  %of = sitofp i64 %o to f64
  %acc = fadd f64 %acc, %r
  %acc = fadd f64 %acc, %of
  %i = add i32 %i, 1
  jmp h
x:
  ret f64 %acc
}
"""
# (%n, %d, %f) over a 32-byte buffer: a value, oob at the fifth load,
# integer and float division by zero, nan, and an overflow to inf
LEAF_ARGS = [(4, 3, 0.5), (6, 3, 0.5), (3, 0, 0.5), (3, 2, 0.0),
             (3, -1, math.nan), (3, 1, 1e-300)]

# Leaves returning an argument that was never assigned: @main's %u lost its
# assignment, and @pick's select copies it when %z is 0.
UNSET_SRC = """
func @id(%x: i32) -> i32 {
e:
  ret i32 %x
}

func @pick(%c: i1, %a: i32, %b: i32) -> i32 {
e:
  %r = select i32 %c, %a, %b
  ret i32 %r
}

func @main(%p: ptr, %n: i32, %z: i1) -> i32 {
e:
  %u = const i32 0
  %i = const i32 0
  %s = const i32 0
  jmp h
h:
  %c = icmp slt i32 %i, %n
  br %c, b, x
b:
  %v = call i32 @pick(%z, %i, %u)
  %s = add i32 %s, %v
  %i = add i32 %i, 1
  jmp h
x:
  %w = call i32 @id(%u)
  ret i32 %s
}
"""


def _unset_module(src: str = UNSET_SRC) -> Module:
    m = parse_module(src)
    main = m.functions["main"]
    m.functions["main"] = replace(main, blocks=[replace(b, instrs=[
        ins for ins in b.instrs if ins.result != "u"]) for b in main.blocks])
    return m


def _forced_run(prog: Program, args, fuel=interp.DEFAULT_FUEL):
    """(outcome, heap, trace) of @main on a 32-byte buffer and `args`, and
    the run's machine; the outcome is the value's bits or the error."""
    arena, mach = Arena(), interp._Machine(prog)
    p = arena.add_region("buf", bytes(range(32)))
    try:
        out = _bits(mach.run("main", [p, *args], arena.data, fuel))
    except InterpError as e:
        out = (e.kind, str(e))
    return (out, arena.region_image(), mach.trace()), mach


def _leaf_programs(m: Module, footprints: bool) -> dict[str, Program]:
    """A Program per forced tier; heat is fixed at decoding, so the tier
    holds on every later run."""
    progs = {}
    for tier, multiple in TIERS.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(interp, "HOT_MULTIPLE", multiple)
            progs[tier] = prog = Program(m, footprints)
            for name in m.functions:
                prog.function(name)
    return progs


@pytest.mark.parametrize("src, arglists, leaves", [
    (LEAF_SRC, LEAF_ARGS, [{"one", "clip", "put", "risky"}] * len(LEAF_ARGS)),
    ("unset", [(3, 1), (3, 0)], [{"id", "pick"}, {"pick"}])],
    ids=["leaves", "unset"])
def test_inline_leaves_match_cold_frames_at_every_fuel(src, arglists, leaves):
    # forced hot @main runs every leaf inline while fuel pays for the
    # leaf's longest path and calls it otherwise; either way each fuel
    # gives the cold outcome, heap and trace, so fuel runs out at the same
    # dynamic instruction in both tiers
    m = _unset_module() if src == "unset" else parse_module(src)
    kinds = set()
    for args, inline in zip(arglists, leaves):
        progs = _leaf_programs(m, footprints=False)
        want, _ = _forced_run(progs["cold"], args)
        got, mach = _forced_run(progs["hot"], args)
        assert got == want, args
        assert _assert_tiers(mach.contexts, "hot") == inline, args
        kinds.add(want[0][0] if type(want[0]) is tuple else "value")
        for fuel in range(want[2].total + 2):
            assert (_forced_run(progs["hot"], args, fuel)[0]
                    == _forced_run(progs["cold"], args, fuel)[0]), (args, fuel)
    assert kinds == ({"value", "oob", "div-zero"} if src == LEAF_SRC
                     else {"unassigned"})


def test_a_callee_replaced_after_its_caller_compiled_takes_the_call(
        monkeypatch):
    # @main's hot code holds the @one it inlined; a new @one is decoded
    # anew, and the call runs it in its own frame
    monkeypatch.setattr(interp, "HOT_MULTIPLE", 0)
    m = parse_module(LEAF_SRC)
    prog = Program(m, footprints=False)
    first, _ = _forced_run(prog, LEAF_ARGS[0])
    assert prog.function("main").run is not interp._cold
    m.functions["one"] = parse_module("func @one(%x: i64) -> i64 {\ne:\n"
                                      "%y = sub i64 %x, 5\nret i64 %y\n}"
                                      ).functions["one"]
    got, mach = _forced_run(prog, LEAF_ARGS[0])
    monkeypatch.setattr(interp, "HOT_MULTIPLE", math.inf)
    assert got == _forced_run(Program(m, footprints=False), LEAF_ARGS[0])[0]
    assert got[2].counts["one"] == {"sub": 4, "ret": 4} != first[2].counts["one"]
    one = prog.function("one")
    assert one.run is interp._cold and _inline_instrs(one, mach.contexts) == 0


def test_a_memory_leaf_is_not_inlined_where_footprints_are_recorded():
    # its frame collects the addresses it touches for its call edge
    m = parse_module(LEAF_SRC)
    progs = _leaf_programs(m, footprints=True)
    want, _ = _forced_run(progs["cold"], LEAF_ARGS[0])
    got, mach = _forced_run(progs["hot"], LEAF_ARGS[0])
    assert got == want
    # four calls, each storing 4 bytes and passing two i32 arguments
    assert got[2].edge_bytes[("main", "put")] == 4 * (4 + 2 * 4)
    assert _assert_tiers(mach.contexts, "hot") == {"one", "clip"}
    assert progs["hot"].function("put").plan is None
    assert Program(m, footprints=False).function("put").plan is not None


def test_a_leaf_over_the_size_limit_compiles_on_its_own(monkeypatch):
    # every call site would copy it: a leaf of INLINE_MAX instructions runs
    # inline, one more and it is called, compiled by its own heat
    monkeypatch.setattr(interp, "HOT_MULTIPLE", 0)
    for size, inline in ((interp.INLINE_MAX, {"add"}), (interp.INLINE_MAX + 1,
                                                         set())):
        adds = "%y = add i64 %y, 1\n" * (size - 2)
        m = parse_module(f"func @add(%x: i64) -> i64 {{\ne:\n%y = add i64 %x, "
                         f"1\n{adds}ret i64 %y\n}}\nfunc @main(%x: i64) -> "
                         "i64 {\ne:\n%r = call i64 @add(%x)\nret i64 %r\n}")
        assert m.functions["add"].size() == size
        r = interpret(Program(m), "main", [1])
        assert r.value == size
        assert _assert_tiers(r._mach.contexts, "hot") == inline


# Twigs run inline with their leaves nested in them. @mix calls its leaf
# first, as chain's @mix_a does; @combine branches before its call, as
# pair's @combine_a does, so both arms' segments end in the call of @adjust,
# which divides by the %d - %i that @main passes. @main also calls @scramble
# itself, in a calling context of its own.
TWIG_SRC = """
func @scramble(%x: i32) -> i32 {
e:
  %t = mul i32 %x, 7
  %t = xor i32 %t, 51
  ret i32 %t
}

func @mix(%x: i32, %y: i32) -> i32 {
e:
  %u = call i32 @scramble(%x)
  %v = mul i32 %u, %y
  %w = xor i32 %v, %u
  ret i32 %w
}

func @adjust(%c: i32, %b: i32) -> i32 {
e:
  %r = sdiv i32 %c, %b
  %r = add i32 %r, %c
  ret i32 %r
}

func @combine(%a: i32, %b: i32, %pick: i1) -> i32 {
e:
  br %pick, add_path, mul_path
add_path:
  %c = add i32 %a, %b
  jmp tail
mul_path:
  %c = mul i32 %a, %b
  jmp tail
tail:
  %r = call i32 @adjust(%c, %b)
  ret i32 %r
}

func @main(%p: ptr, %n: i32, %d: i32) -> i32 {
e:
  %i = const i32 0
  %acc = const i32 0
  jmp h
h:
  %c = icmp slt i32 %i, %n
  br %c, b, x
b:
  %q = gep i32 %p, %i
  %v = load i32, %q
  %a = call i32 @mix(%v, 3)
  %par = and i32 %i, 1
  %pk = trunc i32 %par to i1
  %e = sub i32 %d, %i
  %b2 = call i32 @combine(%v, %e, %pk)
  %z = call i32 @scramble(%i)
  %acc = add i32 %acc, %a
  %acc = xor i32 %acc, %b2
  %acc = add i32 %acc, %z
  %i = add i32 %i, 1
  jmp h
x:
  ret i32 %acc
}
"""
# (%n, %d) over eight i32 elements: a value, oob at the ninth load, and
# division by zero in @adjust at the third call and at the first
TWIG_ARGS = [(4, 100), (9, 100), (4, 2), (4, 0)]

# @via hands @pick the register @main never assigned (%u, as in UNSET_SRC)
# once %i reaches %k, so @pick's return, nested in @via, raises.
UNSET_TWIG_SRC = UNSET_SRC.split("func @main")[0] + """
func @via(%i: i32, %k: i32, %a: i32, %b: i32) -> i32 {
e:
  %c = icmp slt i32 %i, %k
  %r = call i32 @pick(%c, %a, %b)
  ret i32 %r
}

func @main(%p: ptr, %n: i32, %k: i32) -> i32 {
e:
  %u = const i32 0
  %i = const i32 0
  %s = const i32 0
  jmp h
h:
  %c = icmp slt i32 %i, %n
  br %c, b, x
b:
  %v = call i32 @via(%i, %k, %i, %u)
  %s = add i32 %s, %v
  %i = add i32 %i, 1
  jmp h
x:
  ret i32 %s
}
"""


@pytest.mark.parametrize("src, arglists, inline, kinds", [
    (TWIG_SRC, TWIG_ARGS, {"scramble", "mix", "adjust", "combine"},
     {"value", "oob", "div-zero"}),
    ("unset", [(4, 9), (4, 2)], {"via", "pick"}, {"value", "unassigned"})],
    ids=["twigs", "unset"])
def test_inline_twigs_match_cold_frames_at_every_fuel(src, arglists, inline,
                                                      kinds):
    # forced hot @main runs every twig inline, its leaf nested in it, while
    # fuel pays for the twig's longest path, its leaf's included
    m = _unset_module(UNSET_TWIG_SRC) if src == "unset" else parse_module(src)
    seen = set()
    for args in arglists:
        progs = _leaf_programs(m, footprints=False)
        want, _ = _forced_run(progs["cold"], args)
        got, mach = _forced_run(progs["hot"], args)
        assert got == want, args
        assert _assert_tiers(mach.contexts, "hot") == inline, args
        seen.add(want[0][0] if type(want[0]) is tuple else "value")
        for fuel in range(want[2].total + 2):
            assert (_forced_run(progs["hot"], args, fuel)[0]
                    == _forced_run(progs["cold"], args, fuel)[0]), (args, fuel)
    assert seen == kinds


# @twig's leaf @get is replaced by a loop that loads %x elements, so the
# twig's guard, which paid for the old @get, no longer pays for the call.
REPLACED_SRC = """
func @get(%p: ptr, %x: i32) -> i32 {
e:
  %y = add i32 %x, 1
  ret i32 %y
}

func @twig(%p: ptr, %x: i32) -> i32 {
e:
  %u = call i32 @get(%p, %x)
  %v = mul i32 %u, 3
  %w = add i32 %v, %x
  ret i32 %w
}

func @main(%p: ptr, %n: i32) -> i32 {
e:
  %i = const i32 0
  %s = const i32 0
  jmp h
h:
  %c = icmp slt i32 %i, %n
  br %c, b, x
b:
  %v = call i32 @twig(%p, %i)
  %s = add i32 %s, %v
  %i = add i32 %i, 1
  jmp h
x:
  ret i32 %s
}
"""
LOOP_GET = """
func @get(%p: ptr, %x: i32) -> i32 {
e:
  %t = const i32 0
  %s = const i32 0
  jmp h
h:
  %c = icmp slt i32 %t, %x
  br %c, b, x
b:
  %q = gep i32 %p, %t
  %v = load i32, %q
  %s = add i32 %s, %v
  %t = add i32 %t, 1
  jmp h
x:
  ret i32 %s
}
"""


@pytest.mark.parametrize("footprints", [False, True])
def test_a_leaf_replaced_under_an_inline_twig_takes_the_call(monkeypatch,
                                                            footprints):
    # @main's hot code holds the @twig and @get it inlined. A new @get is
    # decoded anew, so the call is made for real and the twig's own frame
    # takes the rest: at every fuel, fuel runs out at the instruction, and
    # the run ends with the outcome, heap and trace, of a cold run
    monkeypatch.setattr(interp, "HOT_MULTIPLE", 0)
    m = parse_module(REPLACED_SRC)
    prog = Program(m, footprints)
    first, _ = _forced_run(prog, (6,))
    assert prog.function("main").run is not interp._cold
    m.functions["get"] = parse_module(LOOP_GET).functions["get"]
    cold = _leaf_programs(m, footprints)["cold"]
    want, _ = _forced_run(cold, (6,))
    got, _ = _forced_run(prog, (6,))
    assert got == want and got[2].counts["get"]["load"] == 15
    assert got[2].counts["get"] != first[2].counts["get"]
    assert (want[2].edge_bytes is None) != footprints
    # the new @get, no leaf, compiled on its own; @twig stayed cold
    get, twig = prog.function("get"), prog.function("twig")
    assert get.run is not interp._cold and twig.plan[3]["get"] is not get
    assert twig.run is interp._cold
    for fuel in range(want[2].total + 2):
        assert _forced_run(prog, (6,), fuel)[0] == _forced_run(
            cold, (6,), fuel)[0], fuel


def test_a_twig_over_the_size_limit_compiles_on_its_own(monkeypatch):
    # a twig's size counts its leaf: at INLINE_MAX instructions in all it
    # runs inline, one more and it is called, compiled by its own heat, and
    # runs its leaf inline
    monkeypatch.setattr(interp, "HOT_MULTIPLE", 0)
    for size, inline in ((interp.INLINE_MAX, {"tw", "add"}),
                         (interp.INLINE_MAX + 1, {"add"})):
        adds = "%y = add i64 %y, 1\n" * (size - 5 - 2)
        m = parse_module("func @add(%x: i64) -> i64 {\ne:\n%y = add i64 %x, 1"
                         "\n%y = add i64 %y, 1\n%y = add i64 %y, 1\n"
                         "%y = add i64 %y, 1\nret i64 %y\n}\n"
                         "func @tw(%x: i64) -> i64 {\ne:\n%y = call i64 "
                         f"@add(%x)\n{adds}ret i64 %y\n}}\n"
                         "func @main(%x: i64) -> i64 {\ne:\n"
                         "%r = call i64 @tw(%x)\nret i64 %r\n}")
        assert m.functions["tw"].size() + m.functions["add"].size() == size
        r = interpret(Program(m), "main", [1])
        assert r.value == 1 + 4 + size - 7
        assert _assert_tiers(r._mach.contexts, "hot") == inline


BUMP_SRC = """
func @inc(%x: i32) -> i32 {
e:
  %y = add i32 %x, 1
  ret i32 %y
}

func @bump(%p: ptr, %i: i32) -> void {
e:
  %q = gep i32 %p, %i
  %v = load i32, %q
  %w = call i32 @inc(%v)
  store i32 %w, %q
  ret
}

func @main(%p: ptr, %n: i32) -> i32 {
e:
  %i = const i32 0
  jmp h
h:
  %c = icmp slt i32 %i, %n
  br %c, b, x
b:
  call void @bump(%p, %i)
  %i = add i32 %i, 1
  jmp h
x:
  ret i32 %i
}
"""


def test_a_memory_twig_is_not_inlined_where_footprints_are_recorded():
    # its frame collects the addresses it touches for its call edge, so it
    # compiles on its own and runs its leaf inline
    m = parse_module(BUMP_SRC)
    for footprints, inline in ((True, {"inc"}), (False, {"bump", "inc"})):
        progs = _leaf_programs(m, footprints)
        want, _ = _forced_run(progs["cold"], (5,))
        got, mach = _forced_run(progs["hot"], (5,))
        assert got == want
        assert _assert_tiers(mach.contexts, "hot") == inline
        assert (progs["hot"].function("bump").plan is None) == footprints
    # five calls, each loading and storing 4 bytes and passing one i32
    assert got[2].edge_bytes is None and want[1] != bytes(range(32))
    assert _forced_run(progs["cold"], (5,))[0][0] == 5
    with_bytes, _ = _forced_run(Program(m), (5,))
    assert with_bytes[2].edge_bytes[("main", "bump")] == 5 * (4 + 4)


def test_a_twig_reached_by_a_call_stays_cold(monkeypatch):
    # once its heat runs out, a twig reached by a call stays cold and its
    # hot caller runs it inline; entered, the same twig compiles. At this
    # multiple @main compiles after one call of each twig, which is more
    # than half of either twig's size
    monkeypatch.setattr(interp, "HOT_MULTIPLE", Fraction(1, 2))
    m = parse_module(TWIG_SRC)
    prog = Program(m, footprints=False)
    got, mach = _forced_run(prog, TWIG_ARGS[0])
    assert prog.function("main").run is not interp._cold
    for name in ("mix", "combine"):
        twig = prog.function(name)
        assert twig.plan is not None and twig.left <= 0, name
        assert twig.run is interp._cold, name
    monkeypatch.setattr(interp, "HOT_MULTIPLE", math.inf)
    assert got == _forced_run(Program(m, footprints=False), TWIG_ARGS[0])[0]
    monkeypatch.setattr(interp, "HOT_MULTIPLE", 0)
    r = interpret(prog, "mix", [5, 3])
    assert prog.function("mix").run is not interp._cold
    assert r.value == interpret(Program(m), "mix", [5, 3]).value


def test_a_cycle_of_jmps_runs_out_of_fuel_alike_in_both_tiers(monkeypatch):
    # segments [e a b] and [a b] both end in the jmp that closes the cycle
    main = Function("main", [], "i32", [
        Block("e", [Instr("jmp", succs=("a",))]),
        Block("a", [Instr("jmp", succs=("b",))]),
        Block("b", [Instr("jmp", succs=("a",))])])
    m = Module({"main": main}, "main")
    fn = Program(m).function("main")
    assert fn.lens == [3, 2] and [seg[2:4] for seg in fn.segs] == [
        (interp._JMP, 1), (interp._JMP, 1)]
    for fuel in range(41):
        errors = {}
        for tier, multiple in TIERS.items():
            monkeypatch.setattr(interp, "HOT_MULTIPLE", multiple)
            prog = Program(m)
            with pytest.raises(InterpError) as e:
                interpret(prog, fuel=fuel)
            errors[tier] = (e.value.kind, str(e.value))
            assert (prog.function("main").run is interp._cold) == (
                tier == "cold")
        assert errors["hot"] == errors["cold"] == (
            "fuel", "fuel exhausted in @main"), fuel


# Call-free functions of (%x: i64) -> i64 built as objects, so no validation
# runs. @d is a diamond on the sign of %x: each arm's jmp continues into the
# join's ret, so the entry segment (2 instructions) branches to segments of
# 3 and 4.
X = Reg("x")
SIGN = Instr("icmp", "i64", "c", (X, Lit(0, "i64")), pred="slt")
RET_Y = Instr("ret", "i64", None, (Reg("y"),))
DIAMOND = {
    "e": [SIGN, Instr("br", "i1", None, (Reg("c"),), ("l", "r"))],
    "l": [Instr("sub", "i64", "y", (Lit(0, "i64"), X)),
          Instr("jmp", succs=("j",))],
    "r": [Instr("add", "i64", "y", (X, Lit(1, "i64"))),
          Instr("mul", "i64", "y", (Reg("y"), Lit(3, "i64"))),
          Instr("jmp", succs=("j",))],
    "j": [RET_Y]}


def _decoded(blocks: dict[str, list[Instr]]):
    return Program(Module({"d": Function("d", [("x", "i64")], "i64", [
        Block(label, instrs) for label, instrs in blocks.items()])}, "d")
    ).function("d")


def test_a_cycle_of_segments_makes_no_leaf():
    # a loop, whose body's jmp continues into the header and branches back
    # into the body; and an arm branching back to the entry segment, which
    # validation refuses. Both are decoded, never run
    loop = {"e": [Instr("const", "i64", "y", (Lit(0, "i64"),)),
                  Instr("jmp", succs=("h",))],
            "h": [Instr("icmp", "i64", "c", (Reg("y"), X), pred="slt"),
                  Instr("br", "i1", None, (Reg("c"),), ("b", "x"))],
            "b": [Instr("add", "i64", "y", (Reg("y"), Lit(1, "i64"))),
                  Instr("jmp", succs=("h",))],
            "x": [RET_Y]}
    back = {**DIAMOND, "r": [Instr("add", "i64", "x", (X, Lit(1, "i64"))),
                             Instr("br", "i1", None, (Reg("c"),), ("e", "j"))]}
    for blocks in (loop, back):
        fn = _decoded(blocks)
        assert fn.plan is None and not fn.touches
        assert fn.source.size() <= interp.INLINE_MAX


def test_a_diamond_is_a_leaf_in_topological_order():
    fn = _decoded(DIAMOND)
    fuel, order, _, leaves = fn.plan
    assert fn.lens == [2, 3, 4] and fuel == 2 + 4   # the longer arm
    assert leaves == {}
    assert order[0] == 0 and sorted(order) == [0, 1, 2]
    for k, (_, _, end, x, y, z, _, _) in enumerate(fn.segs):
        succs = ((y, z) if end == interp._BR else
                 (x,) if end == interp._JMP else ())
        assert all(order.index(k) < order.index(t) for t in succs), k


def test_a_hot_caller_runs_the_diamond_inline_as_the_cold_tier(monkeypatch):
    # at every fuel: inline while fuel pays for the longer arm, called
    # otherwise, and the cold value and trace either way
    main = Function("main", [("x", "i64")], "i64", [Block("e", [
        Instr("call", "i64", "r", (X,), callee="d"),
        Instr("ret", "i64", None, (Reg("r"),))])])
    m = Module({"main": main, "d": _decoded(DIAMOND).source}, "main")
    for x, value in ((-5, 5), (0, 3), (7, 24)):
        runs = {}
        for fuel in range(9):
            for tier, multiple in TIERS.items():
                monkeypatch.setattr(interp, "HOT_MULTIPLE", multiple)
                runs[tier] = _try(lambda: interpret(Program(m), "main", [x],
                                                    fuel=fuel))
            assert type(runs["hot"]) is type(runs["cold"]), (x, fuel)
            if type(runs["cold"]) is not str:
                assert (runs["hot"].value, runs["hot"].trace) == (
                    runs["cold"].value, runs["cold"].trace), (x, fuel)
            else:
                assert runs["hot"] == runs["cold"] == "fuel", (x, fuel)
        assert runs["cold"].value == value
        assert _assert_tiers(runs["hot"]._mach.contexts, "hot") == {"d"}


# ---------------------------------------------------------------------------
# Boundary operands
# ---------------------------------------------------------------------------

F64 = [0.0, -0.0, 1.5, -2.5, math.inf, -math.inf, math.nan]
PTRS = [0, 1, 8, 2 ** 63, 2 ** 64 - 1]


def _ints(ty: str) -> list[int]:
    bits = {"i1": 1, "i32": 32, "i64": 64}[ty]
    return [0, 1, -1, -2 ** (bits - 1), 2 ** (bits - 1) - 1, 2 ** bits - 1]


def _shifts(ty: str) -> list[int]:
    bits = {"i32": 32, "i64": 64}[ty]
    return _ints(ty) + [bits - 1, bits, bits + 1, 2 * bits + 3]


def _trunc_div(a: int, b: int) -> int:
    return math.trunc(Fraction(a, b))


INT_REF = {
    "add": lambda a, b: a + b, "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b, "and": lambda a, b: a & b,
    "or": lambda a, b: a | b, "xor": lambda a, b: a ^ b,
    "sdiv": _trunc_div, "srem": lambda a, b: a - b * _trunc_div(a, b),
}
CMP_REF = {"eq": "__eq__", "ne": "__ne__", "slt": "__lt__", "sgt": "__gt__",
           "sle": "__le__", "sge": "__ge__", "olt": "__lt__",
           "ogt": "__gt__", "oeq": "__eq__"}


def _fptosi(v: float, to: str) -> int:
    return 0 if math.isnan(v) or math.isinf(v) else wrap_int(int(v), to)


def _boundary_cases():
    """(source line, result type, param types, argument lists, reference);
    the reference maps canonical arguments to the value, or to the error
    kind as a string."""
    for ty in ("i32", "i64"):
        for op, f in INT_REF.items():
            def ref(a, b, f=f, ty=ty, op=op):
                if op in ("sdiv", "srem") and b == 0:
                    return "div-zero"
                return wrap_int(f(a, b), ty)
            yield (f"%r = {op} {ty} %a, %b", ty, (ty, ty),
                   [(a, b) for a in _ints(ty) for b in _ints(ty)], ref)
        bits = {"i32": 32, "i64": 64}[ty]
        for op, f in (("shl", lambda a, k: a << k), ("ashr", lambda a, k: a >> k)):
            yield (f"%r = {op} {ty} %a, %b", ty, (ty, ty),
                   [(a, b) for a in _ints(ty) for b in _shifts(ty)],
                   lambda a, b, f=f, ty=ty, bits=bits:
                   wrap_int(f(a, b % bits), ty))
    for op in ("and", "or", "xor"):
        yield (f"%r = {op} i1 %a, %b", "i1", ("i1", "i1"),
               [(a, b) for a in _ints("i1") for b in _ints("i1")],
               lambda a, b, op=op: wrap_int(INT_REF[op](a, b), "i1"))
    for ty in ("i1", "i32", "i64"):
        for pred in ("eq", "ne", "slt", "sgt", "sle", "sge"):
            yield (f"%r = icmp {pred} {ty} %a, %b", "i1", (ty, ty),
                   [(a, b) for a in _ints(ty) for b in _ints(ty)],
                   lambda a, b, p=pred: int(getattr(a, CMP_REF[p])(b)))
    for ty in ("i1", "i32", "i64", "f64", "ptr"):
        vals = {"f64": F64, "ptr": PTRS}.get(ty) or _ints(ty)
        yield (f"%r = select {ty} %c, %a, %b", ty, ("i1", ty, ty),
               [(c, a, b) for c in (0, 1) for a in vals for b in vals[:3]],
               lambda c, a, b: a if c else b)
    for src, to in (("i1", "i32"), ("i1", "i64"), ("i32", "i64")):
        bits = {"i1": 1, "i32": 32}[src]
        yield (f"%r = zext {src} %a to {to}", to, (src,),
               [(a,) for a in _ints(src)],
               lambda a, bits=bits: a & (2 ** bits - 1))
    for src, to in (("i64", "i32"), ("i64", "i1"), ("i32", "i1")):
        yield (f"%r = trunc {src} %a to {to}", to, (src,),
               [(a,) for a in _ints(src)], lambda a, to=to: wrap_int(a, to))
    for src in ("i32", "i64"):
        yield (f"%r = sitofp {src} %a to f64", "f64", (src,),
               [(a,) for a in _ints(src)], float)
        yield (f"%r = fptosi f64 %a to {src}", src, ("f64",),
               [(a,) for a in F64 + [2.0 ** 40 + 0.5, -2.0 ** 70, 1e308]],
               lambda a, to=src: _fptosi(a, to))
    for op, f in (("fadd", float.__add__), ("fsub", float.__sub__),
                  ("fmul", float.__mul__), ("fdiv", float.__truediv__)):
        yield (f"%r = {op} f64 %a, %b", "f64", ("f64", "f64"),
               [(a, b) for a in F64 for b in F64],
               lambda a, b, op=op, f=f:
               "div-zero" if op == "fdiv" and b == 0.0 else f(a, b))
    for pred in ("olt", "ogt", "oeq"):
        yield (f"%r = fcmp {pred} f64 %a, %b", "i1", ("f64", "f64"),
               [(a, b) for a in F64 for b in F64],
               lambda a, b, p=pred: int(getattr(a, CMP_REF[p])(b)))
    for ty in ("i32", "i64"):
        for w, ety in ((4, "i32"), (8, "i64"), (1, "i1")):
            yield (f"%r = gep {ety} %a, %b", "ptr", ("ptr", ty),
                   [(p, i) for p in PTRS for i in _ints(ty)],
                   lambda p, i, w=w: p + i * w)
    consts = [("i1", "true", 1), ("i1", "false", 0), ("ptr", "null", 0),
              ("f64", "1e999", math.inf), ("f64", "-1e999", -math.inf)]
    consts += [(ty, repr(v), wrap_int(v, ty)) for ty in ("i32", "i64")
               for v in _ints(ty)]
    consts += [("ptr", repr(v), v) for v in PTRS]
    consts += [("f64", repr(v), v) for v in F64 if math.isfinite(v)]
    for ty, text, v in consts:
        yield (f"%r = const {ty} {text}", ty, (), [()], lambda v=v: v)


def _boundary_module():
    funcs, refs = [], {}
    for k, (line, rty, ptys, argsets, ref) in enumerate(_boundary_cases()):
        params = ", ".join(f"%{n}: {t}" for n, t in zip("cab" if len(ptys) == 3
                                                        else "ab", ptys))
        funcs.append(f"func @f{k}({params}) -> {rty} {{\ne:\n  {line}\n"
                     f"  ret {rty} %r\n}}\n")
        refs[f"f{k}"] = (line, ptys, argsets, ref)
    return "".join(funcs), refs


def _bits(v):
    return struct.pack("<d", v) if isinstance(v, float) else v


def _try(fn):
    try:
        return fn()
    except InterpError as e:
        return e.kind


@pytest.fixture(scope="module")
def boundary():
    src, refs = _boundary_module()
    return parse_module(src), refs


def test_boundary_operands_agree_across_tiers_and_reference(boundary,
                                                            monkeypatch):
    m, refs = boundary
    progs = {}
    for tier, multiple in TIERS.items():
        monkeypatch.setattr(interp, "HOT_MULTIPLE", multiple)
        progs[tier] = Program(m)
    checked = 0
    for name, (line, ptys, argsets, ref) in refs.items():
        for args in argsets:
            canon = [interp._coerce_arg(a, t) for a, t in zip(args, ptys)]
            want = _bits(_try(lambda: ref(*canon)))
            for tier, prog in progs.items():
                monkeypatch.setattr(interp, "HOT_MULTIPLE", TIERS[tier])
                got = _try(lambda: interpret(prog, name, list(args)).value)
                assert _bits(got) == want, (line, args, tier)
                checked += 1
    assert all(fn.run is not interp._cold
               for fn in progs["hot"].decoded.values())
    assert all(fn.run is interp._cold
               for fn in progs["cold"].decoded.values())
    assert checked > 2000


def test_loads_and_stores_round_trip_boundary_values(monkeypatch):
    # a store masks integers to their width; the load reads i32/i64
    # signed, ptr unsigned and an i1 byte as its low bit
    for ty, vals in (("i1", _ints("i1")), ("i32", _ints("i32")),
                     ("i64", _ints("i64")), ("ptr", PTRS + [-1]),
                     ("f64", F64)):
        m = parse_module(f"""
func @main(%p: ptr, %v: {ty}) -> {ty} {{
e:
  %q = gep {ty} %p, 1
  store {ty} %v, %q
  %r = load {ty}, %q
  ret {ty} %r
}}""")
        outs = {}
        for tier, multiple in TIERS.items():
            monkeypatch.setattr(interp, "HOT_MULTIPLE", multiple)
            prog = Program(m)
            for v in vals:
                arena = Arena()
                p = arena.add_region("r", bytes(16))
                r = interpret(prog, "main", [p, v], arena)
                outs.setdefault(v if ty != "f64" else _bits(v), set()).add(
                    (_bits(r.value), r.heap))
        for v, got in outs.items():
            assert len(got) == 1, (ty, v)
            value = got.pop()[0]
            if ty == "f64":
                assert value == v
            elif ty == "ptr":
                assert value == v % 2 ** 64
            else:
                assert value == wrap_int(v, ty)


def _tier_programs(m: Module) -> dict[str, Program]:
    """A Program per forced tier, with every function decoded (and so its
    tier fixed) while HOT_MULTIPLE is patched."""
    progs = {}
    for tier, multiple in TIERS.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(interp, "HOT_MULTIPLE", multiple)
            progs[tier] = prog = Program(m)
            for name in m.functions:
                prog.function(name)
    return progs


# Integer results are wrapped only when they overflow: every opcode that
# wraps, on each integer type it is defined on, against wrap_int.
WRAP_CASES = [
    *[(f"%r = {op} {ty} %a, %b", ty, (ty, ty),
       lambda a, b, f=f, ty=ty: wrap_int(f(a, b), ty))
      for ty in ("i32", "i64") for op, f in INT_REF.items()
      if op not in ("sdiv", "srem")],
    *[(f"%r = {op} {ty} %a, %b", ty, (ty, ty),
       lambda a, b, f=INT_REF[op], ty=ty:
       "div-zero" if b == 0 else wrap_int(f(a, b), ty))
      for ty in ("i32", "i64") for op in ("sdiv", "srem")],
    *[(f"%r = {op} {ty} %a, %b", ty, (ty, ty),
       lambda a, b, f=f, ty=ty, bits=bits: wrap_int(f(a, b % bits), ty))
      for ty, bits in (("i32", 32), ("i64", 64))
      for op, f in (("shl", int.__lshift__), ("ashr", int.__rshift__))],
    *[(f"%r = {op} i1 %a, %b", "i1", ("i1", "i1"),
       lambda a, b, f=INT_REF[op]: wrap_int(f(a, b), "i1"))
      for op in ("and", "or", "xor")],
    *[(f"%r = trunc {src} %a to {to}", to, (src,),
       lambda a, to=to: wrap_int(a, to))
      for src, to in (("i64", "i32"), ("i64", "i1"), ("i32", "i1"))],
    *[(f"%r = fptosi f64 %a to {to}", to, ("f64",),
       lambda a, to=to: _fptosi(a, to)) for to in ("i32", "i64")],
]

@pytest.fixture(scope="module")
def wrap_programs():
    m = parse_module("".join(
        f"func @w{k}({', '.join(f'%{n}: {t}' for n, t in zip('ab', ptys))})"
        f" -> {rty} {{\ne:\n  {line}\n  ret {rty} %r\n}}\n"
        for k, (line, rty, ptys, _) in enumerate(WRAP_CASES)))
    return _tier_programs(m)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_random_wide_operands_wrap_like_wrap_int_in_both_tiers(wrap_programs,
                                                               data):
    k = data.draw(st.integers(0, len(WRAP_CASES) - 1))
    line, _, ptys, ref = WRAP_CASES[k]
    args = [data.draw(st.floats(-2.0 ** 70, 2.0 ** 70) if t == "f64"
                      else st.integers(-2 ** 70, 2 ** 70)) for t in ptys]
    want = _try(lambda: ref(*[interp._coerce_arg(a, t)
                              for a, t in zip(args, ptys)]))
    for tier, prog in wrap_programs.items():
        assert _try(lambda: interpret(prog, f"w{k}", args).value) == want, (
            line, args, tier)
    assert wrap_programs["hot"].function(f"w{k}").run is not interp._cold
    assert wrap_programs["cold"].function(f"w{k}").run is interp._cold


# Each parameter type passed through `call`: the callee returns its
# argument or compares two of them. Every value is in its type's range
# already, so no frame converts an argument: an icmp result or a literal
# true passed as an i1 arrives as 1.
CALL_SRC = "".join(f"""
func @id_{ty}(%x: {ty}) -> {ty} {{
e:
  ret {ty} %x
}}

func @pass_{ty}(%x: {ty}) -> {ty} {{
e:
  %v = call {ty} @id_{ty}(%x)
  ret {ty} %v
}}
""" for ty in ("i1", "i32", "i64", "f64", "ptr")) + "".join(f"""
func @eq_{ty}(%x: {ty}, %y: {ty}) -> i1 {{
e:
  %c = {cmp} {ty} %x, %y
  ret i1 %c
}}

func @pass_eq_{ty}(%x: {ty}, %y: {ty}) -> i1 {{
e:
  %c = call i1 @eq_{ty}(%x, %y)
  ret i1 %c
}}
""" for ty, cmp in (("i1", "icmp eq"), ("i32", "icmp eq"), ("i64", "icmp eq"),
                    ("f64", "fcmp oeq"))) + """
func @is_true(%x: i1) -> i1 {
e:
  %c = icmp eq i1 %x, true
  ret i1 %c
}

func @less(%a: i32, %b: i32) -> i1 {
e:
  %c = icmp slt i32 %a, %b
  ret i1 %c
}

func @pass_less(%a: i32, %b: i32) -> i1 {
e:
  %c = icmp slt i32 %a, %b
  %v = call i1 @id_i1(%c)
  ret i1 %v
}

func @less_is_true(%a: i32, %b: i32) -> i1 {
e:
  %c = icmp slt i32 %a, %b
  %v = call i1 @is_true(%c)
  ret i1 %v
}

func @pass_true() -> i1 {
e:
  %v = call i1 @id_i1(true)
  ret i1 %v
}

func @mixed(%p: ptr, %b: i1, %x: i32, %f: f64, %c: i1, %y: i64) -> i1 {
e:
  %v = call i1 @eq_i1(%b, %c)
  ret i1 %v
}
"""


def test_call_arguments_agree_across_tiers_unconverted():
    m = parse_module(CALL_SRC)
    progs = _tier_programs(m)
    vals = {"i1": _ints("i1"), "i32": _ints("i32"), "i64": _ints("i64"),
            "f64": F64, "ptr": PTRS}

    def run(name, args):
        outs = {tier: _bits(interpret(prog, name, list(args)).value)
                for tier, prog in progs.items()}
        assert len(set(outs.values())) == 1, (name, args, outs)
        return outs.pop("hot")
    for ty, vs in vals.items():
        canon = [interp._coerce_arg(v, ty) for v in vs]
        for v, c in zip(vs, canon):
            assert run(f"pass_{ty}", [v]) == _bits(c), (ty, v)
        if ty != "ptr":
            for x, cx in zip(vs, canon):
                for y, cy in zip(vs, canon):
                    assert run(f"pass_eq_{ty}", [x, y]) == int(cx == cy)
    # the caller's icmp result is 1, and so is the argument it passes
    assert [run("less", [1, 2]), run("less", [2, 1])] == [1, 0]
    assert [run("pass_less", [1, 2]), run("pass_less", [2, 1])] == [1, 0]
    assert run("less_is_true", [1, 2]) == 1
    assert run("pass_true", []) == 1
    assert run("mixed", [8, 1, 5, 2.5, -1, 7]) == 1
    # the hot source converts no argument: a parameter's local is stored
    # only by the frame unpack and the argument unpack (none of these
    # functions assigns a parameter)
    for name in ("mixed", "pass_i32", "pass_f64", "pass_ptr", "pass_i1"):
        fn = progs["hot"].function(name)
        stores = Counter(n.id for n in ast.walk(ast.parse(
            interp._hot_source(fn))) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Store))
        assert [stores[f"r{s}"] for s in fn.params] == [2] * len(fn.params)


# An i1 holds 0 or 1 whatever produced it. @check(%c) gives 1 if %c equals
# `true`, 2 if it equals itself after an identity call and 4 if a callee
# finds the copy equal to `true`: 5 * bit + 2 for an i1 holding `bit`.
CHECK_SRC = """
func @id(%x: i1) -> i1 {
e:
  ret i1 %x
}

func @is_true(%x: i1) -> i1 {
e:
  %t = icmp eq i1 %x, true
  ret i1 %t
}

func @check(%c: i1) -> i32 {
e:
  %w = icmp eq i1 %c, true
  %u = call i1 @id(%c)
  %s = icmp eq i1 %c, %u
  %t = call i1 @is_true(%u)
  %r = zext i1 %w to i32
  %y = zext i1 %s to i32
  %y = shl i32 %y, 1
  %r = or i32 %r, %y
  %y = zext i1 %t to i32
  %y = shl i32 %y, 2
  %r = or i32 %r, %y
  ret i32 %r
}
"""


def _signed(a: int, bits: int) -> int:
    return (a + 2 ** (bits - 1)) % 2 ** bits - 2 ** (bits - 1)


_LOW = {"i1": lambda a: a % 2, "i32": lambda a: _signed(a, 32),
        "i64": lambda a: _signed(a, 64)}

# (parameters, line computing %c or None, the @check argument, reference on
# the raw arguments); a ptr parameter is a one-byte region holding its
# argument
I1_CASES = [
    *[((("a", ty), ("b", ty)), f"%c = icmp {p} {ty} %a, %b", "%c",
       lambda a, b, p=p, ty=ty: int(getattr(_LOW[ty](a), CMP_REF[p])(_LOW[ty](b))))
      for ty in ("i1", "i32", "i64")
      for p in ("eq", "ne", "slt", "sgt", "sle", "sge")],
    *[((("a", "f64"), ("b", "f64")), f"%c = fcmp {p} f64 %a, %b", "%c",
       lambda a, b, p=p: int(getattr(a, CMP_REF[p])(b)))
      for p in ("olt", "ogt", "oeq")],
    *[((), f"%c = const i1 {lit}", arg, lambda v=v: v)
      for lit, v in (("true", 1), ("false", 0), ("1", 1), ("-1", 1))
      for arg in ("%c", lit)],
    ((("p", "ptr"),), "%c = load i1, %p", "%c", lambda byte: byte % 2),
    *[((("a", ty),), f"%c = trunc {ty} %a to i1", "%c", lambda a: a % 2)
      for ty in ("i32", "i64")],
    *[((("a", "i1"), ("b", "i1")), f"%c = {op} i1 %a, %b", "%c",
       lambda a, b, f=INT_REF[op]: f(a % 2, b % 2)) for op in ("and", "or", "xor")],
    ((("c", "i1"),), None, "%c", lambda c: c % 2),
]


@pytest.fixture(scope="module")
def i1_programs():
    funcs = []
    for k, (params, line, arg, _) in enumerate(I1_CASES):
        sig = ", ".join(f"%{n}: {t}" for n, t in params)
        names = ", ".join(f"%{n}" for n, _ in params)
        body = f"  {line}\n" if line else ""
        funcs.append(f"""
func @p{k}({sig}) -> i1 {{
e:
{body}  ret i1 %c
}}

func @q{k}({sig}) -> i32 {{
e:
{body}  %v = call i32 @check({arg})
  %c = call i1 @p{k}({names})
  %w = call i32 @check(%c)
  %w = shl i32 %w, 4
  %v = or i32 %v, %w
  ret i32 %v
}}
""")
    return _tier_programs(parse_module(CHECK_SRC + "".join(funcs)))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_every_i1_producer_gives_0_or_1_in_both_tiers(i1_programs, data):
    # @p<k> returns the i1 its producer gives; @q<k> checks it where it is
    # made and again after it is returned from @p<k>
    k = data.draw(st.integers(0, len(I1_CASES) - 1))
    params, line, _, ref = I1_CASES[k]
    args = [data.draw(st.floats() if t == "f64" else st.integers(0, 255)
                      if t == "ptr" else st.integers(-2 ** 70, 2 ** 70))
            for _, t in params]
    bit = ref(*args)
    for tier, prog in i1_programs.items():
        for name, want in ((f"p{k}", bit), (f"q{k}", (5 * bit + 2) * 17)):
            arena = Arena()
            run_args = [arena.add_region("r", bytes([a])) if t == "ptr" else a
                        for a, (_, t) in zip(args, params)]
            got = interpret(prog, name, run_args, arena).value
            assert got == want, (line, args, tier, name)
    assert i1_programs["hot"].function(f"q{k}").run is not interp._cold
    assert i1_programs["cold"].function(f"q{k}").run is interp._cold


# Three inputs on which an i1 true once had two values (1 from icmp and the
# literal, -1 from a load or through a call): each gives its 1-bit answer.
PROBES = [
    ("""
func @g(%x: i1) -> i1 {
e:
  ret i1 %x
}

func @main(%a: i32, %b: i32) -> i1 {
e:
  %t = icmp slt i32 %a, %b
  %u = call i1 @g(%t)
  %s = icmp eq i1 %t, %u
  ret i1 %s
}
""", "arg 0 = 1\narg 1 = 2\n", 1),
    ("""
func @main(%p: ptr) -> i1 {
e:
  %b = load i1, %p
  %s = icmp eq i1 %b, true
  ret i1 %s
}
""", "region b 1 01\narg 0 = b\n", 1),
    ("""
func @main() -> i32 {
e:
  %r = select i32 1, 3, 4
  ret i32 %r
}
""", "", 3),
]


@pytest.mark.parametrize("src, heap, want", PROBES)
def test_probe_modules_give_their_one_bit_answers(src, heap, want):
    for tier, prog in _tier_programs(parse_module(src)).items():
        assert run_heap_image(prog, HeapImage.parse(heap)).value == want, tier

# ---------------------------------------------------------------------------
# Generated code
# ---------------------------------------------------------------------------

_DUMP = """
import hashlib
from mergedse.analysis import extract_loops
from mergedse.dse import corpus_programs
from mergedse.ir import Program, parse_module
from mergedse.ir.interp import _hot_source
for name, irp, _ in corpus_programs():
    m = parse_module(irp.read_text())
    for mm in (m, extract_loops(m)):
        for fp in (True, False):
            prog = Program(mm, footprints=fp)
            for f in mm.functions:
                src = _hot_source(prog.function(f))
                print(name, f, fp, hashlib.sha256(src.encode()).hexdigest())
"""


def test_generated_source_is_independent_of_the_hash_seed():
    outs = [subprocess.run([sys.executable, "-c", _DUMP], capture_output=True,
                           text=True, check=True,
                           env={"PYTHONPATH": SRC, "PYTHONHASHSEED": seed}
                           ).stdout for seed in ("1", "2024")]
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) > 150


def test_ir_names_cannot_alter_the_generated_code(monkeypatch):
    # names reach the source only as repr() strings: a callee named like a
    # statement stays one string constant, in the call and its messages
    evil = "x')\nraise SystemExit('owned'); ('"

    def fn(name, body, params, ret):
        return Function(name, params, ret, [Block("e", body)])
    callee = fn(evil, [Instr("sdiv", "i32", "q", (Reg("a"), Reg("b"))),
                       Instr("ret", "i32", None, (Reg("q"),))],
                [("a", "i32"), ("b", "i32")], "i32")
    main = fn("main\n", [Instr("call", "i32", "v", (Reg("a"), Reg("b")),
                               callee=evil),
                         Instr("ret", "i32", None, (Reg("v"),))],
              [("a", "i32"), ("b", "i32")], "i32")
    m = Module({evil: callee, "main\n": main}, "main\n")
    monkeypatch.setattr(interp, "HOT_MULTIPLE", 0)
    prog = Program(m)
    assert interpret(prog, "main\n", [7, 2]).value == 3
    with pytest.raises(InterpError) as ei:
        interpret(prog, "main\n", [7, 0])
    assert str(ei.value) == f"division by zero in @{evil}"
    with pytest.raises(InterpError) as ei:
        interpret(prog, "main\n", [7, 2], fuel=2)
    assert str(ei.value) == f"fuel exhausted in @{evil}"
    for f in (evil, "main\n"):
        tree = ast.parse(interp._hot_source(prog.function(f)))
        strings = {n.value for n in ast.walk(tree)
                   if isinstance(n, ast.Constant) and isinstance(n.value, str)}
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        assert "SystemExit" not in names
        assert evil in strings
        assert [type(s) for s in tree.body] == [ast.FunctionDef]


# Every site that reads a register, each reading %u, whose assignment (the
# first instruction) is taken out after parsing: the validator rejects a
# use not assigned on every path. A copy (const, a select's value, a call's
# argument passed back) is read where the copy is, here by `ret`.
_OTHER = {"i32": "%i", "i64": "%l", "f64": "%f"}
UNASSIGNED_READS = [
    *[(ty, f"%d = {op} {ty} {x}, {y}\nret i32 0")
      for ty in ("i32", "i64") for op in BINOPS_INT
      for x, y in (("%u", _OTHER[ty]), (_OTHER[ty], "%u"))],
    *[("f64", f"%d = {op} f64 {x}, {y}\nret i32 0") for op in BINOPS_FLOAT
      for x, y in (("%u", "%f"), ("%f", "%u"))],
    *[(ty, f"%d = {cmp} {pred} {ty} {x}, {y}\nret i32 0")
      for cmp, ty, preds in (("icmp", "i32", ICMP_PREDS),
                             ("fcmp", "f64", FCMP_PREDS)) for pred in preds
      for x, y in (("%u", _OTHER[ty]), (_OTHER[ty], "%u"))],
    ("i1", "%d = select i32 %u, %i, %i\nret i32 0"),
    *[(src, f"%d = {op} {src} %u to {to}\nret i32 0") for op, src, to in (
        ("zext", "i1", "i32"), ("zext", "i32", "i64"), ("trunc", "i64", "i32"),
        ("trunc", "i32", "i1"), ("sitofp", "i32", "f64"),
        ("fptosi", "f64", "i32"))],
    ("ptr", "%d = gep i32 %u, %i\nret i32 0"),
    ("i64", "%d = gep i32 %p, %u\nret i32 0"),
    ("ptr", "%d = load i32, %u\nret i32 0"),
    *[(ty, f"store {ty} %u, %p\nret i32 0")
      for ty in ("i1", "i32", "i64", "ptr", "f64")],
    ("ptr", "store i32 %i, %u\nret i32 0"),
    ("i32", "%d = call i32 @inc(%u)\nret i32 0"),
    ("i1", "br %u, t, t\nt:\nret i32 0"),
    ("i32", "%d = const i32 %u\nret i32 %d"),
    ("i32", "%d = select i32 %b, %u, %i\nret i32 %d"),
    ("i32", "%d = call i32 @id(%u)\nret i32 %d"),
    *[(ty, f"ret {ty} %u") for ty in ("i1", "i32", "i64", "f64", "ptr")],
]
_LITERAL = {"i1": "true", "i32": "0", "i64": "0", "f64": "0.0", "ptr": "null"}


@pytest.fixture(scope="module")
def unassigned_programs():
    src = ["func @inc(%x: i32) -> i32 {\ne:\n%y = add i32 %x, 1\n"
           "ret i32 %y\n}", "func @id(%x: i32) -> i32 {\ne:\nret i32 %x\n}"]
    for k, (ty, body) in enumerate(UNASSIGNED_READS):
        ret = ty if body.startswith("ret") else "i32"
        src.append(f"func @c{k}(%p: ptr, %i: i32, %l: i64, %b: i1, %f: f64) "
                   f"-> {ret} {{\ne:\n%u = const {ty} {_LITERAL[ty]}\n"
                   f"{body}\n}}")
    m = parse_module("\n".join(src))
    for name, f in m.functions.items():
        if name.startswith("c"):
            m.functions[name] = replace(f, blocks=[replace(b, instrs=[
                ins for ins in b.instrs if ins.result != "u"])
                for b in f.blocks])
    return _tier_programs(m)


def _unassigned_run(prog, name, fuel=interp.DEFAULT_FUEL):
    arena = Arena()
    p = arena.add_region("buf", bytes(8))
    with pytest.raises(InterpError) as e:
        interpret(prog, name, [p, 3, 3, 1, 1.5], arena, fuel=fuel)
    return e.value.kind


def test_reading_an_unassigned_register_raises_in_both_tiers(
        unassigned_programs):
    # an InterpError, never a Python TypeError, a silent false branch or a
    # returned None; both tiers raise it from the same least fuel, and run
    # out of fuel with one unit less
    for k, (ty, body) in enumerate(UNASSIGNED_READS):
        least = {}
        for tier, prog in unassigned_programs.items():
            assert _unassigned_run(prog, f"c{k}") == "unassigned", body
            least[tier] = next(f for f in range(1, 8) if _unassigned_run(
                prog, f"c{k}", fuel=f) == "unassigned")
            assert _unassigned_run(prog, f"c{k}", least[tier] - 1) == "fuel"
        assert least["hot"] == least["cold"], body
    # a read in the prefix of a segment that fuel cannot pay in full raises
    # it too; with no fuel for the read, fuel runs out
    for body in ("store f64 %u, %p\nret i32 0",
                 "%d = add i32 %u, %i\nret i32 0"):
        k = next(k for k, (_, b) in enumerate(UNASSIGNED_READS) if b == body)
        for prog in unassigned_programs.values():
            assert _unassigned_run(prog, f"c{k}", fuel=1) == "unassigned"
            assert _unassigned_run(prog, f"c{k}", fuel=0) == "fuel"


def test_a_callee_returning_an_unassigned_register_raises_in_both_tiers():
    # @main ignores @g's result, so only @g's own `ret` can notice that %u
    # was never assigned: the least fuel raising it pays for @main's call
    # and that ret
    m = parse_module("func @g(%x: i32) -> i32 {\ne:\n%u = add i32 %x, 1\n"
                     "ret i32 %u\n}\nfunc @main(%x: i32) -> i32 {\ne:\n"
                     "%v = call i32 @g(%x)\nret i32 3\n}")
    g = m.functions["g"]
    m.functions["g"] = replace(g, blocks=[replace(g.blocks[0], instrs=[
        ins for ins in g.blocks[0].instrs if ins.result != "u"])])
    for tier, prog in _tier_programs(m).items():
        for fuel, kind in ((10, "unassigned"), (2, "unassigned"),
                           (1, "fuel")):
            assert _outcome(prog, fuel, [1]) == kind, (tier, fuel)
        assert {fn.run is not interp._cold
                for fn in prog.decoded.values()} == {tier == "hot"}


# and, or, xor and ashr are generated without a wrap: of operands in their
# type's range (unsigned for ptr), their results stay in it. The IR types
# these ops i32 and i64 (and, or, xor i1 too); the templates are checked on
# every integer slot type alike.
NOWRAP_RANGE = {**interp.INT_RANGE, "ptr": (0, (1 << 64) - 1)}
NOWRAP_REF = {"and": int.__and__, "or": int.__or__, "xor": int.__xor__,
              "ashr": lambda a, b, bits: a >> (b & (bits - 1))}


@pytest.fixture(scope="module")
def nowrap_programs():
    funcs = {}
    for op in NOWRAP_REF:
        for ty in NOWRAP_RANGE:
            name = f"{op}_{ty}"
            funcs[name] = Function(name, [("a", ty), ("b", ty)], ty, [Block(
                "e", [Instr(op, ty, "r", (Reg("a"), Reg("b"))),
                      Instr("ret", ty, None, (Reg("r"),))])])
    return _tier_programs(Module(funcs, "and_i32"))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_and_or_xor_ashr_of_in_range_operands_stay_in_range(nowrap_programs,
                                                            data):
    op = data.draw(st.sampled_from(sorted(NOWRAP_REF)))
    ty = data.draw(st.sampled_from(sorted(NOWRAP_RANGE)))
    lo, top = NOWRAP_RANGE[ty]
    a, b = (data.draw(st.integers(lo, top)) for _ in range(2))
    ref = NOWRAP_REF[op]
    want = ref(a, b, (top - lo).bit_length()) if op == "ashr" else ref(a, b)
    assert lo <= want <= top
    for tier, prog in nowrap_programs.items():
        assert interpret(prog, f"{op}_{ty}", [a, b]).value == want, (
            op, ty, a, b, tier)


def test_generated_code_is_named_for_profilers():
    # profilers key on (file, line, name): each hot function compiles under
    # a filename of its own, in every Program, and each cold handler
    # factory under its shape's
    m = parse_module(
        "func @inc(%x: i32) -> i32 {\ne:\n%y = add i32 %x, 1\nret i32 %y\n}\n"
        "func @lt(%x: i32) -> i1 {\ne:\n%c = icmp slt i32 %x, 1\n"
        "ret i1 %c\n}")
    fns = [Program(m).function(f) for f in ("inc", "lt", "inc")]
    assert [fn.segs[0][0][0].__code__.co_filename for fn in fns] == [
        "<cold add i32>", "<cold icmp i32 slt>", "<cold add i32>"]
    names = [fn.compiled().__code__.co_filename for fn in fns]
    assert len(set(names)) == 3, names
    assert [name.split(" #")[0] for name in names] == [
        "<hot @inc", "<hot @lt", "<hot @inc"]

"""Golden interpreter runs: values, heap images and full traces, fuel
boundaries and error messages, pinned in tests/data/interp_golden.json.

The file was written by the straightforward per-instruction interpreter that
preceded the segment decoder; any change to the interpreter must reproduce it
exactly. Regenerate (only for an intended semantic change) with

    PYTHONPATH=src python tests/test_interp_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from mergedse.analysis import extract_loops
from mergedse.dse import corpus_programs
from mergedse.ir import (
    Arena, HeapImage, InterpError, interpret, parse_module, run_heap_image,
)

GOLDEN = Path(__file__).parent / "data" / "interp_golden.json"

# Every opcode and every load/store width, i1 wrap-around, f64 specials
# (inf, nan) through fptosi, and calls in the middle of a block.
OPS_SRC = """
func @bits(%p: ptr, %x: i32, %f: i1) -> i64 {
e:
  %a = load i32, %p
  %s = add i32 %a, 2147483647
  store i32 %s, %p
  %q = gep i32 %p, 1
  %b = load i1, %q
  %b2 = xor i1 %b, %f
  %b3 = or i1 %b2, %f
  store i1 %b3, %q
  %r = gep i64 %p, 1
  %w = load i64, %r
  %w2 = mul i64 %w, 3
  %w3 = shl i64 %w2, 61
  %w4 = ashr i64 %w3, 3
  store i64 %w4, %r
  %z = zext i1 %b to i64
  %t = trunc i64 %w2 to i32
  %sh = shl i32 %t, %x
  %sr = ashr i32 %sh, 35
  %d = sdiv i32 %sr, -7
  %m = srem i32 %sr, -7
  %o = or i32 %d, %m
  %an = and i32 %o, 255
  %sb = sub i32 %an, %x
  %ze = zext i32 %sb to i64
  %acc = add i64 %ze, %z
  %acc = add i64 %acc, %w4
  ret i64 %acc
}

func @floats(%p: ptr, %k: i32) -> i32 {
e:
  %v = load f64, %p
  %kf = sitofp i32 %k to f64
  %v2 = fmul f64 %v, %kf
  %v3 = fadd f64 %v2, 0.5
  %v4 = fsub f64 %v3, 1.25
  %v5 = fdiv f64 %v4, 3.0
  store f64 %v5, %p
  %big = fmul f64 %v5, 1e308
  %big = fmul f64 %big, 1e308
  %nan = fsub f64 %big, %big
  %i1 = fptosi f64 %v5 to i32
  %i2 = fptosi f64 %big to i32
  %i3 = fptosi f64 %nan to i64
  %hu = fmul f64 %v, 1e12
  %i4 = fptosi f64 %hu to i32
  %c1 = fcmp olt f64 %v, %v5
  %c2 = fcmp ogt f64 %v, %v5
  %c3 = fcmp oeq f64 %nan, %nan
  %s = select i32 %c1, %i1, %i4
  %s2 = select i32 %c2, %s, %i2
  %e = zext i1 %c3 to i32
  %t3 = trunc i64 %i3 to i32
  %s3 = add i32 %s2, %e
  %s3 = add i32 %s3, %t3
  ret i32 %s3
}

func @cmp(%a: i32, %b: i32) -> i32 {
e:
  %c0 = icmp eq i32 %a, %b
  %c1 = icmp ne i32 %a, %b
  %c2 = icmp slt i32 %a, %b
  %c3 = icmp sgt i32 %a, %b
  %c4 = icmp sle i32 %a, %b
  %c5 = icmp sge i32 %a, %b
  %x = zext i1 %c0 to i32
  %y = zext i1 %c1 to i32
  %y = shl i32 %y, 1
  %x = or i32 %x, %y
  %y = zext i1 %c2 to i32
  %y = shl i32 %y, 2
  %x = or i32 %x, %y
  %y = zext i1 %c3 to i32
  %y = shl i32 %y, 3
  %x = or i32 %x, %y
  %y = zext i1 %c4 to i32
  %y = shl i32 %y, 4
  %x = or i32 %x, %y
  %y = zext i1 %c5 to i32
  %y = shl i32 %y, 5
  %x = or i32 %x, %y
  ret i32 %x
}

func @poke(%p: ptr, %v: ptr) -> void {
e:
  %s = gep ptr %p, 3
  store ptr %v, %s
  ret
}

func @main(%buf: ptr, %fb: ptr, %n: i32) -> i64 {
e:
  %i = const i32 0
  %acc = const i64 0
  %one = const i1 true
  jmp h
h:
  %c = icmp slt i32 %i, %n
  br %c, b, x
b:
  %v = call i64 @bits(%buf, %i, %one)
  %acc = add i64 %acc, %v
  %g = call i32 @floats(%fb, %i)
  %g64 = sitofp i32 %g to f64
  %gi = fptosi f64 %g64 to i64
  %acc = xor i64 %acc, %gi
  %cm = sub i32 %i, 2
  %k = call i32 @cmp(%cm, 1)
  %k64 = zext i32 %k to i64
  %acc = add i64 %acc, %k64
  %one = xor i1 %one, true
  call void @poke(%buf, %fb)
  %i = add i32 %i, 1
  jmp h
x:
  %pp = gep ptr %buf, 3
  %pv = load ptr, %pp
  %pw = load i32, %pv
  %pi = load i64, %pp
  %d = sub i64 %pi, 0
  %acc = add i64 %acc, %d
  %pw64 = zext i32 %pw to i64
  %acc = add i64 %acc, %pw64
  ret i64 %acc
}
"""

OPS_HEAP = """
region buf 32 fffffffff70300000500000000000080
region fb 8 000000000000f83f
arg 0 = buf
arg 1 = fb
arg 2 = 5
"""

# name -> (source, entry args, region bytes bound to the first ptr arg)
ERROR_SRC = {
    "oob-null": ("""
func @main(%p: ptr) -> i32 {
e:
  %v = load i32, %p
  ret i32 %v
}""", [0], None),
    "oob-end": ("""
func @main(%p: ptr) -> void {
e:
  %q = gep i64 %p, 1
  store i64 7, %q
  ret
}""", [None], bytes(12)),
    "sdiv-zero": ("""
func @main(%a: i32, %b: i32) -> i32 {
e:
  %q = sdiv i32 %a, %b
  ret i32 %q
}""", [5, 0], None),
    "srem-zero": ("""
func @main(%a: i64, %b: i64) -> i64 {
e:
  %q = srem i64 %a, %b
  ret i64 %q
}""", [5, 0], None),
    "fdiv-zero": ("""
func @main(%a: f64, %b: f64) -> f64 {
e:
  %q = fdiv f64 %a, %b
  ret f64 %q
}""", [1.5, 0.0], None),
}


def _cases():
    """(case name, module, heap image): every corpus program and the opcode
    module, each untransformed (FE) and with loops extracted (FLE)."""
    progs = [(name, parse_module(irp.read_text()),
              HeapImage.parse(hp.read_text()))
             for name, irp, hp in corpus_programs()]
    progs.append(("ops", parse_module(OPS_SRC), HeapImage.parse(OPS_HEAP)))
    for name, m, img in progs:
        yield f"{name}/FE", m, img
        yield f"{name}/FLE", extract_loops(m), img


def _pairs(d: dict) -> list:
    return sorted([a, b, n] for (a, b), n in d.items())


def _summary(r) -> dict:
    t = r.trace
    return {
        "value": repr(r.value),
        "heap_sha256": hashlib.sha256(r.heap).hexdigest(),
        "counts": t.counts, "hier_counts": t.hier_counts,
        "calls": _pairs(t.calls), "edge_bytes": _pairs(t.edge_bytes),
        "invocations": t.invocations, "total": t.total,
    }


def _outcome(fn) -> str:
    try:
        fn()
    except InterpError as e:
        return f"{e.kind}: {e}"
    return "ok"


def _fuel_points(case: str, total: int) -> list[int]:
    if case.startswith("ops/"):
        return list(range(total + 2))
    return sorted({0, 1, total - 1, total, total + 1}
                  | {total * k // 16 for k in range(16)})


def _error_run(name: str):
    src, args, region = ERROR_SRC[name]
    m = parse_module(src)
    arena = Arena()
    if region is not None:
        args = [arena.add_region("r", region)] + args[1:]
    return lambda: interpret(m, "main", args, arena)


def _ranges(outcomes: dict[int, str]) -> list:
    """[first fuel, last fuel, outcome] over runs of consecutive fuel values
    with one outcome; only values that were run are covered."""
    out = []
    for f in sorted(outcomes):
        if out and out[-1][1] == f - 1 and out[-1][2] == outcomes[f]:
            out[-1][1] = f
        else:
            out.append([f, f, outcomes[f]])
    return out


def record() -> dict:
    doc = {"runs": {}, "fuel": {}, "errors": {}}
    for case, m, img in _cases():
        s = _summary(run_heap_image(m, img))
        doc["runs"][case] = s
        doc["fuel"][case] = _ranges({
            f: _outcome(lambda: run_heap_image(m, img, fuel=f))
            for f in _fuel_points(case, s["total"])})
    for name in ERROR_SRC:
        doc["errors"][name] = _outcome(_error_run(name))
    return doc


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def cases():
    return list(_cases())


def test_runs_match_golden(golden, cases):
    assert sorted(golden["runs"]) == sorted(c for c, _, _ in cases)
    for case, m, img in cases:
        got = json.loads(json.dumps(_summary(run_heap_image(m, img))))
        assert got == golden["runs"][case], case


def test_fuel_boundaries_match_golden(golden, cases):
    for case, m, img in cases:
        total = golden["runs"][case]["total"]
        # exactly enough fuel runs to completion with the same trace
        exact = json.loads(json.dumps(
            _summary(run_heap_image(m, img, fuel=total))))
        assert exact == golden["runs"][case], case
        with pytest.raises(InterpError) as ei:
            run_heap_image(m, img, fuel=total - 1)
        assert ei.value.kind == "fuel", case
        for lo, hi, want in golden["fuel"][case]:
            for f in range(lo, hi + 1):
                got = _outcome(lambda: run_heap_image(m, img, fuel=f))
                assert got == want, (case, f)


def test_fuel_runs_out_inside_mid_block_callee(golden):
    # @main calls @bits, @floats, @cmp and @poke from the middle of one
    # block; some fuel values must stop inside each callee.
    stops = {o for _, _, o in golden["fuel"]["ops/FE"]}
    for callee in ("bits", "floats", "cmp", "poke", "main"):
        assert f"fuel: fuel exhausted in @{callee}" in stops
    m, img = parse_module(OPS_SRC), HeapImage.parse(OPS_HEAP)
    # the first fuel value that stops in @floats: @bits returned and the
    # caller's add ran, then the second call of the block started
    first = min(lo for lo, _, o in golden["fuel"]["ops/FE"]
                if o.endswith("@floats"))
    assert _outcome(lambda: run_heap_image(m, img, fuel=first)) \
        == "fuel: fuel exhausted in @floats"
    assert _outcome(lambda: run_heap_image(m, img, fuel=first - 1)) \
        == "fuel: fuel exhausted in @main"


def test_error_kinds_and_messages_match_golden(golden):
    assert sorted(golden["errors"]) == sorted(ERROR_SRC)
    for name in ERROR_SRC:
        assert _outcome(_error_run(name)) == golden["errors"][name], name


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_interp_golden.py --record")
    doc = record()
    # one line per case, so a regenerated file diffs case by case
    GOLDEN.write_text("{\n" + ",\n".join(
        f" {json.dumps(section)}: {{\n" + ",\n".join(
            f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
            for k, v in sorted(doc[section].items())) + "\n }"
        for section in sorted(doc)) + "\n}\n")

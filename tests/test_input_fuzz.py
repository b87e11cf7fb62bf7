"""Mutation fuzzing of the three input parsers: mini-IR text, heap images and
model files. Each test takes a bundled input, inserts, deletes or duplicates
tokens (in IR text also a whole `%name: ty` parameter), and checks that the
parser either returns or raises its own error (IRError / CostError), and
that the CLI reading the input exits 0 or 2.
"""

from __future__ import annotations

import re
import tempfile
from pathlib import Path

import pytest
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mergedse.cli import main
from mergedse.cost import CostError, load_model
from mergedse.dse import BUNDLED_MODEL, corpus_dir, corpus_programs
from mergedse.ir import HeapImage, IRError, parse_module, print_module

POLY_IR = str(corpus_dir() / "poly.ir")
POLY_HEAP = str(corpus_dir() / "poly.heap")

# tokens no bundled input has, at the edges of what a slot or field takes
EXTREMES = ["1e999", "-1e999", "1.5", "99999999999999999999", "-1", "0",
            "true", "null", "nan", "inf", "zz"]

IR_TOKEN = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|[%@]?[\w.]+|->|\S")


def _ir_tokens(text: str) -> list[str]:
    return IR_TOKEN.findall(re.sub(r";[^\n]*", "", text))


def _line_tokens(text: str) -> list[str]:
    # words and line breaks: heap images and model files are line-oriented
    return re.findall(r"[^\s]+|\n", text)


MUTATIONS = ("insert", "delete", "duplicate")
# IR text may also get a parameter `%name : ty` repeated in its list
IR_MUTATIONS = MUTATIONS + ("duplicate-param",)


@st.composite
def _mutated(draw, tokens: list[str], ops=MUTATIONS) -> str:
    toks = list(tokens)
    vocab = sorted(set(toks)) + EXTREMES
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(ops))
        i = draw(st.integers(0, len(toks)))
        if op == "insert":
            toks.insert(i, draw(st.sampled_from(vocab)))
        elif op == "duplicate-param":
            params = [j for j in range(len(toks) - 2)
                      if toks[j][0] == "%" and toks[j + 1] == ":"]
            if params:
                j = draw(st.sampled_from(params))
                toks[j:j] = toks[j:j + 3] + [","]
        elif toks and op == "delete":
            del toks[min(i, len(toks) - 1)]
        elif toks:
            i = min(i, len(toks) - 1)
            toks.insert(i, toks[i])
    return " ".join(toks)


IR_TOKENS = {name: _ir_tokens(irp.read_text())
            for name, irp, _ in corpus_programs()}
HEAP_TOKENS = _line_tokens(Path(POLY_HEAP).read_text())
MODEL_TOKENS = _line_tokens(BUNDLED_MODEL.read_text())

# inputs the parsers once crashed on or took: an overflowing gep index, an
# infinite f64 literal (printed as "-inf", which did not parse back), an
# integer with more digits than int() converts (ValueError), a repeated
# parameter name (the first argument was dropped), a model with
# a NaN or a zero scale and one whose layer count is missing
GEP_1E999 = "func @main(%p: ptr) -> ptr { e: %q = gep i32 %p, 1e999 ret ptr %q }"
F64_INF = "func @main(%x: f64) -> f64 { e: %y = fadd f64 %x, -1e999 ret f64 %y }"
LONG_INT = "func @main() -> i32 { e: ret i32 " + "9" * 5000 + " }"
DUP_PARAM = "func @main(%x: i1, %x: i32) -> i32 { e: %y = add i32 %x, 1 ret i32 %y }"
BAD_MODELS = [re.sub(pattern, repl, BUNDLED_MODEL.read_text(), count=1)
              for pattern, repl in ((r"xstd \S+", "xstd nan"),
                                    (r"xstd \S+", "xstd 0"),
                                    (r"layers \d+", "layers "))]


@settings(max_examples=150, deadline=None)
@example(GEP_1E999)
@example(F64_INF)
@example(LONG_INT)
@example(DUP_PARAM)
@given(st.sampled_from(sorted(IR_TOKENS)).flatmap(
    lambda name: _mutated(IR_TOKENS[name], IR_MUTATIONS)))
def test_mutated_ir_parses_or_raises_irerror(text):
    try:
        m = parse_module(text)
    except IRError:
        return
    # an accepted module names each parameter once and prints to text that
    # parses back to itself
    for f in m.functions.values():
        assert len({p for p, _ in f.params}) == len(f.params), f.name
    assert parse_module(print_module(m)) == m


@settings(max_examples=30, deadline=None)
@example(GEP_1E999)
@example(DUP_PARAM)
@given(_mutated(IR_TOKENS["poly"], IR_MUTATIONS))
def test_mutated_ir_exits_0_or_2(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.ir"
        path.write_text(text)
        code = main(["analyze", "--callgraph", "--loops", "--rank",
                     str(path)])
    assert code in (0, 2)


@pytest.mark.parametrize("src", [
    # an index that is not an integer: OverflowError, or silently index 1
    "%q = gep i32 %p, 1e999",
    "%q = gep i32 %p, 1.5",
    "%q = gep i32 %p, true",
    "%q = gep i32 %p, null",
])
def test_gep_index_takes_a_register_or_an_integer(src):
    with pytest.raises(IRError, match="expected a register or an integer"):
        parse_module(f"func @main(%p: ptr) -> ptr {{\ne:\n  {src}\n  ret ptr %q\n}}")


@pytest.mark.parametrize("arg, param", [
    ("true", "i64"), ("null", "i32"), ("true", "f64"), ("null", "f64"),
    ("true", "ptr"), ("false", "ptr"), ("null", "i1"), ("1.5", "i32"),
])
def test_call_literals_follow_the_operand_rule(arg, param):
    # the literal a slot of that type rejects in `add`/`store`/`ret`
    src = (f"func @g(%a: {param}) -> void {{\ne:\n  ret\n}}\n"
           f"func @main() -> void {{\ne:\n  call void @g({arg})\n  ret\n}}\n")
    with pytest.raises(IRError, match=f"expected an operand of type {param}"):
        parse_module(src)


@settings(max_examples=150, deadline=None)
@given(_mutated(HEAP_TOKENS))
def test_mutated_heap_image_parses_or_raises_irerror(text):
    try:
        HeapImage.parse(text)
    except IRError:
        pass


@settings(max_examples=30, deadline=None)
@example("region buf 99999999999999999999\narg 0 = buf\narg 1 = 16\n")
@given(_mutated(HEAP_TOKENS))
def test_mutated_heap_image_exits_0_or_2(model_file, text):
    with tempfile.TemporaryDirectory() as tmp:
        heap = Path(tmp) / "p.heap"
        heap.write_text(text)
        code = main(["dse", "--model", model_file, "--budget", "6000",
                     "--mode", "FE", POLY_IR, str(heap),
                     "-o", str(Path(tmp) / "dse")])
    assert code in (0, 2)


@settings(max_examples=100, deadline=None)
@example(BAD_MODELS[0])
@example(BAD_MODELS[1])
@example(BAD_MODELS[2])
@given(_mutated(MODEL_TOKENS))
def test_mutated_model_file_loads_or_raises_costerror(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.txt"
        path.write_text(text)
        try:
            model = load_model(str(path))
        except CostError:
            return
    # a model that loads predicts a finite area
    assert np.isfinite(model.predict(np.ones((1, model.xmean.size)))).all()


@settings(max_examples=20, deadline=None)
@example(BAD_MODELS[2])
@given(_mutated(MODEL_TOKENS))
def test_mutated_model_file_exits_0_or_2(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.txt"
        path.write_text(text)
        code = main(["dse", "--model", str(path), "--budget", "6000",
                     "--mode", "FE", POLY_IR, POLY_HEAP,
                     "-o", str(Path(tmp) / "dse")])
    assert code in (0, 2)

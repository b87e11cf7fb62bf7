import random
import sys
from dataclasses import replace
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergedse import merge
from mergedse.analysis import extract_loops, rank_pairs
from mergedse.ir import (
    Arena, Function, Instr, IRError, Lit, Reg, interpret, parse_module,
    print_function, print_module, structurally_equal, validate_module,
)
from mergedse.merge import (
    MergeRejected, _align_key, align, best_alignment, default_weights,
    linearize, merge_functions, merge_parameters, seed_pairs, verify_merge,
)

import trial_oracle
from trial_oracle import draw_trial, refute


def brute_force_align_score(s1, s2, weights, gap):
    """Exhaustive search over all alignments; the independent oracle."""
    memo = {}

    def rec(i, j):
        if (i, j) in memo:
            return memo[(i, j)]
        if i == len(s1) and j == len(s2):
            return 0.0
        best = float("-inf")
        if (i < len(s1) and j < len(s2)
                and _align_key(s1[i], {}, "?1") == _align_key(s2[j], {}, "?2")):
            best = rec(i + 1, j + 1) + weights[s1[i].op]
        if i < len(s1):
            best = max(best, rec(i + 1, j) - gap)
        if j < len(s2):
            best = max(best, rec(i, j + 1) - gap)
        memo[(i, j)] = best
        return best

    return rec(0, 0)


def _instr(op, ty="i32"):
    return Instr(op, ty, "r", ())


# ---------------------------------------------------------------------------
# Linearization
# ---------------------------------------------------------------------------

def test_linearize_single_block():
    m = parse_module("func @f(%a: i32) -> i32 { bb0: %b = add i32 %a, 1\n ret i32 %b }")
    for seed in (0, 1, 7):
        lin = linearize(m.functions["f"], seed)
        assert lin.order == ["bb0"]
        assert [i.op for i in lin.instrs] == ["add", "ret"]


def test_linearize_diamond_seeds():
    m = parse_module("""
    func @d(%c: i1) -> i32 {
    A:
      br %c, B, C
    B:
      %x = const i32 1
      jmp D
    C:
      %x = const i32 2
      jmp D
    D:
      ret i32 %x
    }
    """)
    f = m.functions["d"]
    assert linearize(f, 0).order == ["A", "B", "C", "D"]
    assert linearize(f, 1).order == ["A", "C", "B", "D"]


def test_linearize_block_contiguity(pair_module):
    f = pair_module.functions["sel_b"]
    for seed in range(4):
        lin = linearize(f, seed)
        assert lin.order[0] == "bb0"
        assert lin.order[-1] == "bb3"
        assert sorted(lin.order) == sorted(b.label for b in f.blocks)
        # instructions of each block stay contiguous and in order
        pos, blocks = 0, {b.label: b for b in f.blocks}
        for lab in lin.order:
            for ins in blocks[lab].instrs:
                assert lin.instrs[pos] == ins
                pos += 1


def _linearize_order_oracle(f, seed):
    """Block order of the recursive walk `linearize` used to make."""
    state, visited, post = seed, set(), []
    blocks = {b.label: b for b in f.blocks}

    def walk(label):
        nonlocal state
        visited.add(label)
        succs = []
        for s in blocks[label].terminator().succs:
            if s not in succs:
                succs.append(s)
        if len(succs) > 1:
            nperm = factorial(len(succs))
            succs = merge._perm_at(succs, state % nperm)
            state //= nperm
        for s in reversed(succs):
            if s not in visited:
                walk(s)
        post.append(label)

    walk(f.entry)
    return post[::-1]


def _diamond_chain(n):
    """n diamonds in a row: 3n + 1 blocks, each diamond a two-way branch."""
    lines = ["func @f(%c: i1) -> i32 {"]
    for i in range(n):
        lines += [f"a{i}:", f"  br %c, b{i}, c{i}", f"b{i}:", f"  jmp a{i + 1}",
                  f"c{i}:", f"  jmp a{i + 1}"]
    lines += [f"a{n}:", "  ret i32 1", "}"]
    return parse_module("\n".join(lines)).functions["f"]


def test_linearize_orders_match_the_recursive_walk(corpus):
    checked = 0
    for _, m, _ in corpus:
        for work in (m, extract_loops(m)):
            for f in work.functions.values():
                for seed in range(4):
                    assert linearize(f, seed).order == \
                        _linearize_order_oracle(f, seed), (f.name, seed)
                    checked += 1
    assert checked > 300


def test_linearize_walks_5000_blocks_on_the_default_stack():
    f = _diamond_chain(1667)
    assert len(f.blocks) == 5002
    limit = sys.getrecursionlimit()
    lins = {seed: linearize(f, seed) for seed in (0, 1, 3 ** 40 + 5)}
    assert sys.getrecursionlimit() == limit
    sys.setrecursionlimit(limit + 4 * len(f.blocks))   # for the oracle only
    try:
        for seed, lin in lins.items():
            assert lin.order == _linearize_order_oracle(f, seed)
            assert len(lin.instrs) == f.size()
    finally:
        sys.setrecursionlimit(limit)


def test_seed_pairs_cover_grid():
    got = seed_pairs(4)
    assert set(got) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert len(seed_pairs(9)) == 9


def _plain_best_alignment(m, name1, name2, seeds):
    """Every seed pair linearized and aligned afresh; the reference."""
    f1, f2 = m.function(name1), m.function(name2)
    rt1, rt2 = f1.register_types(), f2.register_types()
    best = None
    for s1, s2 in seed_pairs(seeds):
        lin1, lin2 = linearize(f1, s1), linearize(f2, s2)
        a = align(lin1.instrs, lin2.instrs, rt1=rt1, rt2=rt2)
        if best is None or a.score > best[0].score:
            best = (a, lin1, lin2)
    return best


def test_best_alignment_aligns_each_layout_pair_once(pair_module, corpus,
                                                     monkeypatch):
    cases = [(pair_module, "sel_a", "sel_b")]
    for name, m, _ in corpus:
        if name in ("decode", "reduce"):
            cases += [(m, n1, n2) for n1, n2, _ in rank_pairs(m)]
    calls = []

    def counting_align(s1, s2, **kw):
        calls.append(None)
        return align(s1, s2, **kw)

    monkeypatch.setattr(merge, "align", counting_align)
    saved = 0
    for m, n1, n2 in cases:
        f1, f2 = m.function(n1), m.function(n2)
        for seeds in range(1, 10):
            want = _plain_best_alignment(m, n1, n2, seeds)
            calls.clear()
            got = best_alignment(m, n1, n2, seeds)
            layouts = {(tuple(linearize(f1, s1).order),
                        tuple(linearize(f2, s2).order))
                       for s1, s2 in seed_pairs(seeds)}
            assert len(calls) == len(layouts), (n1, n2, seeds)
            saved += seeds - len(layouts)
            assert got[0].entries == want[0].entries, (n1, n2, seeds)
            assert got[0].score == want[0].score
            assert got[1].order == want[1].order
            assert got[2].order == want[2].order
    assert saved > 0


# ---------------------------------------------------------------------------
# Alignment
# ---------------------------------------------------------------------------

def test_align_identical_sequences():
    s = [_instr(op) for op in ("add", "mul", "store")]
    a = align(s, list(s))
    assert a.aligned_count == 3
    assert a.aligned_fraction == 1.0
    assert all(e.kind == "aligned" for e in a.entries)


def test_align_no_common_opcode():
    a = align([_instr("add")], [_instr("mul")])
    assert a.aligned_count == 0
    assert len(a.entries) == 2
    assert {e.kind for e in a.entries} == {"gap1", "gap2"}


def test_align_textbook_example_unit_weights():
    unit = {op: 1.0 for op in default_weights()}
    s1 = [_instr(op) for op in ("load", "add", "mul", "store")]
    s2 = [_instr(op) for op in ("load", "mul", "store")]
    a = align(s1, s2, unit, 0.0)
    assert a.score == 3.0
    assert a.aligned_count == 3
    assert a.score == brute_force_align_score(s1, s2, unit, 0.0)
    gap = [e for e in a.entries if e.kind == "gap2"]
    assert len(gap) == 1 and s1[gap[0].i1].op == "add"


def test_align_matches_brute_force_random():
    rng = random.Random(99)
    ops = ["add", "mul", "load", "store", "sub", "xor"]
    w = default_weights()
    for _ in range(40):
        s1 = [_instr(rng.choice(ops)) for _ in range(rng.randrange(1, 9))]
        s2 = [_instr(rng.choice(ops)) for _ in range(rng.randrange(1, 9))]
        a = align(s1, s2, w, 0.1)
        assert a.score == pytest.approx(
            brute_force_align_score(s1, s2, w, 0.1), abs=1e-9)


def _align_oracle(s1, s2, weights=None, gap=merge.DEFAULT_GAP_PENALTY,
                  rt1=None, rt2=None):
    """`align` as it was written before its compact tables: (n1+1)x(n2+1)
    lists of float scores and int moves, comparing keys as tuples."""
    rt1 = rt1 or {}
    rt2 = rt2 or {}
    n1, n2 = len(s1), len(s2)

    score = [[0.0] * (n2 + 1) for _ in range(n1 + 1)]
    move = [[0] * (n2 + 1) for _ in range(n1 + 1)]  # 1=diag 2=up(gap2) 3=left(gap1)
    for i in range(1, n1 + 1):
        score[i][0] = -gap * i
        move[i][0] = 2
    for j in range(1, n2 + 1):
        score[0][j] = -gap * j
        move[0][j] = 3
    keys2 = [_align_key(b, rt2, "?2") for b in s2]
    for i in range(1, n1 + 1):
        a = s1[i - 1]
        key = _align_key(a, rt1, "?1")
        weight = (weights.get(a.op, merge.DEFAULT_MATCH_WEIGHT) if weights
                  else merge.HEAVY_MATCH_WEIGHT if a.op in merge.HEAVY_OPS
                  else merge.DEFAULT_MATCH_WEIGHT)
        row, prow = score[i], score[i - 1]
        mrow = move[i]
        for j in range(1, n2 + 1):
            best = prow[j] - gap
            mv = 2
            left = row[j - 1] - gap
            if left > best:
                best, mv = left, 3
            if key == keys2[j - 1]:
                d = prow[j - 1] + weight
                if d >= best:
                    best, mv = d, 1
            row[j] = best
            mrow[j] = mv

    entries = []
    i, j = n1, n2
    while i > 0 or j > 0:
        mv = move[i][j]
        if mv == 1:
            entries.append(merge.AlignEntry("aligned", i - 1, j - 1))
            i, j = i - 1, j - 1
        elif mv == 2:
            entries.append(merge.AlignEntry("gap2", i - 1))
            i -= 1
        else:
            entries.append(merge.AlignEntry("gap1", None, j - 1))
            j -= 1
    entries.reverse()
    return merge.Alignment(entries, score[n1][n2], n1, n2)


# few distinct keys, so equal keys and score ties are common; a gep's index
# register is typed by its side's map, or has no type there
_SHAPES = st.sampled_from([("add", "i32"), ("add", "i64"), ("mul", "i32"),
                           ("load", "i32"), ("gep", "ptr")])
_WIDTHS = st.dictionaries(st.just("i"), st.sampled_from(["i32", "i64"]))
_SCORES = st.one_of(st.just(0.1), st.sampled_from([0.0, 0.5, 1.0, 4.0]),
                    st.floats(0, 8, allow_nan=False))


def _shaped(shape):
    op, ty = shape
    return Instr(op, ty, "r", (Reg("p"), Reg("i")) if op == "gep" else ())


@settings(max_examples=400, deadline=None)
@given(s1=st.lists(_SHAPES, min_size=1, max_size=14),
       s2=st.lists(_SHAPES, min_size=1, max_size=14),
       weights=st.one_of(st.none(), st.dictionaries(
           st.sampled_from(["add", "mul", "load", "gep"]), _SCORES)),
       gap=_SCORES, rt1=_WIDTHS, rt2=_WIDTHS)
def test_align_equals_the_list_of_lists_oracle(s1, s2, weights, gap, rt1,
                                                rt2):
    # the same entries and a bit-identical score, ties included
    s1, s2 = [_shaped(x) for x in s1], [_shaped(x) for x in s2]
    got = align(s1, s2, weights, gap, rt1, rt2)
    want = _align_oracle(s1, s2, weights, gap, rt1, rt2)
    assert got.entries == want.entries
    assert got.score.hex() == want.score.hex()


def test_align_rejects_a_pair_above_the_cell_limit(corpus, area_model,
                                                  monkeypatch):
    # the limit bounds the (n1+1)(n2+1) cells of the move table; above it
    # the pair is rejected, naming both, and prepare's funnel counts it as
    # ranked but not aligned
    s1, s2 = [_instr("add")] * 4, [_instr("add")] * 5
    monkeypatch.setattr(merge, "MAX_ALIGN_CELLS", 30)
    assert align(s1, s2).aligned_count == 4
    monkeypatch.setattr(merge, "MAX_ALIGN_CELLS", 29)
    with pytest.raises(MergeRejected) as exc:
        align(s1, s2)
    assert str(exc.value) == "alignment needs 30 cells, above the limit of 29"

    from mergedse import dse
    m, img = next((m, img) for name, m, img in corpus if name == "reduce")
    monkeypatch.setattr(merge, "MAX_ALIGN_CELLS", 3)
    reasons, real = [], dse.merge_functions

    def rejected(*args, **kw):
        try:
            return real(*args, **kw)
        except MergeRejected as e:
            reasons.append(str(e))
            raise
    monkeypatch.setattr(dse, "merge_functions", rejected)
    prep = dse.prepare(m, [img], dse.PipelineConfig(mode="FLE+Merging"),
                       model=area_model)
    ranked = rank_pairs(extract_loops(m), dse.MIN_SIMILARITY)
    assert prep.funnel["ranked"] == len(ranked) == len(reasons) > 10
    assert prep.funnel["aligned"] == 0
    assert all(r.startswith("alignment needs ") and
               r.endswith(" cells, above the limit of 3") for r in reasons)


def test_alignment_indices_strictly_increasing(pair_module):
    a, l1, l2 = best_alignment(pair_module, "sel_a", "sel_b")
    i1 = [e.i1 for e in a.entries if e.i1 is not None]
    i2 = [e.i2 for e in a.entries if e.i2 is not None]
    assert i1 == sorted(i1) and len(set(i1)) == len(i1) == a.len1
    assert i2 == sorted(i2) and len(set(i2)) == len(i2) == a.len2
    for e in a.entries:
        if e.kind == "aligned":
            assert l1.instrs[e.i1].op == l2.instrs[e.i2].op


# ---------------------------------------------------------------------------
# Parameter merging
# ---------------------------------------------------------------------------

def test_merge_parameters_selector_signatures(pair_module):
    pm = merge_parameters(pair_module.functions["sel_a"],
                          pair_module.functions["sel_b"])
    # (a,a), (b,b) by type i32; the i1 matches across the skipped i32
    assert pm.matched == [(0, 0), (1, 1), (2, 3)]
    assert pm.unmatched1 == []
    assert pm.unmatched2 == [2]


def test_merge_parameters_identical_signatures(pair_module):
    f = pair_module.functions["sel_a"]
    pm = merge_parameters(f, f)
    assert pm.matched == [(0, 0), (1, 1), (2, 2)]
    assert pm.unmatched1 == pm.unmatched2 == []


def test_merge_parameters_no_common_types():
    m = parse_module("""
    func @f(%x: f64) -> f64 { bb0: ret f64 %x }
    func @g(%y: i32) -> i32 { bb0: ret i32 %y }
    """)
    pm = merge_parameters(m.functions["f"], m.functions["g"])
    assert pm.matched == []
    assert pm.unmatched1 == [0] and pm.unmatched2 == [0]


# ---------------------------------------------------------------------------
# Merged-body generation
# ---------------------------------------------------------------------------

def test_self_merge_structure(pair_module):
    m = pair_module.clone()
    twin = parse_module("""
    func @helper(%c: i32, %a: i32) -> i32 { bb0: %r = sub i32 %c, %a\n ret i32 %r }
    func @twin(%x: i32, %y: i32, %pick: i1) -> i32 {
    bb0:
      br %pick, bb1, bb2
    bb1:
      %z = add i32 %x, %y
      jmp bb3
    bb2:
      %z = mul i32 %x, %y
      jmp bb3
    bb3:
      %z2 = call i32 @helper(%z, %x)
      ret i32 %z2
    }
    """).functions["twin"]
    m.functions["twin"] = twin
    mf = merge_functions(m, "sel_a", "twin")
    assert mf.alignment.aligned_fraction == 1.0
    assert mf.mux_selects == 0
    # no glue: one merged instruction per alignment entry
    assert mf.function.size() == len(mf.alignment.entries)
    f = mf.function
    assert f.params[-1][1] == "i1"
    stripped = Function(f.name, f.params[:-1], f.ret, f.blocks, f.provenance)
    assert structurally_equal(stripped, m.functions["sel_a"])
    assert verify_merge(m, mf).passed


def test_selector_pair_merge_structure(pair_module):
    mf = merge_functions(pair_module, "sel_a", "sel_b")
    body = list(mf.function.instructions())
    by_op = {}
    for i in body:
        by_op.setdefault(i.op, []).append(i)
    # shared arithmetic: exactly one add and one mul survive
    assert len(by_op["add"]) == 1
    assert len(by_op["mul"]) == 1
    assert len(by_op["call"]) == 1 and by_op["call"][0].callee == "helper"
    # the add's first operand is multiplexed between the two parents' inputs
    add = by_op["add"][0]
    sel_results = {i.result for i in by_op.get("select", [])}
    assert any(getattr(o, "name", None) in sel_results for o in add.operands)
    assert mf.function.provenance == "merged"
    # signature: matched a/b, merged selector pair, unmatched d, then f_sel
    assert [t for _, t in mf.function.params] == ["i32", "i32", "i1", "i32", "i1"]


def test_guarded_call_runs_on_one_side_only(pair_module):
    mf = merge_functions(pair_module, "sel_a", "sel_b")
    m = pair_module.clone()
    m.functions[mf.function.name] = mf.function
    # behaviour-level check of the gap guard: the helper call happens iff
    # the first parent is selected
    r1 = interpret(m, mf.function.name, mf.args_for(1, [2, 3, 1]))
    r2 = interpret(m, mf.function.name, mf.args_for(2, [2, 3, 7, 1]))
    assert r1.trace.calls_between(mf.function.name, "helper") == 1
    assert r2.trace.calls_between(mf.function.name, "helper") == 0
    assert r1.value == 3
    assert r2.value == 6


def test_merge_reject_mismatched_return_types():
    m = parse_module("""
    func @f(%x: i32) -> i32 { bb0: %a = add i32 %x, 1\n %b = mul i32 %a, 2\n
      %c = add i32 %b, 3\n %d = xor i32 %c, 5\n ret i32 %d }
    func @g(%x: i32) -> void { bb0: %a = add i32 %x, 1\n %b = mul i32 %a, 2\n
      %c = add i32 %b, 3\n %d = xor i32 %c, 5\n ret }
    """)
    with pytest.raises(MergeRejected, match="returns"):
        merge_functions(m, "f", "g")


def test_merge_reject_below_aligned_fraction():
    ints = "\n".join(f"  %a = add i32 %a, {k}" for k in range(30))
    floats = "\n".join(f"  %x = fadd f64 %x, {k}.5" for k in range(30))
    m = parse_module(f"""
    func @f(%a: i32) -> i32 {{ bb0:\n{ints}\n ret i32 %a }}
    func @g(%x: f64) -> i32 {{ bb0:\n{floats}\n %t = fptosi f64 %x to i32\n ret i32 %t }}
    """)
    with pytest.raises(MergeRejected, match="aligned fraction"):
        merge_functions(m, "f", "g")


def test_merge_deterministic(pair_module):
    a = merge_functions(pair_module, "sel_a", "sel_b")
    b = merge_functions(pair_module, "sel_a", "sel_b")
    assert print_function(a.function) == print_function(b.function)


def test_instruction_reuse_accounting(pair_module, corpus):
    cases = [(pair_module, "sel_a", "sel_b")]
    for name, m, _ in corpus:
        pairs = rank_pairs(m, 0.3)
        if pairs:
            cases.append((m, pairs[0][0], pairs[0][1]))
    for m, n1, n2 in cases:
        try:
            mf = merge_functions(m, n1, n2)
        except MergeRejected:
            continue
        size1 = m.functions[n1].size()
        size2 = m.functions[n2].size()
        # one parent instruction per alignment entry, glue on top of them
        parent_instrs = len(mf.alignment.entries)
        assert mf.function.size() >= parent_instrs
        assert parent_instrs <= size1 + size2
        if mf.alignment.aligned_count > 0:
            assert parent_instrs < size1 + size2


def test_verify_detects_corrupted_merge(pair_module):
    mf = merge_functions(pair_module, "sel_a", "sel_b")
    # swap the arms of every multiplexing select: a classic miscompile
    broken = mf.function
    for b in broken.blocks:
        for k, ins in enumerate(b.instrs):
            if ins.op == "select" and ins.result and ins.result.startswith("sel"):
                c, x, y = ins.operands
                b.instrs[k] = Instr("select", ins.ty, ins.result, (c, y, x))
    rep = verify_merge(pair_module, mf)
    assert not rep.passed and rep.proved == (False, False)
    # and it is a real miscompile: the trial oracle finds a counterexample
    assert all(refute(pair_module, mf, side, 200, 9).startswith("trial ")
               for side in (1, 2))


ERROR_ONLY_SRC = """
func @good(%a: i32, %b: i32) -> i32 {
e:
  %s = add i32 %a, %b
  %t = mul i32 %s, %b
  ret i32 %t
}

func @bad(%a: i32, %b: i32) -> i32 {
e:
  %z = sub i32 %a, %a
  %s = add i32 %a, %b
  %t = sdiv i32 %s, %z
  ret i32 %t
}
"""


def test_verify_rejects_a_side_whose_trials_never_return():
    # @bad divides by zero on every input. Its side of the merged body
    # computes the zero as b - b, not a - a: still equal, and still dividing
    # by zero on every input, but no longer what the walk can prove. The
    # merge is rejected whatever the trials say: they all agree, and reach
    # only error paths. Both sides are walked, so @good's side is proved in
    # either order, and only @bad's side is named
    m = parse_module(ERROR_ONLY_SRC)
    for n1, n2, side in (("good", "bad", 2), ("bad", "good", 1)):
        mf = merge_functions(m, n1, n2)
        (block,) = [b for b in mf.function.blocks if b.instrs[0].op == "sub"]
        z = block.instrs[0]
        b = Reg(mf.renames[side - 1]["b"])
        block.instrs[0] = replace(z, operands=(b, b))
        proved, why = merge.weave_walk(mf, side, m.function("bad"))
        assert not proved
        rep = verify_merge(m, mf)
        assert not rep.passed
        assert rep.proved == (side == 2, side == 1)
        assert rep.detail == f"side {side} (@bad) unproved: {why}"
        assert refute(m, mf, side) == f"side {side} (@bad) never returns"
        assert refute(m, mf, 3 - side) == ""


def test_verify_passes_a_proved_side_whose_trials_never_return():
    # the walk proves @bad's side equal to @bad on every input, error paths
    # included, so the merge passes although no trial of @bad returns
    m = parse_module(ERROR_ONLY_SRC)
    for n1, n2 in (("good", "bad"), ("bad", "good")):
        rep = verify_merge(m, merge_functions(m, n1, n2))
        assert rep.passed and rep.proved == (True, True)


def test_merged_functions_validate_in_module(pair_module):
    mf = merge_functions(pair_module, "sel_a", "sel_b")
    m = pair_module.clone()
    m.functions[mf.function.name] = mf.function
    validate_module(m)   # raises ValidationError on any diagnostic


def test_merged_const_of_a_mux_prints_and_parses_back(corpus):
    # aligned consts with different literals become `const i32 %mux`, which
    # the parser used to refuse ("const takes a literal"), so a module
    # written by `mergedse merge` could not be read back
    m = next(m for name, m, _ in corpus if name == "checksum").clone()
    mf = merge_functions(m, "fold_a", "fold_b")
    assert any(i.op == "const" and not isinstance(i.operands[0], Lit)
               for i in mf.function.instructions())
    m.functions[mf.function.name] = mf.function
    assert parse_module(print_module(m)) == m


def test_depth_two_remerge(pair_module):
    m = pair_module.clone()
    mf1 = merge_functions(m, "sel_a", "sel_b")
    m.functions[mf1.function.name] = mf1.function
    # merging the merged function again is supported up to depth 2
    mf2 = merge_functions(m, mf1.function.name, "sel_b")
    rep = verify_merge(m, mf2)
    assert rep.passed, rep.detail


def test_corpus_pairs_verify(corpus):
    # a fast spot check; the acceptance suite adds 200 oracle trials a side
    checked = 0
    for name, m, _ in corpus[:4]:
        for n1, n2, sim in rank_pairs(m, 0.3)[:3]:
            try:
                mf = merge_functions(m, n1, n2)
            except MergeRejected:
                continue
            rep = verify_merge(m, mf)
            assert rep.passed, (name, n1, n2, rep.detail)
            checked += 1
    assert checked >= 5


def _plan_trial_reference(params, rng, region_size=64):
    """The oracle's trial drawing, regions apart: one randbytes call per
    region."""
    scalars, regions = [], []
    for _, ty in params:
        if ty == "ptr":
            regions.append(rng.randbytes(region_size))
            scalars.append(None)
        elif ty == "i1":
            scalars.append(rng.randrange(2))
        elif ty == "i64":
            scalars.append(rng.randrange(0, 9))
        elif ty == "i32":
            scalars.append(rng.randrange(-64, 65))
        else:
            scalars.append(round(rng.uniform(-8.0, 8.0), 3))
    return scalars, regions


@pytest.mark.parametrize("seed", [0, 1, 7, 2027])
def test_plan_trial_draws_each_region_with_one_randbytes_call(seed,
                                                              monkeypatch):
    param_lists = [
        [],
        [("p", "ptr")],
        [("p", "ptr"), ("n", "i32")],
        [("a", "i1"), ("p", "ptr"), ("q", "ptr"), ("x", "f64"), ("k", "i64")],
        [("x", "f64"), ("y", "f64"), ("n", "i32")],
    ]
    for params in param_lists:
        for size in (1, 64, 300):
            monkeypatch.setattr(trial_oracle, "REGION_SIZE", size)
            new, old = random.Random(seed), random.Random(seed)
            for _ in range(4):
                heap, args = draw_trial(params, new)
                scalars, regions = _plan_trial_reference(params, old, size)
                # the reference plan laid out by a fresh Arena
                arena, regions = Arena(), iter(regions)
                want = [arena.add_region(f"r{k}", next(regions))
                        if ty == "ptr" else s
                        for k, ((_, ty), s) in enumerate(zip(params, scalars))]
                assert args == want
                assert heap == bytes(arena.data)
                assert new.getstate() == old.getstate()


def test_shared_verify_memo_matches_fresh(corpus):
    m = extract_loops(next(m for name, m, _ in corpus if name == "reduce").clone())
    before, names = print_module(m), list(m.functions)
    shared = {}
    checked = 0
    for n1, n2, _ in rank_pairs(m, 0.3):
        try:
            mf = merge_functions(m, n1, n2)
        except MergeRejected:
            continue
        fresh = verify_merge(m, mf)
        assert verify_merge(m, mf, memo=shared) == fresh
        checked += 1
    assert checked >= 20
    assert shared
    assert print_module(m) == before and list(m.functions) == names


def test_shared_verify_memo_still_catches_a_broken_merge(pair_module):
    shared = {}
    mf = merge_functions(pair_module, "sel_a", "sel_b")
    assert verify_merge(pair_module, mf, memo=shared).passed
    # same parents, so each parent's must-assign check is a memo hit
    broken = merge_functions(pair_module, "sel_a", "sel_b")
    for b in broken.function.blocks:
        for k, ins in enumerate(b.instrs):
            if ins.op == "select" and ins.result and ins.result.startswith("sel"):
                c, x, y = ins.operands
                b.instrs[k] = Instr("select", ins.ty, ins.result, (c, y, x))
    rep = verify_merge(pair_module, broken, memo=shared)
    assert not rep.passed
    assert rep == verify_merge(pair_module, broken)


def test_walk_proves_sides_and_logs_why_a_side_runs_trials(pair_module,
                                                          caplog):
    mf = merge_functions(pair_module, "sel_a", "sel_b")
    for side, name in ((1, "sel_a"), (2, "sel_b")):
        assert merge.weave_walk(mf, side, pair_module.function(name)) == (
            True, "")
    with caplog.at_level("DEBUG", logger="mergedse"):
        rep = verify_merge(pair_module, mf)
    assert rep.passed and rep.proved == (True, True) and rep.detail == ""
    assert caplog.records[-1].message == (
        "verify m.sel_a.sel_b: side 1 proved; side 2 proved")
    # a swapped mux is proved on neither side: the log and the detail give
    # the walk's reason for each, and nothing runs in its place
    broken = merge_functions(pair_module, "sel_a", "sel_b")
    for b in broken.function.blocks:
        for k, ins in enumerate(b.instrs):
            if ins.op == "select" and ins.result.startswith("sel"):
                c, x, y = ins.operands
                b.instrs[k] = Instr("select", ins.ty, ins.result, (c, y, x))
    notes = []
    for side, name in ((1, "sel_a"), (2, "sel_b")):
        proved, why = merge.weave_walk(broken, side,
                                       pair_module.function(name))
        assert not proved and "meets merged" in why
        notes.append(f"side {side} (@{name}) unproved: {why}")
    caplog.clear()
    with caplog.at_level("DEBUG", logger="mergedse"):
        rep = verify_merge(pair_module, broken)
    assert not rep.passed and rep.proved == (False, False)
    assert rep.detail == "; ".join(notes)
    assert caplog.records[-1].message == f"verify m.sel_a.sel_b: {rep.detail}"


def _edit_sel_a(m, op, edit):
    """Replace the first `op` instruction of @sel_a with edit(instr)."""
    for b in m.functions["sel_a"].blocks:
        for k, ins in enumerate(b.instrs):
            if ins.op == op:
                b.instrs[k] = edit(ins)
                return
    raise AssertionError(f"no {op} in @sel_a")


def test_merge_rejects_a_merged_body_that_fails_validation(pair_module,
                                                           monkeypatch):
    # only the merged body is validated now; it must still be refused when
    # it reads a register before assigning it, calls an unknown function or
    # mistypes an operand
    with monkeypatch.context() as mp:
        mp.setattr(merge, "unassigned_uses", lambda f: [])  # no initializers
        with pytest.raises(MergeRejected, match="used before assignment"):
            merge_functions(pair_module, "sel_a", "sel_b")
    merge_functions(pair_module, "sel_a", "sel_b")

    m = pair_module.clone()
    _edit_sel_a(m, "call", lambda ins: replace(ins, callee="nosuch"))
    with pytest.raises(MergeRejected,
                       match="call to undefined function @nosuch"):
        merge_functions(m, "sel_a", "sel_b")

    m = pair_module.clone()
    _edit_sel_a(m, "add", lambda ins: replace(
        ins, operands=(ins.operands[0], Lit(1, "i64"))))
    with pytest.raises(MergeRejected,
                       match="literal 1 has type i64, expected i32"):
        merge_functions(m, "sel_a", "sel_b")


def test_merge_rejects_a_register_of_two_types(pair_module, monkeypatch):
    # a mux named after the i1 parameter %sum gives that register a second
    # type, i32. The type map that places the initializers is the
    # validator's, so the pair is rejected with the validator's text, never
    # raised past the merge layer, whether or not the body needs
    # initializers
    assert merge_functions(pair_module, "sel_a", "sel_b").inits > 0
    fresh = merge._Namer.fresh
    monkeypatch.setattr(merge._Namer, "fresh", lambda self, want: (
        "sum" if want == "sel" else fresh(self, want)))
    text = ("merged body failed validation: register %sum assigned as i32 "
            "and i1 in @m.sel_a.sel_b")
    for inits in (True, False):
        if not inits:
            monkeypatch.setattr(merge, "unassigned_uses", lambda f: [])
        with pytest.raises(MergeRejected) as exc:
            merge_functions(pair_module, "sel_a", "sel_b")
        assert str(exc.value) == text


def test_verification_decodes_each_function_once_per_memo(corpus, area_model,
                                                           monkeypatch):
    # reduce in FLE+Merging: verification runs nothing, so none of
    # prepare's verify_merge calls decodes a function, and their shared memo
    # holds only per-function facts. Profiling decodes each module function
    # once per Program
    from mergedse import dse
    from mergedse.ir import interp
    m, img = next((m, img) for name, m, img in corpus if name == "reduce")
    built, calls, verifying = [], [], []
    init = interp._Decoded.__init__

    def counted(self, f, prog):
        init(self, f, prog)
        built.append((f.name, bool(verifying)))
    monkeypatch.setattr(interp._Decoded, "__init__", counted)

    def checked(work, mf, **kw):
        verifying.append(True)
        try:
            rep = verify(work, mf, **kw)
        finally:
            verifying.pop()
        assert all(work.functions.get(name) is held[0]
                   for name, held in kw["memo"].items())
        calls.append(rep.proved)
        return rep
    verify = dse.verify_merge
    monkeypatch.setattr(dse, "verify_merge", checked)

    prep = dse.prepare(m, [img], dse.PipelineConfig(mode="FLE+Merging"),
                       model=area_model)
    assert len(calls) == prep.funnel["aligned"] > 10
    assert prep.merge_parents   # accepted merges join the module
    assert all(proved == (True, True) for proved in calls)
    assert built and not any(inside for _, inside in built)
    names = [name for name, _ in built]
    assert len(names) == len(set(names))


def test_verify_and_align_refuse_no_trials_or_seeds(pair_module):
    # zero trials used to pass any merge: verification now takes no trial
    # count at all. Zero seeds left no alignment
    mf = merge_functions(pair_module, "sel_a", "sel_b")
    for knob in ("trials", "seed", "fuel"):
        with pytest.raises(TypeError, match=knob):
            verify_merge(pair_module, mf, **{knob: 1})
    for seeds in (0, -1):
        with pytest.raises(IRError, match="seeds must be at least 1"):
            best_alignment(pair_module, "sel_a", "sel_b", seeds)
        with pytest.raises(IRError, match="seeds must be at least 1"):
            merge_functions(pair_module, "sel_a", "sel_b", seeds=seeds)
    assert verify_merge(pair_module, mf).passed


def test_verify_takes_the_parents_from_the_merged_function(pair_module):
    # the walk pairs side 1 with parents[0]: parent names passed beside the
    # merge could come in the other order and reject a good merge
    for n1, n2 in (("sel_a", "sel_b"), ("sel_b", "sel_a")):
        mf = merge_functions(pair_module, n1, n2)
        rep = verify_merge(pair_module, mf)
        assert rep.passed and rep.parents == mf.parents == (n1, n2)
        with pytest.raises(TypeError):
            verify_merge(pair_module, n1, n2, mf)


# ---------------------------------------------------------------------------
# Per-function facts: computed once per memo, again for a replaced function
# ---------------------------------------------------------------------------

def _merge_outcome(work, n1, n2, memo):
    """The printed merged body and its report, or the rejection reason."""
    try:
        mf = merge_functions(work, n1, n2, memo=memo)
    except MergeRejected as e:
        return str(e)
    rep = verify_merge(work, mf, memo=memo)
    return print_function(mf.function), rep.passed, rep.proved, rep.detail


@pytest.mark.parametrize("mode", ["FE", "FLE"])
def test_function_facts_change_no_merge(corpus, mode):
    # every ranked pair of every corpus program on one memo, as prepare
    # shares one: the merged body, the rejection reason and the report are
    # those of a fresh memo per pair
    pairs = rejected = 0
    for name, m, _ in corpus:
        work = extract_loops(m) if mode == "FLE" else m.clone()
        memo = {}
        for n1, n2, _ in rank_pairs(work):
            got = _merge_outcome(work, n1, n2, memo)
            assert got == _merge_outcome(work, n1, n2, None), (name, n1, n2)
            pairs += 1
            rejected += isinstance(got, str)
        assert set(memo) <= set(work.functions)
    # FE ranks 60 pairs, all aligned; FLE 150, 8 of them rejected
    assert pairs >= 60 and rejected < pairs and (rejected > 0 or mode == "FE")


def test_function_facts_change_no_merge_of_either_round(corpus, area_model,
                                                        monkeypatch):
    # the pairs prepare forms, round 2 included (a merged parent's facts
    # are computed once it joins the module): each candidate and report on
    # prepare's memo equals one from a fresh memo
    from mergedse import dse
    real_merge, real_verify, seen = dse.merge_functions, dse.verify_merge, []

    def merged(work, n1, n2, **kw):
        fresh = _merge_outcome(work, n1, n2, None)
        seen.append((n1, n2))
        try:
            mf = real_merge(work, n1, n2, **kw)
        except MergeRejected as e:
            assert str(e) == fresh
            raise
        assert print_function(mf.function) == fresh[0]
        return mf

    def verified(work, mf, **kw):
        rep = real_verify(work, mf, **kw)
        want = real_verify(work, mf, **{**kw, "memo": None})
        assert rep == want
        return rep
    monkeypatch.setattr(dse, "merge_functions", merged)
    monkeypatch.setattr(dse, "verify_merge", verified)
    for name, m, img in corpus:
        for mode in ("FE+Merging", "FLE+Merging"):
            dse.prepare(m, [img], dse.PipelineConfig(mode=mode),
                        model=area_model)
    assert sum(n1.startswith("m.") or n2.startswith("m.")
               for n1, n2 in seen) > 100


def test_function_facts_follow_the_function_object(pair_module):
    # @sel_a replaced under its name, on the same memo: linearizations,
    # types and the walk's must-assign check are taken again. The new @sel_a
    # always branches to bb1, and its bb2 leaves %c unassigned: it runs, but
    # the walk may not prove its side (a stale check would)
    m = pair_module.clone()
    memo = {}
    before = _merge_outcome(m, "sel_a", "sel_b", memo)
    assert before[1:3] == (True, (True, True))

    def edit(ins):
        if ins.op == "br":
            return replace(ins, operands=(Lit(1, "i1"),))
        return replace(ins, result="e") if ins.op == "mul" else ins
    sel_a = m.functions["sel_a"]
    m.functions["sel_a"] = replace(sel_a, blocks=[
        replace(b, instrs=[edit(ins) for ins in b.instrs])
        for b in sel_a.blocks])
    after = _merge_outcome(m, "sel_a", "sel_b", memo)
    assert after == _merge_outcome(m, "sel_a", "sel_b", None)
    assert after[0] != before[0] and after[2][0] is False
    assert memo["sel_a"][0] is m.functions["sel_a"]


def test_verification_meets_a_parent_reading_an_unassigned_register(
        pair_module):
    # @sel_a's mul assigns %e, so its bb2 leaves %c unassigned and passes
    # it to @helper. Such a parent is built in code: the parser rejects it.
    # The walk refuses its side. Its trials that take bb2 end in
    # error:unassigned, not in a Python TypeError, and the merged function,
    # where %c is assigned, disagrees
    m = pair_module.clone()
    sel_a = m.functions["sel_a"]
    m.functions["sel_a"] = replace(sel_a, blocks=[replace(b, instrs=[
        replace(ins, result="e") if ins.op == "mul" else ins
        for ins in b.instrs]) for b in sel_a.blocks])
    memo = {}
    mf = merge_functions(m, "sel_a", "sel_b", memo=memo)
    rep = verify_merge(m, mf, memo=memo)
    assert not rep.passed and rep.proved == (False, True)
    assert rep.detail == ("side 1 (@sel_a) unproved: the parent reads a "
                          "register before assigning it")
    assert refute(m, mf, 1, 16).endswith(
        "parent error:unassigned value/heap differs from merged ok")

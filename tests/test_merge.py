import random
from dataclasses import replace

import pytest

from mergedse import merge
from mergedse.analysis import extract_loops, rank_pairs
from mergedse.ir import (
    Function, Instr, IRError, Lit, interpret, parse_module, print_function,
    print_module, structurally_equal, validate_module,
)
from mergedse.merge import (
    MergeRejected, _compatible, _plan_trial, align, best_alignment,
    default_weights, linearize, merge_functions, merge_parameters, seed_pairs,
    verify_merge,
)


def brute_force_align_score(s1, s2, weights, gap):
    """Exhaustive search over all alignments; the independent oracle."""
    memo = {}

    def rec(i, j):
        if (i, j) in memo:
            return memo[(i, j)]
        if i == len(s1) and j == len(s2):
            return 0.0
        best = float("-inf")
        if i < len(s1) and j < len(s2) and _compatible(s1[i], s2[j], {}, {}):
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
        pos = 0
        for lab in lin.order:
            for ins in f.block(lab).instrs:
                assert lin.instrs[pos] == ins
                pos += 1


def test_seed_pairs_cover_grid():
    got = seed_pairs(4)
    assert set(got) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert len(seed_pairs(9)) == 9


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
    assert mf.glue == 0
    f = mf.function
    assert f.params[-1][1] == "i1"
    stripped = Function(f.name, f.params[:-1], f.ret, f.blocks, f.provenance)
    assert structurally_equal(stripped, m.functions["sel_a"])
    assert verify_merge(m, "sel_a", "twin", mf, trials=30, seed=5).passed


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
        assert mf.function.size() == mf.parent_instrs + mf.glue
        assert mf.parent_instrs <= size1 + size2
        if mf.alignment.aligned_count > 0:
            assert mf.parent_instrs < size1 + size2


def test_verify_detects_corrupted_merge(pair_module):
    mf = merge_functions(pair_module, "sel_a", "sel_b")
    # swap the arms of every multiplexing select: a classic miscompile
    broken = mf.function
    for b in broken.blocks:
        for k, ins in enumerate(b.instrs):
            if ins.op == "select" and ins.result and ins.result.startswith("sel"):
                c, x, y = ins.operands
                b.instrs[k] = Instr("select", ins.ty, ins.result, (c, y, x))
    rep = verify_merge(pair_module, "sel_a", "sel_b", mf, trials=200, seed=9)
    assert not rep.passed
    assert rep.counterexample is not None


def test_merged_functions_validate_in_module(pair_module):
    mf = merge_functions(pair_module, "sel_a", "sel_b")
    m = pair_module.clone()
    m.functions[mf.function.name] = mf.function
    assert validate_module(m, raise_on_error=False) == []


def test_depth_two_remerge(pair_module):
    m = pair_module.clone()
    mf1 = merge_functions(m, "sel_a", "sel_b")
    m.functions[mf1.function.name] = mf1.function
    # merging the merged function again is supported up to depth 2
    mf2 = merge_functions(m, mf1.function.name, "sel_b")
    rep = verify_merge(m, mf1.function.name, "sel_b", mf2, trials=60, seed=8)
    assert rep.passed, rep.detail


def test_corpus_pairs_verify(corpus):
    # a fast spot check; the acceptance suite runs the full 200-trial sweep
    checked = 0
    for name, m, _ in corpus[:4]:
        for n1, n2, sim in rank_pairs(m, 0.3)[:3]:
            try:
                mf = merge_functions(m, n1, n2)
            except MergeRejected:
                continue
            rep = verify_merge(m, n1, n2, mf, trials=25, seed=2)
            assert rep.passed, (name, n1, n2, rep.detail)
            checked += 1
    assert checked >= 5


def _plan_trial_reference(params, rng, region_size=64):
    """_plan_trial as first written: randrange(256) per region byte."""
    scalars, regions = [], []
    for _, ty in params:
        if ty == "ptr":
            regions.append(bytes(rng.randrange(256) for _ in range(region_size)))
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
def test_plan_trial_keeps_the_randrange_stream(seed):
    param_lists = [
        [],
        [("p", "ptr")],
        [("p", "ptr"), ("n", "i32")],
        [("a", "i1"), ("p", "ptr"), ("q", "ptr"), ("x", "f64"), ("k", "i64")],
        [("x", "f64"), ("y", "f64"), ("n", "i32")],
    ]
    for params in param_lists:
        for size in (1, 64, 300):
            new, old = random.Random(seed), random.Random(seed)
            for _ in range(4):
                plan = _plan_trial(params, new, size)
                scalars, regions = _plan_trial_reference(params, old, size)
                assert list(plan.scalars) == scalars
                assert list(plan.regions) == regions
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
        fresh = verify_merge(m, n1, n2, mf, trials=48, seed=7)
        assert verify_merge(m, n1, n2, mf, trials=48, seed=7,
                            memo=shared) == fresh
        checked += 1
    assert checked >= 20
    assert shared
    assert print_module(m) == before and list(m.functions) == names


def test_shared_verify_memo_still_catches_a_broken_merge(pair_module):
    shared = {}
    mf = merge_functions(pair_module, "sel_a", "sel_b")
    assert verify_merge(pair_module, "sel_a", "sel_b", mf, trials=200,
                        seed=9, memo=shared).passed
    # same parents and trial plans, so every parent run is a memo hit
    broken = merge_functions(pair_module, "sel_a", "sel_b")
    for b in broken.function.blocks:
        for k, ins in enumerate(b.instrs):
            if ins.op == "select" and ins.result and ins.result.startswith("sel"):
                c, x, y = ins.operands
                b.instrs[k] = Instr("select", ins.ty, ins.result, (c, y, x))
    rep = verify_merge(pair_module, "sel_a", "sel_b", broken, trials=200,
                       seed=9, memo=shared)
    assert not rep.passed
    assert rep == verify_merge(pair_module, "sel_a", "sel_b", broken,
                               trials=200, seed=9)


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


def test_trial_plans_drawn_once_per_signature_pair(corpus, monkeypatch):
    m = extract_loops(next(m for name, m, _ in corpus if name == "reduce"))
    candidates = []
    for n1, n2, _ in rank_pairs(m, 0.3):
        try:
            candidates.append((n1, n2, merge_functions(m, n1, n2)))
        except MergeRejected:
            continue
    draws = []
    plan_trial = merge._plan_trial

    def counted(params, rng):
        draws.append(params)
        return plan_trial(params, rng)
    monkeypatch.setattr(merge, "_plan_trial", counted)

    def signature(name):
        return tuple(ty for _, ty in m.functions[name].params)

    trials, shared = 48, {}
    sigs = {(signature(n1), signature(n2)) for n1, n2, _ in candidates}
    reports = [verify_merge(m, n1, n2, mf, trials=trials, seed=7, memo=shared)
               for n1, n2, mf in candidates]
    assert len(candidates) > len(sigs)
    assert len(draws) == 2 * trials * len(sigs)
    # one fresh memo per call gives the same reports
    assert reports == [verify_merge(m, n1, n2, mf, trials=trials, seed=7)
                       for n1, n2, mf in candidates]
    assert len(draws) == 2 * trials * (len(sigs) + len(candidates))


def test_verification_decodes_each_function_once_per_memo(corpus, area_model,
                                                           monkeypatch):
    # reduce in FLE+Merging: every module function is decoded once for all
    # of prepare's verify_merge calls (they share one memo); each candidate
    # once per call, and its decoded code leaves the memo on return
    from mergedse import dse
    from mergedse.ir import interp
    m, img = next((m, img) for name, m, img in corpus if name == "reduce")
    built, calls = [], []
    init = interp._Decoded.__init__

    def counted(self, f, footprints):
        init(self, f, footprints)
        if not footprints:
            built.append((f.name, f, calls[-1] if calls else None))
    monkeypatch.setattr(interp._Decoded, "__init__", counted)

    def checked(work, n1, n2, mf, **kw):
        calls.append(mf.function.name)
        rep = verify(work, n1, n2, mf, **kw)
        assert mf.function.name not in kw["memo"]["program"].decoded
        return rep
    verify = dse.verify_merge
    monkeypatch.setattr(dse, "verify_merge", checked)

    prep = dse.prepare(m, [img], dse.PipelineConfig(mode="FLE+Merging",
                                                    seed=7), model=area_model)
    assert len(calls) == prep.funnel["aligned"] > 10
    assert prep.merge_parents   # accepted merges join the module
    own = [(name, call) for name, _, call in built if name == call]
    assert sorted(own) == sorted((c, c) for c in calls)
    module = [(name, id(f)) for name, f, call in built if name != call]
    assert len(module) == len(set(module))
    assert {name for name, _ in module} <= set(prep.module.functions)


def test_verify_and_align_refuse_no_trials_or_seeds(pair_module):
    # zero trials used to pass any merge; zero seeds left no alignment
    mf = merge_functions(pair_module, "sel_a", "sel_b")
    for trials in (0, -3):
        with pytest.raises(IRError, match="trials must be at least 1"):
            verify_merge(pair_module, "sel_a", "sel_b", mf, trials=trials)
    for seeds in (0, -1):
        with pytest.raises(IRError, match="seeds must be at least 1"):
            best_alignment(pair_module, "sel_a", "sel_b", seeds)
        with pytest.raises(IRError, match="seeds must be at least 1"):
            merge_functions(pair_module, "sel_a", "sel_b", seeds=seeds)
    assert verify_merge(pair_module, "sel_a", "sel_b", mf, trials=1).passed

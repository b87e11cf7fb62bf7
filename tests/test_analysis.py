import itertools
import random
import struct
from graphlib import CycleError, TopologicalSorter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergedse import analysis
from mergedse.analysis import (
    TRIVIAL_SIZE, build_call_graph, extract_loops, fingerprint, natural_loops,
    rank_pairs, similarity_matrix,
)
from mergedse.ir import (
    Arena, Block, Function, Instr, IRError, Module, OPCODES, interpret,
    parse_module, print_module, run_heap_image,
)


def test_call_graph_selector_pair(pair_module):
    cg = build_call_graph(pair_module)
    assert cg.callees("sel_a") == {"helper"}
    assert cg.callees("sel_b") == set()
    assert cg.callees("helper") == set()


def test_call_graph_single_function():
    m = parse_module("func @f() -> i32 { bb0: ret i32 1 }")
    cg = build_call_graph(m)
    assert cg.callees("f") == set()


def test_call_graph_chain_transitive():
    m = parse_module("""
    func @c() -> i32 { bb0: ret i32 3 }
    func @b() -> i32 { bb0: %r = call i32 @c()\n ret i32 %r }
    func @a() -> i32 { bb0: %r = call i32 @b()\n ret i32 %r }
    """)
    cg = build_call_graph(m)
    assert cg.callees("a") == {"b", "c"}
    assert cg.topo_order.index("c") < cg.topo_order.index("b")
    assert cg.topo_order.index("b") < cg.topo_order.index("a")


def _calling(calls: dict[str, list[str]]) -> Module:
    """A module built as objects, so no validation runs: each function
    calls the named functions in order, then returns."""
    return Module({name: Function(name, [], "void", [Block("e", [
        Instr("call", "void", callee=c) for c in cs] + [Instr("ret")])])
        for name, cs in calls.items()}, next(iter(calls)))


@pytest.mark.parametrize("calls", [
    {"a": ["b"], "b": ["a"]}, {"f": ["f"]},
    {"main": ["a"], "a": ["b", "c"], "b": [], "c": ["a"]}],
    ids=["two-cycle", "self-call", "below-a-root"])
def test_call_graph_of_a_hand_built_cycle_raises(calls):
    with pytest.raises(IRError) as e:
        build_call_graph(_calling(calls))
    assert str(e.value) == "cycle detected in call graph"


def test_call_graph_orders_a_long_chain_callees_first():
    # the search keeps its own stack: 5,000 nested callers reach no
    # recursion limit
    n = 5000
    cg = build_call_graph(_calling(
        {f"f{i}": [f"f{i + 1}"] if i + 1 < n else [] for i in range(n)}))
    assert cg.topo_order == [f"f{i}" for i in reversed(range(n))]
    assert len(cg.callees("f0")) == n - 1


def test_call_graph_order_follows_sorted_names():
    # in any module order and call order: the postorder below the sorted
    # names, each function's callees visited in sorted order
    calls = {"a": ["c", "b"], "b": ["d"], "c": [], "d": []}
    for k, names in enumerate(itertools.permutations(calls)):
        cg = build_call_graph(_calling(
            {n: calls[n][::(-1) ** k] for n in names}))
        assert cg.topo_order == ["d", "b", "c", "a"], names
        assert cg.callees("a") == {"b", "c", "d"}


def test_no_loops_in_straight_line():
    m = parse_module("func @f(%a: i32) -> i32 { bb0: %r = add i32 %a, 1\n ret i32 %r }")
    forest = natural_loops(m.functions["f"])
    assert forest.loops == []
    assert not forest.irreducible


WHILE_SRC = """
func @w(%n: i32) -> i32 {
entry:
  %i = const i32 0
  jmp header
header:
  %c = icmp slt i32 %i, %n
  br %c, body, exit
body:
  %i = add i32 %i, 1
  jmp header
exit:
  ret i32 %i
}
"""


def test_single_while_loop():
    m = parse_module(WHILE_SRC)
    forest = natural_loops(m.functions["w"])
    assert len(forest.loops) == 1
    loop = forest.loops[0]
    assert loop.header == "header"
    assert loop.blocks == {"header", "body"}
    assert loop.depth == 1


def test_doubly_nested_loops():
    m = parse_module("""
    func @nest(%n: i32) -> i32 {
    entry:
      %i = const i32 0
      %acc = const i32 0
      jmp oh
    oh:
      %c = icmp slt i32 %i, %n
      br %c, ob, done
    ob:
      %j = const i32 0
      jmp ih
    ih:
      %c2 = icmp slt i32 %j, %n
      br %c2, ib, iend
    ib:
      %acc = add i32 %acc, 1
      %j = add i32 %j, 1
      jmp ih
    iend:
      %i = add i32 %i, 1
      jmp oh
    done:
      ret i32 %acc
    }
    """)
    forest = natural_loops(m.functions["nest"])
    assert len(forest.loops) == 2
    by_header = {l.header: l for l in forest.loops}
    outer, inner = by_header["oh"], by_header["ih"]
    assert inner.blocks < outer.blocks
    assert outer.depth == 1 and inner.depth == 2
    assert inner.parent is outer
    assert [l.header for l in forest.outermost()] == ["oh"]


def test_irreducible_flagged():
    # two blocks jumping into each other's bodies without a dominating header
    m = parse_module("""
    func @ir(%c: i1, %d: i1) -> i32 {
    e:
      br %c, x, y
    x:
      br %d, y, out
    y:
      br %d, x, out
    out:
      ret i32 0
    }
    """)
    forest = natural_loops(m.functions["ir"])
    assert forest.irreducible


def _set_back_edges(entry, succs, preds):
    """The reference for `analysis._back_edges`, by the set-based definition
    of dominators: every block starts dominated by all labels, then keeps
    the intersection over its predecessors, plus itself, until nothing
    changes. The CFG is irreducible when the other edges hold a cycle."""
    universe = set(succs)
    dom = {lab: set(universe) for lab in succs}
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for lab in succs:
            if lab == entry:
                continue
            new = set(universe)
            for p in preds[lab]:
                new &= dom[p]
            new.add(lab)
            if new != dom[lab]:
                dom[lab] = new
                changed = True
    back = {(u, v) for u in succs for v in succs[u] if v in dom[u]}
    try:
        TopologicalSorter({u: [v for v in succs[u] if (u, v) not in back]
                           for u in succs}).prepare()
    except CycleError:
        return None
    return back


def _forest(f):
    forest = natural_loops(f)
    return forest.irreducible, [
        (l.header, sorted(l.blocks), l.depth, l.parent and l.parent.header)
        for l in forest.loops]


def _random_cfg(rng, n):
    """A function of n blocks chained b0 -> b1 -> ..., each with a random
    second successor among b1..b{n-1} (backward, forward or itself), so every
    block is reachable and the entry has no predecessors."""
    lines = ["func @g(%c: i1) -> i32 {"]
    for i in range(n):
        nxt = [f"b{i + 1}"] if i + 1 < n else []
        if rng.random() < 0.6 and n > 1:
            other = f"b{rng.randrange(1, n)}"
            if other not in nxt:
                nxt.append(other)
        lines.append(f"b{i}:")
        lines.append(f"  br %c, {nxt[0]}, {nxt[1]}" if len(nxt) == 2 else
                     f"  jmp {nxt[0]}" if nxt else "  ret i32 0")
    return parse_module("\n".join(lines + ["}"])).functions["g"]


def test_natural_loops_match_set_based_dominators(corpus, monkeypatch):
    fns = [f for _, m, _ in corpus for mod in (m, extract_loops(m))
           for f in mod.functions.values()]
    rng = random.Random(11)
    fns += [_random_cfg(rng, rng.randrange(1, 25)) for _ in range(400)]
    fast = [_forest(f) for f in fns]
    assert any(irr for irr, _ in fast)
    assert any(not irr and any(depth > 1 for *_, depth, _ in loops)
               for irr, loops in fast)
    monkeypatch.setattr(analysis, "_back_edges", _set_back_edges)
    assert [_forest(f) for f in fns] == fast


def test_extract_loop_free_module_unchanged(pair_module):
    out = extract_loops(pair_module)
    assert print_module(out) == print_module(pair_module)


def _random_region(rng, nbytes=64):
    return bytes(rng.randrange(256) for _ in range(nbytes))


def test_extract_single_loop_differential():
    src = """
    func @main(%buf: ptr, %n: i32) -> i32 {
    entry:
      %i = const i32 0
      %acc = const i32 0
      jmp header
    header:
      %c = icmp slt i32 %i, %n
      br %c, body, done
    body:
      %p = gep i32 %buf, %i
      %v = load i32, %p
      %acc = add i32 %acc, %v
      store i32 %acc, %p
      %i = add i32 %i, 1
      jmp header
    done:
      ret i32 %acc
    }
    """
    m = parse_module(src)
    me = extract_loops(m)
    assert "main_loop0" in me.functions
    assert me.functions["main_loop0"].provenance == "extracted-loop"
    rng = random.Random(42)
    for _ in range(100):
        data = _random_region(rng)
        n = rng.randrange(0, 17)
        a1, a2 = Arena(), Arena()
        r1 = interpret(m, "main", [a1.add_region("b", data), n], a1)
        r2 = interpret(me, "main", [a2.add_region("b", data), n], a2)
        assert r1.value == r2.value
        assert r1.heap == r2.heap


def test_extract_two_sibling_loops_order_preserved():
    src = """
    func @main(%buf: ptr, %n: i32) -> i32 {
    entry:
      %i = const i32 0
      %acc = const i32 0
      jmp h1
    h1:
      %c = icmp slt i32 %i, %n
      br %c, b1, mid
    b1:
      %p = gep i32 %buf, %i
      %v = load i32, %p
      %acc = add i32 %acc, %v
      %i = add i32 %i, 1
      jmp h1
    mid:
      %i = const i32 0
      jmp h2
    h2:
      %c2 = icmp slt i32 %i, %n
      br %c2, b2, done
    b2:
      %p2 = gep i32 %buf, %i
      %w = load i32, %p2
      %w = mul i32 %w, 3
      store i32 %w, %p2
      %i = add i32 %i, 1
      jmp h2
    done:
      ret i32 %acc
    }
    """
    m = parse_module(src)
    me = extract_loops(m)
    assert "main_loop0" in me.functions and "main_loop1" in me.functions
    calls = [i.callee for i in me.functions["main"].instructions()
             if i.op == "call"]
    assert calls == ["main_loop0", "main_loop1"]
    rng = random.Random(3)
    for _ in range(100):
        data = _random_region(rng)
        n = rng.randrange(0, 17)
        a1, a2 = Arena(), Arena()
        r1 = interpret(m, "main", [a1.add_region("b", data), n], a1)
        r2 = interpret(me, "main", [a2.add_region("b", data), n], a2)
        assert (r1.value, r1.heap) == (r2.value, r2.heap)


def test_extract_loop_with_two_live_outs_uses_out_pointer():
    src = """
    func @main(%buf: ptr, %n: i32) -> i32 {
    e:
      %i = const i32 0
      %acc = const i32 0
      %cnt = const i32 1
      jmp h
    h:
      %c = icmp slt i32 %i, %n
      br %c, b, x
    b:
      %p = gep i32 %buf, %i
      %v = load i32, %p
      %acc = add i32 %acc, %v
      %cnt = mul i32 %cnt, 3
      %i = add i32 %i, 1
      jmp h
    x:
      %r = xor i32 %acc, %cnt
      ret i32 %r
    }
    """
    m = parse_module(src)
    me = extract_loops(m)
    lf = me.functions["main_loop0"]
    assert lf.ret == "void"
    assert lf.params[-1] == ("__out", "ptr")
    rng = random.Random(5)
    for _ in range(150):
        data = _random_region(rng)
        n = rng.randrange(0, 17)
        a1, a2 = Arena(), Arena()
        r1 = interpret(m, "main", [a1.add_region("b", data), n], a1)
        r2 = interpret(me, "main", [a2.add_region("b", data), n], a2)
        assert (r1.value, r1.heap) == (r2.value, r2.heap)


def test_extract_loop_with_two_exits_dispatches_on_exit_code():
    src = """
    func @main(%buf: ptr, %n: i32) -> i32 {
    e:
      %i = const i32 0
      %acc = const i32 0
      jmp h
    h:
      %c = icmp slt i32 %i, %n
      br %c, b, done
    b:
      %p = gep i32 %buf, %i
      %v = load i32, %p
      %big = icmp sgt i32 %v, 100
      br %big, found, cont
    cont:
      %acc = add i32 %acc, %v
      %i = add i32 %i, 1
      jmp h
    found:
      %acc = sub i32 0, %acc
      jmp after
    after:
      %acc = add i32 %acc, 7
      ret i32 %acc
    done:
      ret i32 %acc
    }
    """
    m = parse_module(src)
    me = extract_loops(m)
    lf = me.functions["main_loop0"]
    assert lf.ret == "i32"  # the exit index
    assert sum(1 for b in lf.blocks if b.label.startswith("__exit")) == 2
    rng = random.Random(6)
    for _ in range(150):
        data = _random_region(rng)
        n = rng.randrange(0, 17)
        a1, a2 = Arena(), Arena()
        r1 = interpret(m, "main", [a1.add_region("b", data), n], a1)
        r2 = interpret(me, "main", [a2.add_region("b", data), n], a2)
        assert (r1.value, r1.heap) == (r2.value, r2.heap)


def test_extract_only_outermost_loops(corpus):
    name, m, img = [c for c in corpus if c[0] == "matvec"][0]
    me = extract_loops(m)
    extracted = [f for f in me.functions.values()
                 if f.provenance == "extracted-loop"]
    # one outer loop per matvec variant plus the reduction loop in main;
    # inner loops travel with their parent
    assert len(extracted) == 3
    for f in extracted:
        inner = natural_loops(f)
        assert not inner.irreducible


def test_extraction_never_deletes_work(corpus):
    for name, m, img in corpus:
        me = extract_loops(m)
        for fname, f in m.functions.items():
            new = me.functions[fname].size()
            extracted = sum(g.size() for gname, g in me.functions.items()
                            if gname.startswith(fname + "_loop"))
            assert new + extracted >= f.size()


def test_extract_preserves_corpus_semantics(corpus):
    for name, m, img in corpus:
        me = extract_loops(m)
        r1 = run_heap_image(m, img)
        r2 = run_heap_image(me, img)
        assert r1.value == r2.value
        assert r1.heap == r2.heap


# ---------------------------------------------------------------------------
# Fingerprints and ranking
# ---------------------------------------------------------------------------

def test_fingerprint_counts_sum_to_size(pair_module):
    for f in pair_module.functions.values():
        fp = fingerprint(f)
        assert fp.size == f.size()
        assert all(c > 0 for c in fp.counts.values())


def test_renamed_copy_ranks_first(pair_module):
    m = pair_module.clone()
    copy = parse_module("""
    func @helper(%c: i32, %a: i32) -> i32 { bb0: %r = sub i32 %c, %a\n ret i32 %r }
    func @sel_c(%x: i32, %y: i32, %pick: i1) -> i32 {
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
    """).functions["sel_c"]
    m.functions["sel_c"] = copy
    pairs = rank_pairs(m)
    assert pairs[0][:2] == ("sel_a", "sel_c")
    assert pairs[0][2] == 1.0


def test_disjoint_opcode_sets_score_zero():
    m = parse_module("""
    func @ints(%a: i32) -> i32 {
    bb0:
      %b = add i32 %a, 1
      %c = sub i32 %b, 2
      %d = add i32 %c, 3
      %e = sub i32 %d, 4
      ret i32 %e
    }
    func @floats(%x: f64) -> f64 {
    bb0:
      %y = fadd f64 %x, 1.0
      %z = fmul f64 %y, 2.0
      %w = fadd f64 %z, 3.0
      %v = fmul f64 %w, 4.0
      %u = fsub f64 %v, 0.5
      jmp bb1
    bb1:
      ret f64 %u
    }
    """)
    pairs = rank_pairs(m, min_similarity=-1.0)
    # ret aligns in the histogram sense, so compare against the hand count:
    # shared = min-histogram overlap = 1 (ret), max size = 7
    assert pairs[0][2] == pytest.approx(1 / 7)


def test_selector_pair_similarity_matches_hand_count(pair_module):
    f1 = fingerprint(pair_module.functions["sel_a"])
    f2 = fingerprint(pair_module.functions["sel_b"])
    shared = sum(min(f1.counts.get(op, 0), f2.counts.get(op, 0))
                 for op in OPCODES)
    expected = shared / max(f1.size, f2.size)
    pairs = rank_pairs(pair_module)
    got = [s for a, b, s in pairs if {a, b} == {"sel_a", "sel_b"}][0]
    assert got == pytest.approx(expected)


def test_small_functions_excluded(pair_module):
    # helper has 2 instructions, below the trivial-size threshold
    assert all("helper" not in (a, b) for a, b, _ in rank_pairs(pair_module))
    assert TRIVIAL_SIZE == 5


def test_rank_touches_all_pairs():
    m = parse_module("\n".join(
        f"func @f{i}(%a: i32) -> i32 {{ bb0: %b = add i32 %a, {i}\n"
        "  %c = mul i32 %b, 2\n  %d = add i32 %c, 1\n  %e = xor i32 %d, 5\n"
        "  ret i32 %e }" for i in range(7)))
    pairs = rank_pairs(m, min_similarity=0.0, min_size=0)
    assert len(pairs) == 7 * 6 // 2
    sims = [s for _, _, s in pairs]
    assert sims == sorted(sims, reverse=True)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 8), min_size=len(OPCODES), max_size=len(OPCODES)),
       st.lists(st.integers(0, 8), min_size=len(OPCODES), max_size=len(OPCODES)))
def test_similarity_symmetric_and_bounded(c1, c2):
    v = np.array([c1, c2], dtype=np.int64)
    if v[0].sum() == 0 or v[1].sum() == 0:
        return
    sim = similarity_matrix(v)
    assert sim[0, 1] == sim[1, 0]
    assert 0.0 <= sim[0, 1] <= 1.0
    # 1.0 exactly when histograms are identical (sizes then match too)
    assert (sim[0, 1] == 1.0) == bool((v[0] == v[1]).all())

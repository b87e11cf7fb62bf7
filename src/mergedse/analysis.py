"""Static analyses: call graph, dominators, natural loops, loop-to-function
extraction, and opcode fingerprints with pairwise similarity ranking. The
call graph's order, the dominators' block ranks and each loop's body come
from one depth-first search, `postorder` (from `ir`, importable here too).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .ir import (
    OPCODES, OPCODE_INDEX, SCRATCH_BASE, SCRATCH_SIZE,
    Block, Function, Instr, IRError, Lit, Module, Reg, must_assigned_at,
    postorder, validate_module,
)

log = logging.getLogger("mergedse")


# ---------------------------------------------------------------------------
# Call graph
# ---------------------------------------------------------------------------

@dataclass
class CallGraph:
    direct: dict[str, set[str]]
    transitive: dict[str, set[str]]   # C_i: direct and indirect callees
    topo_order: list[str]             # callees before callers

    def callees(self, name: str) -> set[str]:
        return self.transitive[name]


def build_call_graph(m: Module) -> CallGraph:
    direct = {name: {i.callee for i in f.instructions() if i.op == "call"}
              for name, f in m.functions.items()}
    # callees first: the postorder below a virtual root (None) whose
    # successors are the sorted names. A hand-built module, not validated,
    # may hold a cycle: a callee still open when its caller finishes
    succs = {name: sorted(cs) for name, cs in direct.items()}
    succs[None] = sorted(m.functions)
    transitive: dict[str, set[str]] = {}
    for name in postorder(None, succs.__getitem__)[:-1]:
        if not direct[name].issubset(transitive):
            raise IRError("cycle detected in call graph")
        transitive[name] = direct[name].union(*map(transitive.get, direct[name]))
    return CallGraph(direct, transitive, list(transitive))


# ---------------------------------------------------------------------------
# CFG helpers, dominators, natural loops
# ---------------------------------------------------------------------------

def _cfg(f: Function):
    labels = [b.label for b in f.blocks]
    succs = {b.label: list(b.terminator().succs) for b in f.blocks}
    preds: dict[str, list[str]] = {lab: [] for lab in labels}
    for lab in labels:
        for s in succs[lab]:
            preds[s].append(lab)
    return labels, succs, preds


def _back_edges(entry: str, succs: dict[str, list[str]],
                preds: dict[str, list[str]]) -> set[tuple[str, str]] | None:
    """The edges u -> v whose target dominates their source, or None when
    the CFG is irreducible (removing those edges leaves a cycle).

    A depth-first search from the entry ranks the blocks in postorder, and
    the iterative algorithm over reverse postorder (Cooper, Harvey &
    Kennedy, "A Simple, Fast Dominance Algorithm", 2001) gives each its
    immediate dominator. An edge u -> v retreats when v is on the search
    path at u, so rank[v] >= rank[u]. Every back edge retreats, and the CFG
    is reducible iff every retreating edge is a back edge. v dominates u iff
    u's dominator-tree path reaches v; the walk stays inside the loop's body.
    Only blocks reachable from the entry are seen (validation rejects the
    others)."""
    post = postorder(entry, succs.__getitem__)
    rank = {lab: k for k, lab in enumerate(post)}
    idom = {entry: entry}
    changed = True
    while changed:
        changed = False
        for lab in reversed(post[:-1]):
            new = None
            for a in preds[lab]:
                if a not in idom:
                    continue
                b = new if new is not None else a
                while a != b:
                    while rank[a] < rank[b]:
                        a = idom[a]
                    while rank[b] < rank[a]:
                        b = idom[b]
                new = a
            if idom.get(lab) != new:
                idom[lab] = new
                changed = True

    back: set[tuple[str, str]] = set()
    for u in post:
        for v in succs[u]:
            if rank[v] >= rank[u]:
                w = u
                while rank[w] < rank[v]:
                    w = idom[w]
                if w != v:
                    return None
                back.add((u, v))
    return back


@dataclass
class Loop:
    header: str
    blocks: set[str]
    depth: int = 1
    parent: "Loop | None" = None


@dataclass
class LoopForest:
    loops: list[Loop]
    irreducible: bool = False

    def outermost(self) -> list[Loop]:
        return [l for l in self.loops if l.parent is None]


def natural_loops(f: Function) -> LoopForest:
    """Find natural loops via back edges to dominators; flags irreducible CFGs."""
    labels, succs, preds = _cfg(f)
    back_edges = _back_edges(f.entry, succs, preds)
    if back_edges is None:
        return LoopForest([], irreducible=True)

    # loop body: header plus all nodes reaching the back edge tail without
    # passing through the header; loops sharing a header are unioned
    by_header: dict[str, set[str]] = {}
    for u, v in back_edges:
        body = postorder(u, lambda b: () if b == v else preds[b])
        by_header.setdefault(v, {v}).update(body)

    loops = [Loop(h, body) for h, body in by_header.items()]
    loops.sort(key=lambda l: labels.index(l.header))
    for l in loops:
        best = None
        for other in loops:
            if other is l or not (l.blocks < other.blocks):
                continue
            if best is None or len(other.blocks) < len(best.blocks):
                best = other
        l.parent = best
    for l in loops:
        d, p = 1, l.parent
        while p is not None:
            d += 1
            p = p.parent
        l.depth = d
    return LoopForest(loops)


# ---------------------------------------------------------------------------
# Liveness (register level, per block)
# ---------------------------------------------------------------------------

def liveness(f: Function) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
    """Backward dataflow; returns (live_in, live_out) register sets per block."""
    labels, succs, _ = _cfg(f)
    use: dict[str, set[str]] = {}
    defs: dict[str, set[str]] = {}
    for b in f.blocks:
        u, d = set(), set()
        for ins in b.instrs:
            for o in ins.operands:
                if isinstance(o, Reg) and o.name not in d:
                    u.add(o.name)
            if ins.result is not None:
                d.add(ins.result)
        use[b.label], defs[b.label] = u, d
    live_in = {lab: set() for lab in labels}
    live_out = {lab: set() for lab in labels}
    changed = True
    while changed:
        changed = False
        for b in reversed(f.blocks):
            lab = b.label
            out = set()
            for s in succs[lab]:
                out |= live_in[s]
            inn = use[lab] | (out - defs[lab])
            if out != live_out[lab] or inn != live_in[lab]:
                live_out[lab], live_in[lab] = out, inn
                changed = True
    return live_in, live_out


# ---------------------------------------------------------------------------
# Loop-to-function extraction
# ---------------------------------------------------------------------------

def _reg_order(f: Function) -> dict[str, int]:
    """Deterministic register ordering: params first, then first occurrence."""
    order: dict[str, int] = {}
    for p, _ in f.params:
        order.setdefault(p, len(order))
    for b in f.blocks:
        for ins in b.instrs:
            for o in ins.operands:
                if isinstance(o, Reg):
                    order.setdefault(o.name, len(order))
            if ins.result is not None:
                order.setdefault(ins.result, len(order))
    return order


def _extract_one(f: Function, loop: Loop, new_name: str,
                 reg_types: dict[str, str]) -> tuple[Function, Function] | None:
    """Split `loop` out of `f`; returns (rewritten f, loop function) or None."""
    live_in, _ = liveness(f)
    order = _reg_order(f)
    body_blocks = [b for b in f.blocks if b.label in loop.blocks]

    refd: set[str] = set()
    assigned: set[str] = set()
    for b in body_blocks:
        for ins in b.instrs:
            for o in ins.operands:
                if isinstance(o, Reg):
                    refd.add(o.name)
            if ins.result is not None:
                assigned.add(ins.result)

    # exit edges: (block in loop) -> (target outside loop), per target
    exit_targets: list[str] = []
    for b in body_blocks:
        for s in b.terminator().succs:
            if s not in loop.blocks and s not in exit_targets:
                exit_targets.append(s)
    if not exit_targets:
        return None  # loop never exits; leave it alone (fuel will catch it)

    live_outs = sorted({r for r in assigned
                        for t in exit_targets if r in live_in[t]},
                       key=order.__getitem__)
    # Live-outs already assigned on every path to the loop are also passed in,
    # so exit-block stores stay assign-before-use clean even when the loop
    # writes them only conditionally. Live-outs not assigned before the loop
    # are provably written on every internal path to the exits they are live
    # at (otherwise the original function would have failed validation).
    must_at_header = must_assigned_at(f)[loop.header]
    params = sorted((refd & set(live_in[loop.header]))
                    | (set(live_outs) & must_at_header),
                    key=order.__getitem__)

    multi_exit = len(exit_targets) > 1
    out_ptr = live_outs if (multi_exit and live_outs) or len(live_outs) > 1 else []
    if len(out_ptr) * 8 > SCRATCH_SIZE:
        log.warning("loop %s in @%s has %d live-outs, exceeds scratch; skipped",
                    loop.header, f.name, len(out_ptr))
        return None
    if multi_exit:
        ret_ty = "i32"        # exit index
    elif len(live_outs) == 1:
        ret_ty = reg_types[live_outs[0]]
    else:
        ret_ty = "void"

    fn_params = [(r, reg_types[r]) for r in params]
    if out_ptr:
        fn_params.append(("__out", "ptr"))

    # loop body blocks behind a fresh entry (the header has back-edge
    # predecessors, so it cannot be the entry block itself), with exiting
    # edges retargeted at synthetic exit blocks
    new_blocks: list[Block] = [Block("__entry", [Instr("jmp", succs=(loop.header,))])]
    for b in body_blocks:
        instrs = list(b.instrs)
        t = instrs[-1]
        if any(s not in loop.blocks for s in t.succs):
            succs = tuple(s if s in loop.blocks else f"__exit{exit_targets.index(s)}"
                          for s in t.succs)
            instrs[-1] = Instr(t.op, t.ty, t.result, t.operands, succs=succs,
                               callee=t.callee, pred=t.pred, cast_to=t.cast_to)
        new_blocks.append(Block(b.label, instrs))
    params_set = set(params)
    for k, t in enumerate(exit_targets):
        instrs = []
        for slot, r in enumerate(out_ptr):
            # a live-out is stored where it is live (or passed in); elsewhere
            # the call site loads a stale-but-dead slot value
            if r not in params_set and r not in live_in[t]:
                continue
            instrs.append(Instr("gep", "i64", f"__oa{slot}",
                                (Reg("__out"), Lit(slot, "i64"))))
            instrs.append(Instr("store", reg_types[r], None,
                                (Reg(r), Reg(f"__oa{slot}"))))
        if multi_exit:
            instrs.append(Instr("ret", "i32", None, (Lit(k, "i32"),)))
        elif ret_ty != "void":
            instrs.append(Instr("ret", ret_ty, None, (Reg(live_outs[0]),)))
        else:
            instrs.append(Instr("ret"))
        new_blocks.append(Block(f"__exit{k}", instrs))

    loop_fn = Function(new_name, fn_params, ret_ty, new_blocks,
                       provenance="extracted-loop")

    # call site replaces the loop: reuse the header label so inbound edges
    # (all outside edges enter through the header of a natural loop) hold
    call_instrs: list[Instr] = []
    args: list = [Reg(r) for r in params]
    if out_ptr:
        call_instrs.append(Instr("const", "ptr", "__sp",
                                 (Lit(SCRATCH_BASE, "ptr"),)))
        args.append(Reg("__sp"))
    if multi_exit:
        call_instrs.append(Instr("call", "i32", "__exitcode",
                                 tuple(args), callee=new_name))
    elif ret_ty != "void":
        call_instrs.append(Instr("call", ret_ty, live_outs[0],
                                 tuple(args), callee=new_name))
    else:
        call_instrs.append(Instr("call", "void", None, tuple(args),
                                 callee=new_name))
    for slot, r in enumerate(out_ptr):
        call_instrs.append(Instr("gep", "i64", f"__la{slot}",
                                 (Reg("__sp"), Lit(slot, "i64"))))
        call_instrs.append(Instr("load", reg_types[r], r, (Reg(f"__la{slot}"),)))

    dispatch_blocks: list[Block] = []
    if len(exit_targets) == 1:
        call_instrs.append(Instr("jmp", succs=(exit_targets[0],)))
    else:
        # compare-and-branch chain over the exit code
        for k in range(len(exit_targets) - 1):
            cmp_i = Instr("icmp", "i32", f"__is{k}",
                          (Reg("__exitcode"), Lit(k, "i32")), pred="eq")
            nxt = (exit_targets[k + 1] if k + 1 == len(exit_targets) - 1
                   else f"{loop.header}__dsp{k + 1}")
            br_i = Instr("br", "i1", None, (Reg(f"__is{k}"),),
                         succs=(exit_targets[k], nxt))
            if k == 0:
                call_instrs += [cmp_i, br_i]
            else:
                dispatch_blocks.append(Block(f"{loop.header}__dsp{k}",
                                             [cmp_i, br_i]))

    out_blocks: list[Block] = []
    for b in f.blocks:
        if b.label == loop.header:
            out_blocks.append(Block(loop.header, call_instrs))
            out_blocks.extend(dispatch_blocks)
        elif b.label not in loop.blocks:
            out_blocks.append(b)
    new_f = Function(f.name, list(f.params), f.ret, out_blocks, f.provenance)
    return new_f, loop_fn


def extract_loops(m: Module) -> Module:
    """Turn every outermost natural loop of every original function into a new
    function called in its place. Semantics are preserved exactly; irreducible
    functions are skipped with a warning."""
    out = m.clone()
    for name in list(out.functions):
        f = out.functions[name]
        if f.provenance != "original":
            continue
        forest = natural_loops(f)
        if forest.irreducible:
            log.warning("@%s has irreducible control flow; loops not extracted",
                        name)
            continue
        count = 0
        for loop in forest.outermost():
            f = out.functions[name]
            reg_types = f.register_types()
            res = _extract_one(f, loop, f"{name}_loop{count}", reg_types)
            if res is None:
                continue
            new_f, loop_fn = res
            out.functions[name] = new_f
            out.functions[loop_fn.name] = loop_fn
            count += 1
    validate_module(out)
    return out


# ---------------------------------------------------------------------------
# Fingerprints and candidate ranking
# ---------------------------------------------------------------------------

TRIVIAL_SIZE = 5  # pairs with a side smaller than this are never ranked


@dataclass
class Fingerprint:
    counts: dict[str, int]

    @property
    def size(self) -> int:
        return sum(self.counts.values())

    def vector(self) -> np.ndarray:
        v = np.zeros(len(OPCODES), dtype=np.int64)
        for op, c in self.counts.items():
            v[OPCODE_INDEX[op]] = c
        return v


def fingerprint(f: Function) -> Fingerprint:
    """Static opcode histogram of the function's own body (non-hierarchical)."""
    counts: dict[str, int] = {}
    for ins in f.instructions():
        counts[ins.op] = counts.get(ins.op, 0) + 1
    return Fingerprint(counts)


def similarity_matrix(vectors: np.ndarray) -> np.ndarray:
    """Pairwise min-histogram similarity for rows of an (n, |opcodes|) matrix.

    similarity(i, j) = sum_op min(c_i, c_j) / max(size_i, size_j), in [0, 1].
    Chunked so 3000-function instances stay within memory.
    """
    n = vectors.shape[0]
    sizes = vectors.sum(axis=1)
    sim = np.zeros((n, n), dtype=np.float64)
    step = max(1, int(64 * 1024 * 1024 / max(1, n * vectors.shape[1] * 8)))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        shared = np.minimum(vectors[lo:hi, None, :], vectors[None, :, :]).sum(axis=2)
        denom = np.maximum(sizes[lo:hi, None], sizes[None, :])
        denom = np.maximum(denom, 1)
        sim[lo:hi] = shared / denom
    return sim


def rank_pair_indices(vectors: np.ndarray,
                      min_similarity: float = 0.0,
                      min_size: int = TRIVIAL_SIZE
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank all i<j pairs by similarity, descending; ties by index pair.

    Returns (i_idx, j_idx, sims) arrays sorted into rank order. Rows must be
    pre-sorted however lexicographic tie-breaking is desired.
    """
    sim = similarity_matrix(vectors)
    sizes = vectors.sum(axis=1)
    iu, ju = np.triu_indices(vectors.shape[0], k=1)
    s = sim[iu, ju]
    keep = (s >= min_similarity) & (sizes[iu] >= min_size) & (sizes[ju] >= min_size)
    iu, ju, s = iu[keep], ju[keep], s[keep]
    order = np.lexsort((ju, iu, -s))
    return iu[order], ju[order], s[order]


def rank_pairs(m: Module, min_similarity: float = 0.0,
               min_size: int = TRIVIAL_SIZE
               ) -> list[tuple[str, str, float]]:
    """All candidate pairs (f_i, f_j, similarity) in descending rank order."""
    names = sorted(m.functions)
    if len(names) < 2:
        return []
    vectors = np.stack([fingerprint(m.functions[n]).vector() for n in names])
    iu, ju, s = rank_pair_indices(vectors, min_similarity, min_size)
    return [(names[i], names[j], float(v)) for i, j, v in zip(iu, ju, s)]

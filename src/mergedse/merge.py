"""Function merging: linearization, weighted sequence alignment, parameter
merging, merged-body code generation with f_sel multiplexing, and random-input
differential verification.

The merged function interleaves both parents' linearized instruction streams.
Aligned instruction pairs are emitted once, with `select f_sel, ...` muxes on
any operands that differ; unaligned runs become blocks only one selector value
can reach. Under f_sel=1 control flow threads exactly through the first
parent's instructions (gap blocks of the other side are branched around), and
symmetrically for f_sel=0, so equivalence holds by construction for any pair
of control-flow graphs; the differential verifier enforces it.
"""

from __future__ import annotations

import codecs
import logging
import random
import struct
from dataclasses import dataclass, field
from math import factorial

from .analysis import natural_loops
from .ir import (  # `interpret` stays bound here: perfbench/spans.py times it
    OPCODES, REGION_BASE, Arena, Block, Function, Instr, InterpError, IRError,
    Lit, Module, Program, Reg, check_function, interpret, operand_slot_types,
    unassigned_uses, zero_literal,
)
from .ir.interp import _Machine

log = logging.getLogger("mergedse")

# Opcodes whose alignment matters most for accelerator area; matches get a
# heavier score so the aligner prefers reusing them.
HEAVY_OPS = ("call", "load", "store", "mul", "sdiv", "srem", "fmul", "fdiv")
DEFAULT_MATCH_WEIGHT = 1.0
HEAVY_MATCH_WEIGHT = 4.0
DEFAULT_GAP_PENALTY = 0.1

MIN_ALIGNED_FRACTION = 0.05  # pairs aligning less than this are rejected
DEFAULT_SEEDS = 4
DEFAULT_TRIALS = 200


class MergeRejected(IRError):
    """The pair cannot (or should not) be merged; carries the reason."""


def default_weights() -> dict[str, float]:
    return {op: HEAVY_MATCH_WEIGHT if op in HEAVY_OPS else DEFAULT_MATCH_WEIGHT
            for op in OPCODES}


# ---------------------------------------------------------------------------
# Linearization
# ---------------------------------------------------------------------------

@dataclass
class Linearization:
    order: list[str]
    instrs: list[Instr]
    first_pos: dict[str, int]


def _perm_at(items: list, k: int) -> list:
    """k-th permutation of items in lexicographic index order (0 = identity)."""
    items = list(items)
    out = []
    while items:
        f = factorial(len(items) - 1)
        out.append(items.pop(k // f))
        k %= f
    return out


def linearize(f: Function, seed: int = 0) -> Linearization:
    """Reverse-post-order variant of f sampled by `seed`.

    Block instructions stay contiguous and in order; the successor visit
    order at each branch is drawn from the seed, so different seeds explore
    different topological layouts. Seed 0 reproduces source order.
    """
    state = seed
    visited: set[str] = set()
    post: list[str] = []

    def walk(label: str):
        nonlocal state
        visited.add(label)
        succs = []
        for s in f.successors(label):
            if s not in succs:
                succs.append(s)
        if len(succs) > 1:
            nperm = factorial(len(succs))
            succs = _perm_at(succs, state % nperm)
            state //= nperm
        for s in reversed(succs):
            if s not in visited:
                walk(s)
        post.append(label)

    walk(f.entry)
    order = list(reversed(post))
    instrs: list[Instr] = []
    first_pos: dict[str, int] = {}
    for lab in order:
        first_pos[lab] = len(instrs)
        instrs.extend(f.block(lab).instrs)
    return Linearization(order, instrs, first_pos)


def seed_pairs(n: int):
    """First n (seed1, seed2) combinations, growing both sides evenly."""
    out = []
    m = 0
    while len(out) < n:
        for s2 in range(m + 1):
            out.append((m, s2))
        for s1 in range(m):
            out.append((s1, m))
        m += 1
    return out[:n]


# ---------------------------------------------------------------------------
# Needleman-Wunsch alignment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlignEntry:
    kind: str            # "aligned" | "gap1" | "gap2"
    i1: int | None = None  # index in sequence 1 (aligned / gap2)
    i2: int | None = None  # index in sequence 2 (aligned / gap1)


@dataclass
class Alignment:
    entries: list[AlignEntry]
    score: float
    len1: int
    len2: int

    @property
    def aligned_count(self) -> int:
        return sum(1 for e in self.entries if e.kind == "aligned")

    @property
    def aligned_fraction(self) -> float:
        return 2.0 * self.aligned_count / (self.len1 + self.len2)


def _compatible(a: Instr, b: Instr, rt1: dict[str, str], rt2: dict[str, str]) -> bool:
    if (a.op != b.op or a.ty != b.ty or a.cast_to != b.cast_to
            or a.pred != b.pred):
        return False
    if a.op == "call" and a.callee != b.callee:
        return False
    if a.op == "gep":
        # the merged gep is emitted once, so index widths must agree;
        # unknown register widths (no type context) never match
        ia, ib = a.operands[1], b.operands[1]
        ta = ia.ty if isinstance(ia, Lit) else rt1.get(ia.name, "?1")
        tb = ib.ty if isinstance(ib, Lit) else rt2.get(ib.name, "?2")
        if ta != tb:
            return False
    return True


def align(s1: list[Instr], s2: list[Instr],
          weights: dict[str, float] | None = None,
          gap: float = DEFAULT_GAP_PENALTY,
          rt1: dict[str, str] | None = None,
          rt2: dict[str, str] | None = None) -> Alignment:
    """Global alignment maximizing match weights minus gap penalties.

    Only compatible instructions (equal opcode/type/callee/predicate) may
    align; incompatible pairs are effectively scored minus infinity.
    """
    if not s1 or not s2:
        raise IRError("cannot align empty sequences")
    weights = weights or default_weights()
    rt1 = rt1 or {}
    rt2 = rt2 or {}
    n1, n2 = len(s1), len(s2)
    NEG = float("-inf")

    score = [[0.0] * (n2 + 1) for _ in range(n1 + 1)]
    move = [[0] * (n2 + 1) for _ in range(n1 + 1)]  # 1=diag 2=up(gap2) 3=left(gap1)
    for i in range(1, n1 + 1):
        score[i][0] = -gap * i
        move[i][0] = 2
    for j in range(1, n2 + 1):
        score[0][j] = -gap * j
        move[0][j] = 3
    for i in range(1, n1 + 1):
        a = s1[i - 1]
        row, prow = score[i], score[i - 1]
        mrow = move[i]
        for j in range(1, n2 + 1):
            b = s2[j - 1]
            best = prow[j] - gap
            mv = 2
            left = row[j - 1] - gap
            if left > best:
                best, mv = left, 3
            if _compatible(a, b, rt1, rt2):
                d = prow[j - 1] + weights.get(a.op, DEFAULT_MATCH_WEIGHT)
                if d >= best:
                    best, mv = d, 1
            row[j] = best if best != NEG else NEG
            mrow[j] = mv

    entries: list[AlignEntry] = []
    i, j = n1, n2
    while i > 0 or j > 0:
        mv = move[i][j]
        if mv == 1:
            entries.append(AlignEntry("aligned", i - 1, j - 1))
            i, j = i - 1, j - 1
        elif mv == 2:
            entries.append(AlignEntry("gap2", i1=i - 1))
            i -= 1
        else:
            entries.append(AlignEntry("gap1", i2=j - 1))
            j -= 1
    entries.reverse()
    return Alignment(entries, score[n1][n2], n1, n2)


# ---------------------------------------------------------------------------
# Parameter merging
# ---------------------------------------------------------------------------

@dataclass
class ParamMap:
    matched: list[tuple[int, int]]
    unmatched1: list[int]
    unmatched2: list[int]


def merge_parameters(f1: Function, f2: Function) -> ParamMap:
    """Greedy by-type matching in declaration order: each parameter of the
    first function takes the first same-typed, not-yet-passed parameter of
    the second; searching resumes after the previous match."""
    matched: list[tuple[int, int]] = []
    unmatched1: list[int] = []
    taken: set[int] = set()
    j = 0
    for i, (_, ty) in enumerate(f1.params):
        k = next((k for k in range(j, len(f2.params)) if f2.params[k][1] == ty),
                 None)
        if k is None:
            unmatched1.append(i)
        else:
            matched.append((i, k))
            taken.add(k)
            j = k + 1
    unmatched2 = [k for k in range(len(f2.params)) if k not in taken]
    return ParamMap(matched, unmatched1, unmatched2)


# ---------------------------------------------------------------------------
# Merged-body code generation
# ---------------------------------------------------------------------------

@dataclass
class MergedFunction:
    function: Function
    parents: tuple[str, str]
    alignment: Alignment
    parent_instrs: int = 0
    glue: int = 0
    mux_selects: int = 0
    # positional plan for building call arguments: ("m", i1, i2) matched,
    # ("1", i1, -1) from parent 1 only, ("2", -1, i2) from parent 2 only;
    # f_sel is always the trailing parameter.
    arg_plan: list[tuple[str, int, int]] = field(default_factory=list)

    def args_for(self, side: int, parent_args: list) -> list:
        """Merged-call arguments equivalent to calling parent `side` (1 or 2)
        with `parent_args`; inactive-side parameters get neutral literals."""
        out = []
        for (kind, i1, i2), (_, ty) in zip(self.arg_plan, self.function.params):
            if kind == "m":
                out.append(parent_args[i1 if side == 1 else i2])
            elif kind == "1":
                out.append(parent_args[i1] if side == 1 else zero_literal(ty).value)
            else:
                out.append(parent_args[i2] if side == 2 else zero_literal(ty).value)
        out.append(1 if side == 1 else 0)
        return out


class _Namer:
    def __init__(self):
        self.used: set[str] = set()

    def fresh(self, want: str) -> str:
        name = want
        k = 2
        while name in self.used:
            name = f"{want}.{k}"
            k += 1
        self.used.add(name)
        return name


def merge_functions(m: Module, name1: str, name2: str,
                    seeds: int = DEFAULT_SEEDS) -> MergedFunction:
    """Generate the merged function @m.<name1>.<name2> for (name1, name2) in
    module m, from the best alignment over `seeds` linearization seed
    combinations (`best_alignment`) and greedy by-type parameter matching
    (`merge_parameters`). Raises MergeRejected when the pair is filtered:
    aligned fraction below MIN_ALIGNED_FRACTION, mismatched return types,
    irreducible control flow, or a merged body that fails validation.
    """
    f1, f2 = m.function(name1), m.function(name2)
    if f1.ret != f2.ret:
        raise MergeRejected(f"@{name1} returns {f1.ret} but @{name2} returns {f2.ret}")
    if natural_loops(f1).irreducible or natural_loops(f2).irreducible:
        raise MergeRejected("irreducible control flow")

    alignment, lin1, lin2 = best_alignment(m, name1, name2, seeds)
    param_map = merge_parameters(f1, f2)
    if alignment.aligned_fraction < MIN_ALIGNED_FRACTION:
        raise MergeRejected(
            f"aligned fraction {alignment.aligned_fraction:.3f} below "
            f"{MIN_ALIGNED_FRACTION:.2f}")

    rt1, rt2 = f1.register_types(), f2.register_types()
    namer = _Namer()

    # --- parameters and rename maps -------------------------------------
    rename1: dict[str, str] = {}
    rename2: dict[str, str] = {}
    partner1: dict[str, str] = {}
    partner2: dict[str, str] = {}
    params: list[tuple[str, str]] = []
    arg_plan: list[tuple[str, int, int]] = []
    for i, j in param_map.matched:
        p1, ty = f1.params[i]
        p2 = f2.params[j][0]
        name = namer.fresh(p1)
        rename1[p1] = name
        rename2[p2] = name
        partner1[p1] = p2
        partner2[p2] = p1
        params.append((name, ty))
        arg_plan.append(("m", i, j))
    for i in param_map.unmatched1:
        p1, ty = f1.params[i]
        name = namer.fresh(p1)
        rename1[p1] = name
        params.append((name, ty))
        arg_plan.append(("1", i, -1))
    for j in param_map.unmatched2:
        p2, ty = f2.params[j]
        name = namer.fresh(p2)
        rename2[p2] = name
        params.append((name, ty))
        arg_plan.append(("2", -1, j))
    fsel = namer.fresh("f_sel")
    params.append((fsel, "i1"))

    def name1_of(r: str) -> str:
        n = rename1.get(r)
        if n is None:
            n = namer.fresh("a." + r)
            rename1[r] = n
        return n

    def name2_of(r: str) -> str:
        n = rename2.get(r)
        if n is None:
            n = namer.fresh("b." + r)
            rename2[r] = n
        return n

    # --- result coalescing for aligned pairs ----------------------------
    s1, s2 = lin1.instrs, lin2.instrs
    needs_copy: set[int] = set()
    for w, e in enumerate(alignment.entries):
        if e.kind != "aligned":
            continue
        r1, r2 = s1[e.i1].result, s2[e.i2].result
        if r1 is None:
            continue
        if partner1.get(r1) == r2 and partner2.get(r2) == r1:
            name2_of_r2 = rename2.get(r2)
            if name2_of_r2 is None:
                rename2[r2] = name1_of(r1)
            continue
        if r1 not in partner1 and r2 not in partner2:
            n1, n2 = rename1.get(r1), rename2.get(r2)
            if n1 is None and n2 is None:
                rename2[r2] = name1_of(r1)
            elif n1 is None:
                rename1[r1] = n2
            elif n2 is None:
                rename2[r2] = n1
            else:
                needs_copy.add(w)
                continue
            partner1[r1] = r2
            partner2[r2] = r1
        else:
            needs_copy.add(w)

    # --- weave geometry ---------------------------------------------------
    entries = alignment.entries
    nw = len(entries)
    pos1: dict[int, int] = {}
    pos2: dict[int, int] = {}
    for w, e in enumerate(entries):
        if e.i1 is not None:
            pos1[e.i1] = w
        if e.i2 is not None:
            pos2[e.i2] = w
    lab1 = {lab: pos1[idx] for lab, idx in lin1.first_pos.items()}
    lab2 = {lab: pos2[idx] for lab, idx in lin2.first_pos.items()}

    boundaries = {0} | set(lab1.values()) | set(lab2.values())
    for w, e in enumerate(entries):
        ins = s1[e.i1] if e.i1 is not None else s2[e.i2]
        if ins.is_terminator() and w + 1 < nw:
            boundaries.add(w + 1)
        if w + 1 < nw and entries[w + 1].kind != e.kind:
            boundaries.add(w + 1)

    block_label = {w: f"m{k}" for k, w in enumerate(sorted(boundaries))}
    for lbl in block_label.values():
        namer.used.add(lbl)

    def next_involving(w: int, side: int) -> int | None:
        for k in range(w, nw):
            e = entries[k]
            if side == 1 and e.i1 is not None:
                return k
            if side == 2 and e.i2 is not None:
                return k
        return None

    def target1(label: str) -> str:
        return block_label[lab1[label]]

    def target2(label: str) -> str:
        return block_label[lab2[label]]

    # --- emission ---------------------------------------------------------
    blocks: list[Block] = []
    cur: list[Instr] = []
    stats = {"parent": 0, "glue": 0, "mux": 0}
    routers: dict[tuple[str, str], str] = {}
    router_blocks: list[Block] = []

    def open_block(label: str):
        nonlocal cur
        cur = []
        blocks.append(Block(label, cur))

    def close_fallthrough(w: int):
        """Route the open block's fallthrough to weave position w."""
        n1, n2 = next_involving(w, 1), next_involving(w, 2)
        assert n1 is not None or n2 is not None, "fallthrough off the weave"
        if n1 is not None and n2 is not None and n1 != n2:
            cur.append(Instr("br", "i1", None, (Reg(fsel),),
                             succs=(block_label[n1], block_label[n2])))
        else:
            n = n1 if n1 is not None else n2
            cur.append(Instr("jmp", succs=(block_label[n],)))
        stats["glue"] += 1

    def router(t1: str, t2: str) -> str:
        """Label reaching t1 under f_sel=1 and t2 under f_sel=0."""
        if t1 == t2:
            return t1
        key = (t1, t2)
        lbl = routers.get(key)
        if lbl is None:
            lbl = namer.fresh(f"r{len(routers)}")
            routers[key] = lbl
            router_blocks.append(Block(lbl, [
                Instr("br", "i1", None, (Reg(fsel),), succs=(t1, t2))]))
            stats["glue"] += 1
        return lbl

    def emit_mux(slot_ty: str, o1, o2) -> Reg:
        res = namer.fresh("sel")
        cur.append(Instr("select", slot_ty, res, (Reg(fsel), o1, o2)))
        stats["glue"] += 1
        stats["mux"] += 1
        return Reg(res)

    callee_params = {name: fn.params for name, fn in m.functions.items()}

    for w, e in enumerate(entries):
        if w in block_label:
            if blocks and not (cur and cur[-1].is_terminator()):
                close_fallthrough(w)
            open_block(block_label[w])
        if e.kind == "gap2":
            ins = s1[e.i1]
            ops = tuple(_map_side(o, name1_of) for o in ins.operands)
            succs = tuple(target1(t) for t in ins.succs)
            cur.append(Instr(ins.op, ins.ty,
                             name1_of(ins.result) if ins.result else None,
                             ops, succs=succs, callee=ins.callee,
                             pred=ins.pred, cast_to=ins.cast_to))
            stats["parent"] += 1
        elif e.kind == "gap1":
            ins = s2[e.i2]
            ops = tuple(_map_side(o, name2_of) for o in ins.operands)
            succs = tuple(target2(t) for t in ins.succs)
            cur.append(Instr(ins.op, ins.ty,
                             name2_of(ins.result) if ins.result else None,
                             ops, succs=succs, callee=ins.callee,
                             pred=ins.pred, cast_to=ins.cast_to))
            stats["parent"] += 1
        else:
            a, b = s1[e.i1], s2[e.i2]
            slots = operand_slot_types(a, rt1, callee_params.get(a.callee))
            ops = []
            for o1, o2, slot_ty in zip(a.operands, b.operands, slots):
                m1 = _map_side(o1, name1_of)
                m2 = _map_side(o2, name2_of)
                ops.append(m1 if m1 == m2 else emit_mux(slot_ty, m1, m2))
            if a.op == "br":
                tthen = router(target1(a.succs[0]), target2(b.succs[0]))
                telse = router(target1(a.succs[1]), target2(b.succs[1]))
                cur.append(Instr("br", "i1", None, (ops[0],),
                                 succs=(tthen, telse)))
            elif a.op == "jmp":
                t1, t2 = target1(a.succs[0]), target2(b.succs[0])
                if t1 == t2:
                    cur.append(Instr("jmp", succs=(t1,)))
                else:
                    cur.append(Instr("br", "i1", None, (Reg(fsel),),
                                     succs=(t1, t2)))
            else:
                if a.result is not None and w in needs_copy:
                    # the pair's results could not be coalesced; route the
                    # value through selects that leave the inactive side's
                    # register untouched (it may be shared with live state
                    # of the other parent)
                    m1 = name1_of(a.result)
                    m2 = name2_of(b.result)
                    rty = a.result_type()
                    if partner1.get(a.result) is not None:
                        # m1 is shared with a different side-2 register, so
                        # even the primary write must be conditional
                        t = namer.fresh("t")
                        cur.append(Instr(a.op, a.ty, t, tuple(ops),
                                         callee=a.callee, pred=a.pred,
                                         cast_to=a.cast_to))
                        cur.append(Instr("select", rty, m1,
                                         (Reg(fsel), Reg(t), Reg(m1))))
                        cur.append(Instr("select", rty, m2,
                                         (Reg(fsel), Reg(m2), Reg(t))))
                        stats["glue"] += 2
                    else:
                        cur.append(Instr(a.op, a.ty, m1, tuple(ops),
                                         callee=a.callee, pred=a.pred,
                                         cast_to=a.cast_to))
                        cur.append(Instr("select", rty, m2,
                                         (Reg(fsel), Reg(m2), Reg(m1))))
                        stats["glue"] += 1
                else:
                    res = name1_of(a.result) if a.result else None
                    cur.append(Instr(a.op, a.ty, res, tuple(ops),
                                     callee=a.callee, pred=a.pred,
                                     cast_to=a.cast_to))
            stats["parent"] += 1

    blocks.extend(router_blocks)

    # --- entry block --------------------------------------------------------
    e1w, e2w = lab1[f1.entry], lab2[f2.entry]
    if not (e1w == 0 and e2w == 0):
        elbl = namer.fresh("entry")
        t1, t2 = block_label[e1w], block_label[e2w]
        if t1 == t2:
            ein = Instr("jmp", succs=(t1,))
        else:
            ein = Instr("br", "i1", None, (Reg(fsel),), succs=(t1, t2))
        blocks.insert(0, Block(elbl, [ein]))
        stats["glue"] += 1

    merged = Function(f"m.{name1}.{name2}", params, f1.ret, blocks,
                      provenance="merged")

    # --- neutral initializers ----------------------------------------------
    # Mux selects read both sides' registers eagerly, and mixed-f_sel paths
    # the dataflow considers (but execution never takes) can reach a side's
    # register before that side assigned it; dead zero-initializers at entry
    # make the body assign-before-use clean without changing behavior.
    needed = {r for _, r in unassigned_uses(merged)}
    if needed:
        reg_types = merged.register_types()
        inits = [Instr("const", reg_types[r], r, (zero_literal(reg_types[r]),))
                 for r in sorted(needed) if r in reg_types]
        merged.blocks[0].instrs[0:0] = inits
        stats["glue"] += len(inits)

    mf = MergedFunction(merged, (name1, name2), alignment,
                        parent_instrs=stats["parent"], glue=stats["glue"],
                        mux_selects=stats["mux"], arg_plan=arg_plan)

    # only the new body needs checking: its callees are the parents' callees,
    # so under a fresh name it cannot close a call cycle
    diags: list[str] = []
    check_function(merged, m, diags)
    if diags:
        raise MergeRejected("merged body failed validation: " + "; ".join(diags))
    return mf


def _map_side(o, namer_fn):
    if isinstance(o, Reg):
        return Reg(namer_fn(o.name))
    return o


def best_alignment(m: Module, name1: str, name2: str,
                   seeds: int = DEFAULT_SEEDS
                   ) -> tuple[Alignment, Linearization, Linearization]:
    """Best-scoring alignment over `seeds` linearization seed combinations."""
    if seeds < 1:
        raise IRError(f"seeds must be at least 1, got {seeds}")
    f1, f2 = m.function(name1), m.function(name2)
    rt1, rt2 = f1.register_types(), f2.register_types()
    best = None
    for s1, s2 in seed_pairs(seeds):
        lin1, lin2 = linearize(f1, s1), linearize(f2, s2)
        a = align(lin1.instrs, lin2.instrs, rt1=rt1, rt2=rt2)
        if best is None or a.score > best[0].score:
            best = (a, lin1, lin2)
    return best


# ---------------------------------------------------------------------------
# Differential verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialPlan:
    scalars: tuple
    regions: tuple[bytes, ...]


def _random_bytes(rng: random.Random, n: int) -> bytes:
    """n bytes drawn as rng.randrange(256) draws each: the top 9 bits of a
    32-bit output, redrawn while >= 256. Outputs come in rounds of as many
    as bytes are missing, so the stream and the final rng state match."""
    lanes = int.from_bytes(b"\xff\x01\0\0" * n, "little")   # 9 bits a word
    out = b""
    while len(out) < n:
        k = n - len(out)   # getrandbits puts the first output lowest
        top9 = (rng.getrandbits(32 * k) >> 23) & lanes
        points = codecs.utf_32_le_decode(top9.to_bytes(4 * k, "little"))[0]
        out += points.encode("latin-1", "ignore")   # drops those >= 256
    return out


def _plan_trial(params: list[tuple[str, str]], rng: random.Random,
                region_size: int = 64) -> TrialPlan:
    scalars = []
    regions = []
    for _, ty in params:
        if ty == "ptr":
            regions.append(_random_bytes(rng, region_size))
            scalars.append(None)
        elif ty == "i1":
            scalars.append(rng.randrange(2))
        elif ty == "i64":
            scalars.append(rng.randrange(0, 9))
        elif ty == "i32":
            scalars.append(rng.randrange(-64, 65))
        else:
            scalars.append(round(rng.uniform(-8.0, 8.0), 3))
    return TrialPlan(tuple(scalars), tuple(regions))


def _trial_plans(memo: dict, seed: int, trials: int,
                 params1: list[tuple[str, str]],
                 params2: list[tuple[str, str]]) -> list[list]:
    """Both sides' trials as (plan id, heap template, arguments) lists,
    drawn once per memo and pair of parameter-type signatures: side 2's
    draws continue side 1's stream. Plans with equal content (floats by bit
    pattern, so -0.0 and 0.0 differ) share an id."""
    key = (seed, trials) + tuple(tuple(ty for _, ty in ps)
                                 for ps in (params1, params2))
    if key not in memo:
        rng, ids = random.Random(seed), memo.setdefault("plan ids", {})
        sides = [[(_plan_trial(ps, rng), ps) for _ in range(trials)]
                 for ps in (params1, params2)]
        memo[key] = [[(ids.setdefault((tuple(map(_canon, p.scalars)),
                                       p.regions), len(ids)), *_layout(p, ps))
                      for p, ps in side] for side in sides]
    return memo[key]


def _layout(plan: TrialPlan, params: list[tuple[str, str]]):
    """The plan's heap template and arguments (a ptr gets its region's)."""
    arena, regions = Arena(), iter(plan.regions)
    args = [arena.add_region(f"rg{k}", next(regions)) if ty == "ptr" else s
            for k, ((_, ty), s) in enumerate(zip(params, plan.scalars))]
    return bytes(arena.data), args


def _run(mach: _Machine, fname: str, template: bytes, args: list, fuel: int):
    heap = bytearray(template)
    try:
        value = mach.run(fname, args, heap, fuel)
    except InterpError as e:
        return ("error:" + e.kind, None, None)
    return ("ok", _canon(value), bytes(heap[REGION_BASE:]))


def _canon(v):
    if isinstance(v, float):
        return struct.pack("<d", v)
    return v


@dataclass
class VerifyReport:
    parents: tuple[str, str]
    merged: str
    trials: int
    passed: bool
    counterexample: tuple[int, list] | None = None   # (f_sel, parent args)
    detail: str = ""


def verify_merge(m: Module, name1: str, name2: str, merged: MergedFunction,
                 trials: int = DEFAULT_TRIALS, seed: int = 0,
                 fuel: int = 10 ** 6, memo: dict | None = None) -> VerifyReport:
    """Differential random-input check: merged ≡ parent on each f_sel side.

    Values must be bit-equal (f64 compared by bit pattern) and the observable
    heap images identical; a matching error kind on both sides also counts as
    agreement. The first counterexample is reported; trials < 1 is an IRError.

    The trials of a call run as one batch on one _Machine (the run path of
    `interpret`, without its argument checks: plans are well-typed), which
    keeps its calling contexts; each run starts from a copy of its plan's
    heap template. `memo` holds the trials of each pair of parameter-type
    signatures (plan id, heap template, arguments), maps (parent, fuel,
    plan id) to the parent's outcome and keeps one Program: each module
    function is decoded once for all calls sharing the memo and compiled
    (the hot tier) once it has run HOT_MULTIPLE times its size there; the
    candidate is decoded once per call and dropped. No outcome depends on
    the tier. Callers may share a memo while the module only gains functions
    under fresh names. Runs record no footprints: only value and heap count.
    """
    if trials < 1:
        raise IRError(f"trials must be at least 1, got {trials}")
    mname = merged.function.name
    memo = {} if memo is None else memo
    prog = memo.setdefault("program", Program(m, footprints=False))
    prog.module = mm = m if mname in m.functions else Module(
        {**m.functions, mname: merged.function}, m.entry)
    plans = _trial_plans(memo, seed, trials, mm.function(name1).params,
                         mm.function(name2).params)
    mach = _Machine(prog)
    try:
        for side, pname, side_plans in zip((1, 2), (name1, name2), plans):
            for pid, image, args_p in side_plans:
                key = (pname, fuel, pid)
                out_p = memo.get(key)
                if out_p is None:
                    out_p = memo[key] = _run(mach, pname, image, args_p, fuel)
                out_m = _run(mach, mname, image,
                             merged.args_for(side, args_p), fuel)
                if out_p != out_m:
                    return VerifyReport(
                        (name1, name2), mname, trials, False,
                        counterexample=(1 if side == 1 else 0, list(args_p)),
                        detail=f"parent {out_p[0]} value/heap differs from "
                               f"merged {out_m[0]}")
    finally:
        prog.module = m
        prog.decoded.pop(mname, None)
    return VerifyReport((name1, name2), mname, trials, True)

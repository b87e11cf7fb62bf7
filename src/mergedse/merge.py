"""Function merging: linearization, weighted sequence alignment, parameter
merging, merged-body code generation with f_sel multiplexing, and
verification by weave walk.

The merged function interleaves both parents' linearized instruction streams.
Aligned instruction pairs are emitted once, with `select f_sel, ...` muxes on
any operands that differ; unaligned runs become blocks only one selector value
can reach. Under f_sel=1 control flow threads exactly through the first
parent's instructions (gap blocks of the other side are branched around), and
symmetrically for f_sel=0, so equivalence holds by construction for any pair
of control-flow graphs.

Verification proves it per side, and runs nothing: `verify_merge` takes
the merged function alone, whose `parents` name the functions it walks
against. The weave walk proves a side: with f_sel fixed, the merged body
must run exactly the parent's instructions in order, on the same values,
with only glue between them: `select %f_sel`, `br %f_sel`, `jmp` and the
zero initializers at the entry. A merge passes only if both sides are
proved. Random-input differential runs are the tests' oracle for the walk,
not a second way to pass.
"""

from __future__ import annotations

import logging
import struct
from bisect import bisect_left
from dataclasses import dataclass, field
from math import factorial
from typing import NamedTuple

from .analysis import natural_loops
from .ir import (  # `interpret` stays bound here: perfbench/spans.py times it
    OPCODES, Block, Function, Instr, IRError, Lit, Module, Reg,
    check_function, interpret, operand_slot_types, postorder,
    unassigned_uses, zero_literal,
)

log = logging.getLogger("mergedse")

# Opcodes whose alignment matters most for accelerator area; matches get a
# heavier score so the aligner prefers reusing them.
HEAVY_OPS = ("call", "load", "store", "mul", "sdiv", "srem", "fmul", "fdiv")
DEFAULT_MATCH_WEIGHT = 1.0
HEAVY_MATCH_WEIGHT = 4.0
DEFAULT_GAP_PENALTY = 0.1

MIN_ALIGNED_FRACTION = 0.05  # pairs aligning less than this are rejected
MAX_ALIGN_CELLS = 1 << 26   # 64 MiB of moves: two 8,000-instruction sides
DEFAULT_SEEDS = 4


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
    different topological layouts. Seed 0 reproduces source order. A block
    draws its successor order when the depth-first search first reaches it.
    """
    state, blocks = seed, {b.label: b for b in f.blocks}

    def succs_of(label: str) -> list[str]:
        nonlocal state
        succs = list(dict.fromkeys(blocks[label].terminator().succs))
        if len(succs) > 1:
            nperm = factorial(len(succs))
            succs = _perm_at(succs, state % nperm)
            state //= nperm
        return succs[::-1]

    order = postorder(f.entry, succs_of)[::-1]
    instrs: list[Instr] = []
    first_pos: dict[str, int] = {}
    for lab in order:
        first_pos[lab] = len(instrs)
        instrs.extend(blocks[lab].instrs)
    return Linearization(order, instrs, first_pos)


def _fact(memo: dict | None, f: Function, key, compute):
    """compute(), a fact of `f` (an analysis: its loop forest, register
    types, a linearization or its must-assign check), kept in the facts
    table `memo` under f's name and `key`: it is computed on first use and
    again once another Function object holds f's name; afresh without one."""
    if memo is None:
        return compute()
    held = memo.get(f.name)
    if held is None or held[0] is not f:
        held = memo[f.name] = (f, {})
    if key not in held[1]:
        held[1][key] = compute()
    return held[1][key]


def seed_pairs(n: int):
    """First n (seed1, seed2) combinations, growing both sides evenly."""
    out, m = [], 0
    while len(out) < n:
        out += [(m, s2) for s2 in range(m + 1)] + [(s1, m) for s1 in range(m)]
        m += 1
    return out[:n]


# ---------------------------------------------------------------------------
# Needleman-Wunsch alignment
# ---------------------------------------------------------------------------

class AlignEntry(NamedTuple):
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


def _align_key(ins: Instr, types: dict[str, str], unknown: str) -> tuple:
    """What two instructions must share to align: opcode, type, cast and
    predicate, the callee of a call, and the index width of a gep, since the
    merged gep is emitted once. An index register of unknown width (no type
    context) takes `unknown`, a mark of its own side, so it never matches."""
    key = (ins.op, ins.ty, ins.cast_to, ins.pred)
    if ins.op == "call":
        return key + (ins.callee,)
    if ins.op == "gep":
        ix = ins.operands[1]
        return key + (ix.ty if isinstance(ix, Lit) else types.get(ix.name, unknown),)
    return key


def align(s1: list[Instr], s2: list[Instr],
          weights: dict[str, float] | None = None,
          gap: float = DEFAULT_GAP_PENALTY,
          rt1: dict[str, str] | None = None,
          rt2: dict[str, str] | None = None) -> Alignment:
    """Global alignment maximizing match weights minus gap penalties.

    Only compatible instructions (equal `_align_key`) may align;
    incompatible pairs are effectively scored minus infinity. Without
    `weights`, a match scores as `default_weights()` gives; among equal
    scores a match beats a gap in s2, which beats a gap in s1. Keys are
    interned to ints, the scores kept in two rows and the moves in one byte
    per cell: above MAX_ALIGN_CELLS cells the pair is rejected.
    """
    if not s1 or not s2:
        raise IRError("cannot align empty sequences")
    rt1, rt2 = rt1 or {}, rt2 or {}
    n1, n2 = len(s1), len(s2)
    width = n2 + 1
    if (n1 + 1) * width > MAX_ALIGN_CELLS:
        raise MergeRejected(f"alignment needs {(n1 + 1) * width} cells, "
                            f"above the limit of {MAX_ALIGN_CELLS}")
    ids: dict[tuple, int] = {}
    keys2 = [ids.setdefault(_align_key(b, rt2, "?2"), len(ids)) for b in s2]
    move = bytearray((n1 + 1) * width)   # 1=diag 2=up(gap2) 3=left(gap1)
    move[:width] = b"\3" * width
    prow = [0.0] + [-gap * j for j in range(1, width)]
    for i, a in enumerate(s1, 1):
        key = ids.get(_align_key(a, rt1, "?1"), -1)
        weight = (weights.get(a.op, DEFAULT_MATCH_WEIGHT) if weights else
                  HEAVY_MATCH_WEIGHT if a.op in HEAVY_OPS else
                  DEFAULT_MATCH_WEIGHT)
        left = -gap * i
        row, at = [left], i * width
        move[at] = 2
        for j, k2 in enumerate(keys2, 1):
            best = prow[j] - gap
            mv = 2
            left -= gap
            if left > best:
                best, mv = left, 3
            if key == k2:
                d = prow[j - 1] + weight
                if d >= best:
                    best, mv = d, 1
            row.append(best)
            left = best
            move[at + j] = mv
        prow = row

    entries, i, j = [], n1, n2
    while i > 0 or j > 0:
        mv = move[i * width + j]
        if mv == 1:
            entries.append(AlignEntry("aligned", i - 1, j - 1))
            i, j = i - 1, j - 1
        elif mv == 2:
            entries.append(AlignEntry("gap2", i - 1))
            i -= 1
        else:
            entries.append(AlignEntry("gap1", None, j - 1))
            j -= 1
    entries.reverse()
    return Alignment(entries, prow[n2], n1, n2)


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
    j = 0
    for i, (_, ty) in enumerate(f1.params):
        k = next((k for k in range(j, len(f2.params)) if f2.params[k][1] == ty),
                 None)
        if k is None:
            unmatched1.append(i)
        else:
            matched.append((i, k))
            j = k + 1
    taken = {k for _, k in matched}
    return ParamMap(matched, unmatched1,
                    [k for k in range(len(f2.params)) if k not in taken])


# ---------------------------------------------------------------------------
# Merged-body code generation
# ---------------------------------------------------------------------------

@dataclass
class MergedFunction:
    """A merged body with its parents and the alignment it was woven from.
    `mux_selects` counts its operand muxes (`dse` prices glue by them).
    `arg_plan` holds, per merged parameter before the trailing f_sel, the
    index of the parameter of parent 1 and of parent 2 it stands for, None
    where that parent has none. The parent instructions of the body are
    one per alignment entry; the rest of `function.size()` is glue.
    `renames` maps each parent's registers to the merged registers standing
    for them, and `inits` counts the zero initializers that open the first
    block (`weave_walk` reads both)."""
    function: Function
    parents: tuple[str, str]
    alignment: Alignment
    mux_selects: int = 0
    arg_plan: list[tuple[int | None, int | None]] = field(default_factory=list)
    renames: tuple[dict[str, str], dict[str, str]] = field(
        default_factory=lambda: ({}, {}))
    inits: int = 0

    def args_for(self, side: int, parent_args: list) -> list:
        """Merged-call arguments equivalent to calling parent `side` (1 or 2)
        with `parent_args`: each merged parameter takes the argument of the
        parent parameter it stands for, or a zero of its type when parent
        `side` has none, and f_sel is 1 for parent 1 and 0 for parent 2."""
        return [parent_args[ix[side - 1]] if ix[side - 1] is not None
                else zero_literal(ty).value
                for ix, (_, ty) in zip(self.arg_plan, self.function.params)
                ] + [int(side == 1)]


class _Namer:
    def __init__(self):
        self.used: set[str] = set()

    def fresh(self, want: str) -> str:
        name, k = want, 2
        while name in self.used:
            name = f"{want}.{k}"
            k += 1
        self.used.add(name)
        return name


@dataclass
class _Side:
    """One parent in the weave: its linearized instructions, the merged name
    of each of its registers (named `prefix` + register on first use) and
    the other parent's register each one is coalesced with, the weave
    position of each of its instructions and of each of its block labels."""
    lin: Linearization
    prefix: str
    namer: _Namer
    rename: dict[str, str] = field(default_factory=dict)
    partner: dict[str, str] = field(default_factory=dict)
    pos: list[int] = field(default_factory=list)
    at: dict[str, int] = field(default_factory=dict)

    def name(self, r: str) -> str:
        n = self.rename.get(r)
        if n is None:
            n = self.rename[r] = self.namer.fresh(self.prefix + r)
        return n

    def operand(self, o):
        return Reg(self.name(o.name)) if isinstance(o, Reg) else o

    def next_at(self, w: int) -> int | None:
        """The first weave position at or after w holding an instruction of
        this side."""
        k = bisect_left(self.pos, w)
        return self.pos[k] if k < len(self.pos) else None


def merge_functions(m: Module, name1: str, name2: str,
                    seeds: int = DEFAULT_SEEDS,
                    memo: dict | None = None) -> MergedFunction:
    """Generate the merged function @m.<name1>.<name2> for (name1, name2) in
    module m, from the best alignment over `seeds` linearization seed
    combinations (`best_alignment`) and greedy by-type parameter matching
    (`merge_parameters`). Raises MergeRejected when the pair is filtered:
    aligned fraction below MIN_ALIGNED_FRACTION, mismatched return types,
    irreducible control flow, or a merged body that fails validation.
    `memo` keeps a parent's loop forest, register types and linearizations
    for every pair it is in (`_fact`); the merged body is checked afresh.

    Both parents go through one code path, each as a `_Side`. Only the
    tie-breaks favor parent 1: a coalesced pair takes its register's name,
    aligned operands are typed by its registers, and a pair whose results
    cannot be coalesced writes its register first.
    """
    f1, f2 = m.function(name1), m.function(name2)
    if f1.ret != f2.ret:
        raise MergeRejected(f"@{name1} returns {f1.ret} but @{name2} returns {f2.ret}")
    if any(_fact(memo, f, "irreducible", lambda: natural_loops(f).irreducible)
           for f in (f1, f2)):
        raise MergeRejected("irreducible control flow")

    alignment, lin1, lin2 = best_alignment(m, name1, name2, seeds, memo)
    param_map = merge_parameters(f1, f2)
    if alignment.aligned_fraction < MIN_ALIGNED_FRACTION:
        raise MergeRejected(
            f"aligned fraction {alignment.aligned_fraction:.3f} below "
            f"{MIN_ALIGNED_FRACTION:.2f}")

    namer = _Namer()
    sides = a, b = _Side(lin1, "a.", namer), _Side(lin2, "b.", namer)

    # --- parameters: matched pairs, then each side's unmatched ones -------
    params: list[tuple[str, str]] = []
    arg_plan: list[tuple[int | None, int | None]] = []
    for i, j in param_map.matched:
        (p1, ty), p2 = f1.params[i], f2.params[j][0]
        a.rename[p1] = b.rename[p2] = namer.fresh(p1)
        a.partner[p1], b.partner[p2] = p2, p1
        params.append((a.rename[p1], ty))
        arg_plan.append((i, j))
    for k, (f, s, unmatched) in enumerate(((f1, a, param_map.unmatched1),
                                           (f2, b, param_map.unmatched2))):
        for i in unmatched:
            p, ty = f.params[i]
            s.rename[p] = namer.fresh(p)
            params.append((s.rename[p], ty))
            arg_plan.append((i, None) if k == 0 else (None, i))
    fsel = namer.fresh("f_sel")
    params.append((fsel, "i1"))

    # --- result coalescing for aligned pairs ----------------------------
    # a pair's results share one name unless either is already coalesced
    # with another register or both already have names; those pairs are
    # emitted with copies
    entries = alignment.entries
    needs_copy: set[int] = set()
    for w, e in enumerate(entries):
        if e.kind != "aligned":
            continue
        r1, r2 = lin1.instrs[e.i1].result, lin2.instrs[e.i2].result
        if r1 is None or (a.partner.get(r1) == r2 and b.partner.get(r2) == r1):
            continue
        n1, n2 = a.rename.get(r1), b.rename.get(r2)
        if r1 in a.partner or r2 in b.partner or (n1 and n2):
            needs_copy.add(w)
            continue
        a.rename[r1] = b.rename[r2] = n1 or n2 or a.name(r1)
        a.partner[r1], b.partner[r2] = r2, r1

    # --- weave geometry ---------------------------------------------------
    nw = len(entries)
    for w, e in enumerate(entries):
        for s, i in zip(sides, (e.i1, e.i2)):
            if i is not None:
                s.pos.append(w)
    for s in sides:
        s.at = {lab: s.pos[i] for lab, i in s.lin.first_pos.items()}

    boundaries = {0} | set(a.at.values()) | set(b.at.values())
    for w, e in enumerate(entries):
        ins = lin1.instrs[e.i1] if e.i1 is not None else lin2.instrs[e.i2]
        if w + 1 < nw and (ins.is_terminator()
                           or entries[w + 1].kind != e.kind):
            boundaries.add(w + 1)

    block_label = {w: f"m{k}" for k, w in enumerate(sorted(boundaries))}
    namer.used.update(block_label.values())

    def target(s: _Side, label: str) -> str:
        return block_label[s.at[label]]

    def branch(t1: str, t2: str) -> Instr:
        """Go to t1 under f_sel=1 and to t2 under f_sel=0."""
        if t1 == t2:
            return Instr("jmp", succs=(t1,))
        return Instr("br", "i1", None, (Reg(fsel),), succs=(t1, t2))

    # --- emission ---------------------------------------------------------
    blocks: list[Block] = []
    cur: list[Instr] = []
    mux_selects = 0
    routers: dict[tuple[str, str], str] = {}
    router_blocks: list[Block] = []

    def router(t1: str, t2: str) -> str:
        """Label reaching t1 under f_sel=1 and t2 under f_sel=0."""
        if t1 == t2:
            return t1
        lbl = routers.get((t1, t2))
        if lbl is None:
            lbl = routers[(t1, t2)] = namer.fresh(f"r{len(routers)}")
            router_blocks.append(Block(lbl, [branch(t1, t2)]))
        return lbl

    def emit_mux(slot_ty: str, o1, o2) -> Reg:
        nonlocal mux_selects
        res = namer.fresh("sel")
        cur.append(Instr("select", slot_ty, res, (Reg(fsel), o1, o2)))
        mux_selects += 1
        return Reg(res)

    rt1 = _fact(memo, f1, "types", f1.register_types)
    callee_params = {name: fn.params for name, fn in m.functions.items()}

    for w, e in enumerate(entries):
        if w in block_label:
            if blocks and not (cur and cur[-1].is_terminator()):
                # route the fallthrough to each side's next instruction
                n1, n2 = a.next_at(w), b.next_at(w)
                assert n1 is not None or n2 is not None, "fallthrough off the weave"
                cur.append(branch(block_label[n2 if n1 is None else n1],
                                  block_label[n1 if n2 is None else n2]))
            cur = []
            blocks.append(Block(block_label[w], cur))
        if e.kind != "aligned":
            s, i = (a, e.i1) if e.i1 is not None else (b, e.i2)
            ins = s.lin.instrs[i]
            ops = tuple(map(s.operand, ins.operands))
            cur.append(Instr(
                ins.op, ins.ty, s.name(ins.result) if ins.result else None,
                ops, tuple(target(s, t) for t in ins.succs), ins.callee,
                ins.pred, ins.cast_to))
            continue
        x, y = lin1.instrs[e.i1], lin2.instrs[e.i2]
        slots = operand_slot_types(x, rt1, callee_params.get(x.callee))
        ops = []
        for o1, o2, slot_ty in zip(x.operands, y.operands, slots):
            m1, m2 = a.operand(o1), b.operand(o2)
            ops.append(m1 if m1 == m2 else emit_mux(slot_ty, m1, m2))
        if x.op == "br":
            cur.append(Instr("br", "i1", None, (ops[0],), succs=tuple(
                router(target(a, t1), target(b, t2))
                for t1, t2 in zip(x.succs, y.succs))))
        elif x.op == "jmp":
            cur.append(branch(target(a, x.succs[0]), target(b, y.succs[0])))
        else:
            # where the pair's results could not be coalesced, route the
            # value through selects that leave the inactive side's register
            # untouched (it may be shared with live state of the other
            # parent). When res is shared with a different side-2
            # register, even the primary write must be conditional.
            res = a.name(x.result) if x.result else None
            copy = w in needs_copy
            out = namer.fresh("t") if copy and x.result in a.partner else res
            cur.append(Instr(x.op, x.ty, out, tuple(ops), x.succs, x.callee,
                             x.pred, x.cast_to))
            if copy:
                res2, rty = b.name(y.result), x.result_type()
                if out != res:
                    cur.append(Instr("select", rty, res,
                                     (Reg(fsel), Reg(out), Reg(res))))
                cur.append(Instr("select", rty, res2,
                                 (Reg(fsel), Reg(res2), Reg(out))))

    blocks.extend(router_blocks)

    # --- entry block --------------------------------------------------------
    e1w, e2w = a.at[f1.entry], b.at[f2.entry]
    if not (e1w == 0 and e2w == 0):
        elbl = namer.fresh("entry")
        blocks.insert(0, Block(elbl, [branch(block_label[e1w],
                                             block_label[e2w])]))

    merged = Function(f"m.{name1}.{name2}", params, f1.ret, blocks,
                      provenance="merged")

    # --- neutral initializers ----------------------------------------------
    # Mux selects read both sides' registers eagerly, and mixed-f_sel paths
    # the dataflow considers (but execution never takes) can reach a side's
    # register before that side assigned it; dead zero-initializers at entry
    # make the body assign-before-use clean without changing behavior. They
    # assign registers their own types, so one type map serves them and the
    # check; the check reports a register of two types. They read nothing
    # and come first, so the reads left unassigned are those of registers
    # without a type, which no instruction assigns.
    try:
        reg_types = merged.register_types()
        uses = unassigned_uses(merged)
    except IRError:
        reg_types, uses = None, []
    inits = [Instr("const", reg_types[r], r, (zero_literal(reg_types[r]),))
             for r in sorted({r for _, r in uses if r in reg_types})]
    merged.blocks[0].instrs[0:0] = inits

    # only the new body needs checking: its callees are the parents' callees,
    # so under a fresh name it cannot close a call cycle
    diags: list[str] = []
    check_function(merged, m, diags, reg_types,
                   [(label, r) for label, r in uses if r not in reg_types])
    if diags:
        raise MergeRejected("merged body failed validation: " + "; ".join(diags))
    return MergedFunction(merged, (name1, name2), alignment, mux_selects,
                          arg_plan, (a.rename, b.rename), len(inits))


def best_alignment(m: Module, name1: str, name2: str,
                   seeds: int = DEFAULT_SEEDS, memo: dict | None = None
                   ) -> tuple[Alignment, Linearization, Linearization]:
    """Best-scoring alignment over `seeds` linearization seed combinations.
    Equal block layouts score equally, so each distinct pair aligns once.
    `memo` keeps each side's types and linearizations (`_fact`)."""
    if seeds < 1:
        raise IRError(f"seeds must be at least 1, got {seeds}")
    pairs = seed_pairs(seeds)
    f1, f2 = m.function(name1), m.function(name2)
    rt1, rt2 = (_fact(memo, f, "types", f.register_types) for f in (f1, f2))
    lins1, lins2 = ({s: _fact(memo, f, ("lin", s), lambda: linearize(f, s))
                     for s in {pair[k] for pair in pairs}}
                    for k, f in enumerate((f1, f2)))
    layouts: dict = {}  # (order1, order2) -> first seed pair's linearizations
    for s1, s2 in pairs:
        layouts.setdefault((tuple(lins1[s1].order), tuple(lins2[s2].order)),
                           (lins1[s1], lins2[s2]))
    best = None
    for lin1, lin2 in layouts.values():
        a = align(lin1.instrs, lin2.instrs, rt1=rt1, rt2=rt2)
        if best is None or a.score > best[0].score:
            best = (a, lin1, lin2)
    return best


# ---------------------------------------------------------------------------
# Weave walk: one f_sel side proved equal to its parent
# ---------------------------------------------------------------------------

def _canon(v):
    """A literal's value as the walk compares it: an f64 by bit pattern."""
    if isinstance(v, float):
        return struct.pack("<d", v)
    return v


class _Unproved(Exception):
    """The weave walk cannot prove the side; carries the reason."""


def weave_walk(merged: MergedFunction, side: int, parent: Function,
               clean: bool | None = None) -> tuple[bool, str]:
    """Prove that the merged body with f_sel fixed to side's value (1 for
    side 1, 0 for side 2) computes what `parent` computes, in translation
    validation's way: by walking both, not by running them.

    The walk starts at both entries and goes through the parent block by
    block. Each parent instruction must meet the next merged instruction
    that is not glue, equal in opcode, type, predicate, cast, callee,
    result presence, successor count and the value of every operand; a
    parent jmp must meet a glue jmp or f_sel branch. Glue is `select
    %f_sel` (a copy, under a fixed f_sel), `br %f_sel` and `jmp` (both
    followed) and the `inits` zero constants that open the first block.
    Values are tracked exactly: a merged register holds the value a parent
    register took at one of its assignments, a literal, or nothing known.
    Where a parent br or jmp enters a block, the side's rename must hold:
    each parent register the block's walk assigned, and each one whose
    merged register it overwrote, is in the merged register `renames` names
    for it (parents read no register before assigning it, which the walk
    checks, so an unassigned one may hold anything). Each (merged block,
    parent block) pair is walked once, with an explicit worklist.

    Returns (True, "") for a proved side, else (False, the reason).
    `clean`, when given, says whether the parent reads no register before
    assigning it.
    """
    try:
        _walk(merged, side, parent, clean)
    except _Unproved as e:
        return False, str(e)
    return True, ""


def _walk(merged: MergedFunction, side: int, parent: Function,
          clean: bool | None):
    f = merged.function
    fsel, rename = f.params[-1][0], merged.renames[side - 1]
    inv: dict[str, str] = {}
    for r, mr in rename.items():
        if inv.setdefault(mr, r) != r:
            raise _Unproved(f"%{inv[mr]} and %{r} share %{mr}")
    if fsel in inv:
        raise _Unproved("a parent register is renamed to f_sel")
    if unassigned_uses(parent) if clean is None else not clean:
        raise _Unproved("the parent reads a register before assigning it")
    placed = {ix[side - 1]: p for p, ix in zip(f.params, merged.arg_plan)
              if ix[side - 1] is not None}
    if (len(merged.arg_plan) != len(f.params) - 1
            or len(placed) != len(parent.params)
            or any(placed.get(i) != (rename.get(p), ty)
                   for i, (p, ty) in enumerate(parent.params))):
        raise _Unproved("the parameters do not line up")

    blocks = {b.label: b.instrs for b in f.blocks}
    pblocks = {b.label: b.instrs for b in parent.blocks}
    params, size, fsel_reg = {p for p, _ in parent.params}, f.size(), Reg(fsel)
    fsel_value = ("l", "i1", int(side == 1))
    start = (f.entry, parent.entry)
    seen, work = {start}, [start]
    holds: dict[str, tuple | None] = {}   # merged register -> its value
    gen: dict[str, int] = {}   # parent register -> assignments in this walk

    def value(o) -> tuple | None:   # of a merged operand
        if type(o) is Lit:
            return ("l", o.ty, _canon(o.value))
        if o.name in holds:
            return holds[o.name]
        if o.name == fsel:
            return fsel_value
        x = inv.get(o.name)
        return None if x is None else ("r", x, 0)

    def pvalue(o) -> tuple:   # of a parent operand
        if type(o) is Lit:
            return ("l", o.ty, _canon(o.value))
        return ("r", o.name, gen.get(o.name, 0))

    def enter(mlab: str, plab: str):
        if mlab not in blocks or plab not in pblocks or plab == parent.entry:
            raise _Unproved(f"a branch to {mlab} / {plab}")
        for m, v in holds.items():
            x = inv.get(m)
            # at the entry block an unassigned non-parameter may hold anything
            if x is not None and v != ("r", x, gen.get(x, 0)) and not (
                    at_entry and x not in gen and x not in params):
                raise _Unproved(f"%{m} does not hold %{x} entering {plab}")
        for x in gen:
            if rename.get(x) not in holds:
                raise _Unproved(f"%{x} is not renamed entering {plab}")
        if (mlab, plab) not in seen:
            seen.add((mlab, plab))
            work.append((mlab, plab))

    while work:
        mlab, plab = work.pop()
        at_entry = (mlab, plab) == start
        holds.clear()
        gen.clear()
        instrs, pc, glue = blocks[mlab], 0, 0
        if at_entry:
            for q in instrs[:merged.inits]:
                if q.op != "const" or type(q.operands[0]) is not Lit \
                        or q.result == fsel:
                    raise _Unproved("an entry initializer is not a constant")
                holds[q.result] = value(q.operands[0])
            pc = glue = merged.inits
        for p in pblocks[plab]:
            while True:
                if pc == len(instrs) or glue == size:
                    raise _Unproved(f"glue does not reach {p.op} in {plab}")
                q, pc, glue = instrs[pc], pc + 1, glue + 1
                if q.op == "select" and q.operands[0] == fsel_reg:
                    if q.result == fsel:
                        raise _Unproved("glue assigns f_sel")
                    holds[q.result] = value(q.operands[1 if side == 1 else 2])
                    continue
                if q.op == "jmp" or q.op == "br" and q.operands[0] == fsel_reg:
                    target = q.succs[0 if q.op == "jmp" or side == 1 else 1]
                    if p.op == "jmp":
                        break
                    if target not in blocks:
                        raise _Unproved(f"a branch to {target}")
                    instrs, pc = blocks[target], 0
                    continue
                if (p.op != "jmp"
                        and (q.op, q.ty, q.pred, q.cast_to, q.callee)
                        == (p.op, p.ty, p.pred, p.cast_to, p.callee)
                        and (q.result is None) == (p.result is None)
                        and q.result != fsel
                        and len(q.operands) == len(p.operands)
                        and len(q.succs) == len(p.succs)):
                    for x, y in zip(q.operands, p.operands):
                        if value(x) != pvalue(y):
                            break
                    else:
                        break   # q is p's instruction: on to p's next
                raise _Unproved(f"{p.op} in {plab} meets merged {q.op} "
                                f"in the merged walk from {mlab}")
            glue = 0
            if p.op == "jmp":
                enter(target, p.succs[0])
            elif p.op == "br":
                for mt, pt in zip(q.succs, p.succs):
                    enter(mt, pt)
            elif p.result is not None:
                gen[p.result] = n = gen.get(p.result, 0) + 1
                holds[q.result] = ("r", p.result, n)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

@dataclass
class VerifyReport:
    parents: tuple[str, str]
    merged: str
    passed: bool
    detail: str = ""   # each unproved side with the walk's reason, "; "-joined
    proved: tuple[bool, bool] = (False, False)   # per side


def verify_merge(m: Module, merged: MergedFunction,
                 memo: dict | None = None) -> VerifyReport:
    """Prove merged ≡ parent on each f_sel side with `weave_walk`; nothing
    runs, so no fuel limit applies. The parents are `merged.parents`, read
    from `m`. Both sides are walked, the merge passes only if both are
    proved, and `detail` names each unproved side as `side N (@parent)
    unproved: <the walk's reason>`. The body checked is `merged.function`,
    whatever `m` holds under its name. `memo` keeps each parent's
    must-assign check (`_fact`), so callers may share one while the module
    only gains functions under fresh names."""
    proved, notes = [], []
    for side, pname in enumerate(merged.parents, 1):
        parent = m.function(pname)
        ok, why = weave_walk(merged, side, parent, _fact(
            memo, parent, "clean", lambda: not unassigned_uses(parent)))
        proved.append(ok)
        notes.append(f"side {side} proved" if ok else
                     f"side {side} (@{pname}) unproved: {why}")
    mname = merged.function.name
    log.debug("verify %s: %s; %s", mname, *notes)
    return VerifyReport(merged.parents, mname, all(proved), "; ".join(
        n for n, ok in zip(notes, proved) if not ok), tuple(proved))

"""The weave walk against the trial oracle.

`verify_merge` passes a merge only if `weave_walk` proves both of its f_sel
sides, and runs nothing. Random-input differential trials
(`trial_oracle`) check that proof from outside: every side the walk proves
must agree with its parent on every trial, on seeded mutants of the merged
bodies, on every aligned candidate `prepare` verifies, and on merges of
every ordered corpus pair under perturbed alignments.
"""

import random
from dataclasses import replace
from itertools import permutations, product

import pytest

from mergedse import merge
from mergedse.analysis import extract_loops, rank_pairs
from mergedse.ir import (
    OPCODES, Instr, Lit, Reg, check_function, clone_function,
)
from mergedse.merge import MergeRejected, merge_functions, verify_merge

from trial_oracle import refute


def _candidates(m):
    out = []
    for n1, n2, _ in rank_pairs(m, 0.3):
        try:
            out.append((n1, n2, merge_functions(m, n1, n2)))
        except MergeRejected:
            continue
    return out


def _corrupted(mf):
    """mf with its first add, sub or mul turned into another of them."""
    broken = replace(mf, function=clone_function(mf.function))
    swap = {"add": "sub", "sub": "mul", "mul": "add"}
    for b in broken.function.blocks:
        for k, ins in enumerate(b.instrs):
            if ins.op in swap:
                b.instrs[k] = Instr(swap[ins.op], ins.ty, ins.result,
                                    ins.operands)
                return broken
    return None


# ---------------------------------------------------------------------------
# Mutants: the weave walk proves no side whose trials fail
# ---------------------------------------------------------------------------

SWAP_OP = {"add": "sub", "sub": "add", "mul": "add", "and": "or", "or": "xor",
           "xor": "and", "shl": "ashr", "ashr": "shl", "fadd": "fsub",
           "fsub": "fadd", "fmul": "fadd", "sdiv": "srem", "srem": "sdiv"}


def _mutant(mf, rng):
    """mf with one seeded edit of its body: two operands swapped, a register
    operand replaced by another register of its type, a literal changed,
    branch successors swapped or a binary opcode changed; None when the
    drawn edit does not apply."""
    f = clone_function(mf.function)
    types = f.register_types()
    sites = [(b, k) for b in f.blocks for k in range(len(b.instrs))]
    b, k = rng.choice(sites)
    ins = b.instrs[k]
    ops = list(ins.operands)
    kind = rng.choice(["swap", "register", "literal", "successors", "opcode"])
    if kind == "swap" and len(ops) >= 2:
        i, j = rng.sample(range(len(ops)), 2)
        ops[i], ops[j] = ops[j], ops[i]
    elif kind == "register" and any(isinstance(o, Reg) for o in ops):
        i = rng.choice([i for i, o in enumerate(ops) if isinstance(o, Reg)])
        same = sorted(r for r, ty in types.items()
                      if ty == types.get(ops[i].name) and r != ops[i].name)
        if not same:
            return None
        ops[i] = Reg(rng.choice(same))
    elif kind == "literal" and any(isinstance(o, Lit) for o in ops):
        i = rng.choice([i for i, o in enumerate(ops) if isinstance(o, Lit)])
        lit = ops[i]
        value = (1 - lit.value if lit.ty == "i1" else lit.value + 0.5
                 if lit.ty == "f64" else lit.value + rng.choice([-1, 1, 7]))
        ops[i] = Lit(value, lit.ty)
    elif kind == "successors" and ins.op == "br" and len(set(ins.succs)) == 2:
        b.instrs[k] = replace(ins, succs=ins.succs[::-1])
        return replace(mf, function=f)
    elif kind == "opcode" and ins.op in SWAP_OP:
        b.instrs[k] = replace(ins, op=SWAP_OP[ins.op])
        return replace(mf, function=f)
    else:
        return None
    b.instrs[k] = replace(ins, operands=tuple(ops))
    return replace(mf, function=f)


def test_walk_proves_no_mutant_side_whose_trials_fail(corpus):
    # a mutant may keep a side correct (an edit on the other side's code),
    # and then the walk may prove it; a side it proves must agree with its
    # parent on every oracle trial, and a side the oracle refutes must not
    # pass
    rng, fuel = random.Random(2027), 10 ** 4
    valid = rejected = proved = refuted = 0
    for name, m, _ in corpus:
        for work in (m.clone(), extract_loops(m)):
            for n1, n2, mf in _candidates(work):
                for _ in range(16):
                    mutant = _mutant(mf, rng)
                    if mutant is None or check_function(mutant.function, work,
                                                        diags := []) or diags:
                        continue
                    valid += 1
                    rep = verify_merge(work, mutant)
                    rejected += not rep.passed
                    for side in (1, 2):
                        why = refute(work, mutant, side, fuel=fuel)
                        proved += rep.proved[side - 1]
                        refuted += bool(why)
                        assert not (why and rep.proved[side - 1]), (
                            name, n1, n2, side, why)
                        assert not (why and rep.passed), (name, n1, n2, side)
    assert valid > 400 and rejected > valid / 2 and proved > 50
    assert refuted > 0


@pytest.mark.parametrize("mode", ["FE+Merging", "FLE+Merging"])
def test_every_aligned_corpus_candidate_passes_its_trials(corpus, area_model,
                                                          monkeypatch, mode):
    # the evidence for merged codegen: prepare verifies every aligned
    # candidate; each is proved on both sides, and each side agrees with
    # its parent on every oracle trial
    from mergedse import dse
    checked = []
    verify = dse.verify_merge

    def spy(work, mf, **kw):
        rep = verify(work, mf, **kw)
        checked.append((rep.proved, [refute(work, mf, 1),
                                     refute(work, mf, 2)]))
        return rep
    monkeypatch.setattr(dse, "verify_merge", spy)
    funnels = [dse.prepare(m, [img], dse.PipelineConfig(mode=mode),
                           area_model).funnel for _, m, img in corpus]
    assert len(checked) == sum(f["aligned"] for f in funnels) > 60
    assert all(f["verified"] == f["aligned"] for f in funnels)
    assert checked == [((True, True), ["", ""])] * len(checked)


def _perturbed_align(weights, gap):
    """merge.align under these match weights and gap penalty."""
    align = merge.align

    def perturbed(s1, s2, **kw):
        return align(s1, s2, weights, gap, **kw)
    return perturbed


def test_walk_proves_every_merge_of_every_ordered_corpus_pair(corpus,
                                                              monkeypatch):
    # the prover's gate: every ordered pair of functions of every corpus
    # module, in FE and FLE, at 1 and 4 linearization seeds, under the
    # default weights and four seeded random weight and gap sets; every
    # merge merge_functions emits is proved on both sides
    rng = random.Random(2027)
    settings = [None] + [
        ({op: rng.uniform(0.1, 5.0) for op in OPCODES}, rng.uniform(0.0, 2.0))
        for _ in range(4)]
    modules = [m for _, m0, _ in corpus
               for m in (m0.clone(), extract_loops(m0))]
    merges = rejected = 0
    for setting in settings:
        with monkeypatch.context() as mp:
            if setting is not None:
                mp.setattr(merge, "align", _perturbed_align(*setting))
            for m in modules:
                for (n1, n2), seeds in product(permutations(m.functions, 2),
                                               (1, 4)):
                    try:
                        mf = merge_functions(m, n1, n2, seeds=seeds)
                    except MergeRejected:
                        rejected += 1
                        continue
                    rep = verify_merge(m, mf)
                    assert rep.proved == (True, True), (
                        n1, n2, seeds, setting, rep.detail)
                    merges += 1
    assert merges > 4000 and rejected < merges / 10


def test_verification_runs_the_body_it_is_handed(pair_module):
    # the module already holds the intact candidate under its name: the
    # corrupted body handed in is what the walk checks
    m = pair_module.clone()
    mf = merge_functions(m, "sel_a", "sel_b")
    broken = _corrupted(mf)
    want = verify_merge(m, broken)
    m.functions[mf.function.name] = mf.function
    got = verify_merge(m, broken)
    assert not want.passed and got == want

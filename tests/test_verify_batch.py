"""Batched verification against the per-trial reference.

`verify_merge` runs all trials of a call on one interpreter machine and
starts each run from a copy of its plan's heap template. The reference
below is verification as it ran before: per trial, a fresh Arena laid out
from the plan and one call of the public `interpret`. With the weave walk
disabled, so that every merged trial runs, both must give the same outcome
on every trial and the same report. With it, a proved side runs no trial:
the report may differ only where a proved side fails its trials.
"""

import random
from dataclasses import replace

import pytest

from mergedse import merge
from mergedse.analysis import extract_loops, rank_pairs
from mergedse.ir import (Arena, Instr, InterpError, Lit, Module, Program,
                         Reg, check_function, clone_function, interpret)
from mergedse.ir.interp import _Machine
from mergedse.merge import (MergeRejected, VerifyReport, merge_functions,
                            verify_merge)

TRIALS, SEED = 48, 7   # the pipeline default trial count
# per mode, the candidates that trials alone reject at fuel 40 and that
# the walk proves
LOW_FUEL_PROVED = {"FE": 1, "FLE": 18}


def _reference(m, n1, n2, mf, fuel):
    """(report, per-trial (parent, merged) outcomes, per-trial initial heap
    bytes, the sides that fail) of verification run trial by trial through
    `interpret`. Every trial of both sides runs, so that each side's verdict
    is known; the report and the outcomes end where the first failing
    side's failure ends verification."""
    mname = mf.function.name
    mm = Module({**m.functions, mname: mf.function}, m.entry)
    prog = Program(mm, footprints=False)
    sides = []
    for n in (n1, n2):   # each side draws for its own signature
        rng = random.Random(SEED)
        sides.append([merge._draw_trial(mm.functions[n].params, rng)
                      for _ in range(TRIALS)])

    def run(fname, template, args):
        arena = Arena()
        arena.data[:] = template   # a fresh arena holding the plan's regions
        try:
            r = interpret(prog, fname, args, arena, fuel=fuel)
        except InterpError as e:
            return ("error:" + e.kind, None, None)
        return ("ok", merge._canon(r.value), r.heap)

    initial = [template for plans in sides for template, _ in plans]
    # side -> (its report, the number of outcomes up to its failure)
    outcomes, failures = [], {}
    for side, pname, plans in zip((1, 2), (n1, n2), sides):
        for template, args_p in plans:
            out_p = run(pname, template, args_p)
            out_m = run(mname, template, mf.args_for(side, args_p))
            outcomes.append((out_p, out_m))
            if out_p != out_m and side not in failures:
                failures[side] = VerifyReport(
                    (n1, n2), mname, TRIALS, False,
                    counterexample=(1 if side == 1 else 0, args_p),
                    detail=f"parent {out_p[0]} value/heap differs from "
                           f"merged {out_m[0]}"), len(outcomes)
        # a side whose parent never returns checked nothing of the body
        if side not in failures and all(
                out_p[0] != "ok" for out_p, _ in outcomes[-len(plans):]):
            failures[side] = VerifyReport(
                (n1, n2), mname, TRIALS, False,
                detail=f"side {side} (@{pname}) never returns"), len(outcomes)
    if failures:
        rep, end = failures[min(failures)]
        return rep, outcomes[:end], initial, set(failures)
    return VerifyReport((n1, n2), mname, TRIALS, True), outcomes, initial, set()


class _Batched:
    """verify_merge on a shared memo, with the outcome of every merged run
    recorded; parent outcomes are read back from the memo."""

    def __init__(self, monkeypatch):
        self.memo, self.merged_runs = {}, []
        self.templates = {}   # id -> (template, its bytes as laid out)
        run = merge._run

        def spy(mach, fname, image, args, fuel):
            out = run(mach, fname, image, args, fuel)
            if fname == self.mname:
                self.merged_runs.append(out)
            return out
        monkeypatch.setattr(merge, "_run", spy)

    def verify(self, m, n1, n2, mf, fuel):
        self.mname, self.merged_runs = mf.function.name, []
        rep = verify_merge(m, n1, n2, mf, trials=TRIALS, seed=SEED,
                           fuel=fuel, memo=self.memo)
        trials = [(pname, k, image) for pname in (n1, n2)
                  for k, (image, _) in enumerate(self.memo[
                      SEED, TRIALS, tuple(ty for _, ty in m.function(
                          pname).params)])]
        facts = self.memo["facts"]
        outcomes = [(facts[pname][1][fuel, SEED, TRIALS][k], out_m)
                    for (pname, k, _), out_m in zip(trials, self.merged_runs)]
        return rep, outcomes, [image for _, _, image in trials]


def _prove_nothing(mf, side, parent, *args):
    """A weave walk that proves no side: every merged trial runs."""
    return None, "disabled"


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


def _check(batched, m, n1, n2, mf, fuel):
    """The batched report, checked against the reference, and the sides
    that fail their trials."""
    rep, outcomes, images = batched.verify(m, n1, n2, mf, fuel)
    ref_rep, ref_outcomes, initial, failing = _reference(m, n1, n2, mf, fuel)
    assert outcomes == ref_outcomes, (n1, n2, fuel)
    assert rep == ref_rep, (n1, n2, fuel)
    assert [bytes(image) for image in images] == initial, (n1, n2, fuel)
    for image, laid_out in zip(images, initial):
        batched.templates.setdefault(id(image), (image, laid_out))
    return rep, failing


@pytest.mark.parametrize("mode", ["FE", "FLE"])
def test_batched_trials_match_per_trial_interpret(corpus, monkeypatch, mode):
    batched = _Batched(monkeypatch)
    walk = merge.weave_walk
    monkeypatch.setattr(merge, "weave_walk", _prove_nothing)
    programs = [(name, extract_loops(m) if mode == "FLE" else m.clone())
                for name, m, _ in corpus]
    # (program, candidate, fuel) -> the reference's report and the sides
    # that fail their trials
    reference = {}
    for name, work in programs:
        # one shared memo per program, as prepare shares one; a low fuel
        # ends some runs mid-way, so fuel must be set afresh per run
        batched.memo = {}
        for n1, n2, mf in _candidates(work):
            for fuel in (10 ** 6, 40):
                rep, failing = _check(batched, work, n1, n2, mf, fuel)
                assert rep.proved == (False, False)
                reference[name, mf.function.name, fuel] = rep, failing
    results = [rep.passed for rep, _ in reference.values()]
    assert results.count(True) > 50 and False in results
    # a corrupted body under a candidate's name, verified on the same memo
    # after the good body: nothing of the good one may carry over
    caught = 0
    for name, work in programs:
        batched.memo = {}
        for n1, n2, mf in _candidates(work):
            broken = _corrupted(mf)
            if broken is None:
                continue
            assert _check(batched, work, n1, n2, mf, 10 ** 6)[0].passed
            rep, failing = _check(batched, work, n1, n2, broken, 10 ** 6)
            reference[name, "broken", mf.function.name] = rep, failing
            caught += not rep.passed
    assert caught > 0
    # every template still holds the bytes it was laid out with
    assert len(batched.templates) > 100
    for image, laid_out in batched.templates.values():
        assert bytes(image) == laid_out

    # the walk on: a proved side runs no trial. At fuel 40 some parents'
    # trials all run out of fuel, so trials alone reject their sides as
    # never returning. A report differs from the reference exactly where the
    # reference failed and the walk proves every side that fails its
    # trials, and there it passes; at fuel 10**6 none differs
    monkeypatch.setattr(merge, "weave_walk", walk)
    proved, differ, expect = 0, set(), set()
    for name, work in programs:
        memo = {}
        for n1, n2, mf in _candidates(work):
            provable = {side for side, n in ((1, n1), (2, n2))
                      if walk(mf, side, work.function(n))[0]}
            for fuel in (10 ** 6, 40):
                key = name, mf.function.name, fuel
                rep = verify_merge(work, n1, n2, mf, trials=TRIALS, seed=SEED,
                                   fuel=fuel, memo=memo)
                ref, failing = reference[key]
                if rep != ref:
                    differ.add(key)
                    assert rep.passed, key
                if not ref.passed and failing <= provable:
                    expect.add(key)
                proved += sum(rep.proved)
            broken = _corrupted(mf)
            if broken is not None:
                rep = verify_merge(work, n1, n2, broken, trials=TRIALS,
                                   seed=SEED, memo=memo)
                assert rep == reference[name, "broken", mf.function.name][0]
    assert differ == expect
    assert {fuel for *_, fuel in differ} == {40}
    assert len(differ) == LOW_FUEL_PROVED[mode]
    assert proved > len(reference) / 2


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


def _side_agrees(m, mf, side, pname, fuel):
    """Every trial of `side` gives the parent's outcome on the merged body."""
    mname = mf.function.name
    mm = Module({**m.functions, mname: mf.function}, m.entry)
    plans = merge._trial_plans({}, SEED, TRIALS, mm.function(pname).params)
    mach = _Machine(Program(mm, footprints=False))
    return all(merge._run(mach, pname, image, args, fuel)
               == merge._run(mach, mname, image, mf.args_for(side, args),
                             fuel)
               for image, args in plans)


def test_walk_proves_no_mutant_side_whose_trials_fail(corpus, monkeypatch):
    # a mutant may keep a side correct (an edit on the other side's code),
    # and then the walk may prove it; a side it proves must pass all of its
    # trials, and the report must be the one the trials alone give
    rng, fuel = random.Random(2027), 10 ** 4
    valid = rejected = proved = 0
    for name, m, _ in corpus:
        for work in (m.clone(), extract_loops(m)):
            for n1, n2, mf in _candidates(work):
                for _ in range(16):
                    mutant = _mutant(mf, rng)
                    if mutant is None or check_function(mutant.function, work,
                                                        diags := []) or diags:
                        continue
                    valid += 1
                    rep = verify_merge(work, n1, n2, mutant, trials=TRIALS,
                                       seed=SEED, fuel=fuel)
                    rejected += not rep.passed
                    for side, pname in ((1, n1), (2, n2)):
                        if rep.proved[side - 1]:
                            proved += 1
                            assert _side_agrees(work, mutant, side, pname,
                                                fuel), (name, n1, n2, side)
                    with monkeypatch.context() as mp:
                        mp.setattr(merge, "weave_walk", _prove_nothing)
                        assert rep == verify_merge(work, n1, n2, mutant,
                                                   trials=TRIALS, seed=SEED,
                                                   fuel=fuel)
    assert valid > 400 and rejected > valid / 2 and proved > 50


@pytest.mark.parametrize("mode", ["FE+Merging", "FLE+Merging"])
def test_every_aligned_corpus_candidate_passes_its_trials(corpus, area_model,
                                                          monkeypatch, mode):
    # the evidence for merged codegen: with the walk off, prepare runs every
    # merged trial of every aligned candidate, and all pass; with it on,
    # the reports, records and funnel are the same
    from mergedse import dse
    reports = []
    verify = dse.verify_merge

    def spy(*args, **kw):
        reports.append(verify(*args, **kw))
        return reports[-1]
    monkeypatch.setattr(dse, "verify_merge", spy)

    def run():
        reports.clear()
        preps = [dse.prepare(m, [img], dse.PipelineConfig(mode=mode),
                             area_model) for _, m, img in corpus]
        return [(p.funnel, repr(p.merges)) for p in preps], list(reports)
    walked, walked_reports = run()
    monkeypatch.setattr(merge, "weave_walk", _prove_nothing)
    tried, tried_reports = run()
    assert len(tried_reports) == sum(f["aligned"] for f, _ in tried) > 60
    assert all(r.passed and r.proved == (False, False) for r in tried_reports)
    assert walked_reports == tried_reports and walked == tried
    assert all(r.proved == (True, True) for r in walked_reports)


def test_verification_runs_the_body_it_is_handed(pair_module):
    # the module already holds the intact candidate under its name: the
    # corrupted body handed in is what the walk and the trials check
    m = pair_module.clone()
    mf = merge_functions(m, "sel_a", "sel_b")
    broken = _corrupted(mf)
    want = verify_merge(m, "sel_a", "sel_b", broken, trials=TRIALS, seed=SEED)
    m.functions[mf.function.name] = mf.function
    got = verify_merge(m, "sel_a", "sel_b", broken, trials=TRIALS, seed=SEED)
    assert not want.passed and (got, got.proved) == (want, want.proved)

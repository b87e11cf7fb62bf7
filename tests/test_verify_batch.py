"""Batched verification against the per-trial reference.

`verify_merge` runs all trials of a call on one interpreter machine and
starts each run from a copy of its plan's heap template. The reference
below is verification as it ran before: per trial, a fresh Arena laid out
from the plan and one call of the public `interpret`. Both must give the
same outcome on every trial and the same report.
"""

import random
from dataclasses import replace

import pytest

from mergedse import merge
from mergedse.analysis import extract_loops, rank_pairs
from mergedse.ir import (Arena, Instr, InterpError, Module, Program,
                         clone_function, interpret)
from mergedse.merge import (MergeRejected, VerifyReport, merge_functions,
                            verify_merge)

TRIALS, SEED = 48, 7   # the pipeline default trial count


def _reference(m, n1, n2, mf, fuel):
    """(report, per-trial (parent, merged) outcomes, per-trial initial heap
    bytes) of verification run trial by trial through `interpret`."""
    mname = mf.function.name
    mm = Module({**m.functions, mname: mf.function}, m.entry)
    prog = Program(mm, footprints=False)
    rng = random.Random(SEED)
    sides = [[merge._draw_trial(mm.functions[n].params, rng)
              for _ in range(TRIALS)] for n in (n1, n2)]

    def run(fname, template, args):
        arena = Arena()
        arena.data[:] = template   # a fresh arena holding the plan's regions
        try:
            r = interpret(prog, fname, args, arena, fuel=fuel)
        except InterpError as e:
            return ("error:" + e.kind, None, None)
        return ("ok", merge._canon(r.value), r.heap)

    initial = [template for plans in sides for template, _ in plans]
    outcomes = []
    for side, pname, plans in zip((1, 2), (n1, n2), sides):
        for template, args_p in plans:
            out_p = run(pname, template, args_p)
            out_m = run(mname, template, mf.args_for(side, args_p))
            outcomes.append((out_p, out_m))
            if out_p != out_m:
                return VerifyReport(
                    (n1, n2), mname, TRIALS, False,
                    counterexample=(1 if side == 1 else 0, args_p),
                    detail=f"parent {out_p[0]} value/heap differs from "
                           f"merged {out_m[0]}"), outcomes, initial
        # a side whose parent never returns checked nothing of the body
        if all(out_p[0] != "ok" for out_p, _ in outcomes[-len(plans):]):
            return VerifyReport((n1, n2), mname, TRIALS, False,
                                detail=f"side {side} (@{pname}) never returns"
                                ), outcomes, initial
    return VerifyReport((n1, n2), mname, TRIALS, True), outcomes, initial


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
        sig = tuple(tuple(ty for _, ty in m.function(n).params)
                    for n in (n1, n2))
        trials = [(pname, t) for pname, side in
                  zip((n1, n2), self.memo[(SEED, TRIALS) + sig]) for t in side]
        outcomes = [(self.memo[(pname, fuel, pid)], out_m) for (pname, (
            pid, _, _)), out_m in zip(trials, self.merged_runs)]
        return rep, outcomes, [image for _, (_, image, _) in trials]


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
    rep, outcomes, images = batched.verify(m, n1, n2, mf, fuel)
    ref_rep, ref_outcomes, initial = _reference(m, n1, n2, mf, fuel)
    assert outcomes == ref_outcomes, (n1, n2, fuel)
    assert rep == ref_rep, (n1, n2, fuel)
    assert [bytes(image) for image in images] == initial, (n1, n2, fuel)
    for image, laid_out in zip(images, initial):
        batched.templates.setdefault(id(image), (image, laid_out))
    return rep


@pytest.mark.parametrize("mode", ["FE", "FLE"])
def test_batched_trials_match_per_trial_interpret(corpus, monkeypatch, mode):
    batched = _Batched(monkeypatch)
    results = []
    for name, m, _ in corpus:
        work = extract_loops(m) if mode == "FLE" else m.clone()
        # one shared memo per program, as prepare shares one; a low fuel
        # ends some runs mid-way, so fuel must be set afresh per run
        batched.memo = {}
        for n1, n2, mf in _candidates(work):
            for fuel in (10 ** 6, 40):
                results.append(_check(batched, work, n1, n2, mf, fuel).passed)
    assert results.count(True) > 50 and False in results
    # a corrupted body under a candidate's name, verified on the same memo
    # after the good body: nothing of the good one may carry over
    caught = 0
    for name, m, _ in corpus:
        work = extract_loops(m) if mode == "FLE" else m.clone()
        batched.memo = {}
        for n1, n2, mf in _candidates(work):
            broken = _corrupted(mf)
            if broken is None:
                continue
            assert _check(batched, work, n1, n2, mf, 10 ** 6).passed
            caught += not _check(batched, work, n1, n2, broken,
                                 10 ** 6).passed
    assert caught > 0
    # every template still holds the bytes it was laid out with
    assert len(batched.templates) > 100
    for image, laid_out in batched.templates.values():
        assert bytes(image) == laid_out

"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers. Tolerances are pinned here, not configurable.
"""

import random
import subprocess
import sys
import time

import numpy as np

from mergedse.analysis import extract_loops, rank_pairs, rank_pair_indices
from mergedse.cost import (
    _standardize, estimate_profitability, evaluate_model, mlp_loss_and_grads,
    synthetic_dataset, train_lasso, train_mlp,
)
from mergedse.dse import (
    MODES, PRESET_BUDGETS, PipelineConfig, partition_point, prepare,
)
import struct

from mergedse.ir import Arena, InterpError, Instr, interpret
from mergedse.merge import (
    MergeRejected, _align_key, align, default_weights, merge_functions,
    verify_merge,
)
from mergedse.partition import check_solution, solve, solve_bruteforce

from conftest import src_env
from trial_oracle import refute
from test_partition import rand_problem


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------

def test_criterion_01_merge_correctness(corpus):
    t0 = time.time()
    verified = 0
    failures = []
    for name, m0, _ in corpus:
        for variant, m in (("fe", m0), ("fle", extract_loops(m0))):
            for n1, n2, sim in rank_pairs(m, 0.3):
                try:
                    mf = merge_functions(m, n1, n2)
                except MergeRejected:
                    continue
                # proved on both sides, and agreeing with each parent on
                # 200 random trials of the oracle
                rep = verify_merge(m, mf)
                verified += 1
                why = [rep.detail] + [refute(m, mf, side, 200, 1234)
                                      for side in (1, 2)]
                if not rep.passed or any(why):
                    failures.append((name, variant, n1, n2, why))
    dt = time.time() - t0
    _report(1, verified >= 20 and not failures and dt < 60.0,
            f"{verified} merged pairs x 200 trials/side, "
            f"{len(failures)} mismatches, {dt:.1f}s (< 60s)")


def test_criterion_02_alignment_optimality():
    def brute(s1, s2, w, gap):
        memo = {}

        def rec(i, j):
            if (i, j) in memo:
                return memo[(i, j)]
            if i == len(s1) and j == len(s2):
                return 0.0
            best = float("-inf")
            if (i < len(s1) and j < len(s2)
                    and _align_key(s1[i], {}, "?1")
                    == _align_key(s2[j], {}, "?2")):
                best = rec(i + 1, j + 1) + w[s1[i].op]
            if i < len(s1):
                best = max(best, rec(i + 1, j) - gap)
            if j < len(s2):
                best = max(best, rec(i, j + 1) - gap)
            memo[(i, j)] = best
            return best

        return rec(0, 0)

    rng = random.Random(4321)
    ops = ["add", "sub", "mul", "sdiv", "load", "store", "call", "icmp"]
    w = default_weights()
    mismatches = 0
    for _ in range(100):
        s1 = [Instr(rng.choice(ops), "i32", "r", ())
              for _ in range(rng.randrange(1, 9))]
        s2 = [Instr(rng.choice(ops), "i32", "r", ())
              for _ in range(rng.randrange(1, 9))]
        a = align(s1, s2, w, 0.1)
        if abs(a.score - brute(s1, s2, w, 0.1)) > 1e-9:
            mismatches += 1
    _report(2, mismatches == 0,
            f"100 random pairs (len <= 8) vs exhaustive search, "
            f"{mismatches} mismatches")


def test_criterion_03_solver_optimality():
    t0 = time.time()
    rng = random.Random(777)
    mismatches = 0
    depth2 = 0
    for _ in range(200):
        p = rand_problem(rng)
        if any(len(p.descend[x]) > 1 for x in p.names):
            depth2 += 1
        s = solve(p)
        assert check_solution(p, s) == []
        if s.objective != solve_bruteforce(p).objective:
            mismatches += 1
    dt = time.time() - t0
    _report(3, mismatches == 0 and dt < 120.0,
            f"200 random instances (|P'| <= 14, {depth2} with deep merge "
            f"graphs), {mismatches} objective mismatches, {dt:.1f}s (< 120s)")


def test_criterion_04_monotonicity_and_dominance(corpus, area_model):
    bad = []
    for name, m, img in corpus:
        objectives = {}
        for mode in MODES:
            cfg = PipelineConfig(mode=mode)
            prep = prepare(m, [img], cfg, model=area_model)
            objs = []
            for b in PRESET_BUDGETS:
                sol, _ = partition_point(prep, cfg, b, 25, float("inf"))
                assert sol.optimal
                objs.append(sol.objective)
            for prev, cur, b in zip(objs, objs[1:], PRESET_BUDGETS[1:]):
                if cur > prev:
                    bad.append(f"{name}/{mode}: objective rose at budget {b}")
            objectives[mode] = objs
        for base in ("FE", "FLE"):
            for k, b in enumerate(PRESET_BUDGETS):
                if objectives[base + "+Merging"][k] > objectives[base][k]:
                    bad.append(f"{name}: {base}+Merging worse at budget {b}")
    _report(4, not bad,
            f"{len(corpus)} programs x 4 configurations x "
            f"{len(PRESET_BUDGETS)} budgets: monotone speedups and "
            f"merging dominance ({len(bad)} violations)")


def test_criterion_05_model_quality_orderings(trained_seed7_mlp):
    # MLP-600 is the session's seed-7 training; its seconds count in dt
    mlp600, train_s = trained_seed7_mlp
    t0 = time.time()
    _, X, y = synthetic_dataset(600)  # the canonical dataset
    split = int(0.8 * len(X))
    Xtr, ytr, Xte, yte = X[:split], y[:split], X[split:], y[split:]
    lasso600 = train_lasso(Xtr, ytr)
    # the 200-sample condition trains on the first 160 pool rows (80% of
    # 200) and is scored on the same held-out 120-row test set
    mlp200 = train_mlp(Xtr[:160], ytr[:160], seed=7)
    lasso200 = train_lasso(Xtr[:160], ytr[:160])
    _, m6 = evaluate_model(mlp600, Xte, yte)
    _, l6 = evaluate_model(lasso600, Xte, yte)
    _, m2 = evaluate_model(mlp200, Xte, yte)
    _, l2 = evaluate_model(lasso200, Xte, yte)
    dt = time.time() - t0 + train_s
    ok = (m6 < l6) and (m6 < m2) and (l6 < l2) and (m6 <= 0.30) and dt < 300
    _report(5, ok,
            f"MRE_test MLP-600 {m6:.3f} < LASSO-600 {l6:.3f}; "
            f"MLP-200 {m2:.3f} > MLP-600; LASSO-200 {l2:.3f} > LASSO-600; "
            f"MLP-600 <= 0.30; {dt:.0f}s (< 300s)")


def test_criterion_06_gradient_check():
    _, X, y = synthetic_dataset(64, seed=21)
    Xs, _, _ = _standardize(X)
    ys = (y - y.mean()) / y.std()
    rng = np.random.RandomState(5)
    dims = [X.shape[1], 40, 40, 40, 1]
    Ws = [rng.normal(0, np.sqrt(2.0 / dims[i]), (dims[i], dims[i + 1]))
          for i in range(len(dims) - 1)]
    bs = [rng.normal(0, 0.05, dims[i + 1]) for i in range(len(dims) - 1)]
    _, dW, _ = mlp_loss_and_grads(Ws, bs, Xs[:32], ys[:32], alpha=0.003)
    h = 1e-5
    worst = 0.0
    for _ in range(50):
        li = rng.randint(0, len(Ws))
        i = rng.randint(0, Ws[li].shape[0])
        j = rng.randint(0, Ws[li].shape[1])
        orig = Ws[li][i, j]
        Ws[li][i, j] = orig + h
        lp, _, _ = mlp_loss_and_grads(Ws, bs, Xs[:32], ys[:32], alpha=0.003)
        Ws[li][i, j] = orig - h
        lm, _, _ = mlp_loss_and_grads(Ws, bs, Xs[:32], ys[:32], alpha=0.003)
        Ws[li][i, j] = orig
        fd = (lp - lm) / (2 * h)
        worst = max(worst, abs(dW[li][i, j] - fd)
                    / max(abs(dW[li][i, j]), abs(fd), 1e-8))
    _report(6, worst < 1e-4,
            f"backprop vs central differences on 50 coordinates, "
            f"worst relative error {worst:.2e} (< 1e-4)")


def _random_entry_args(f, rng):
    plan = []
    for _, ty in f.params:
        if ty == "ptr":
            plan.append(("region", bytes(rng.randrange(256) for _ in range(64))))
        elif ty == "i1":
            plan.append(("scalar", rng.randrange(2)))
        elif ty in ("i32", "i64"):
            plan.append(("scalar", rng.randrange(0, 17)))
        else:
            plan.append(("scalar", round(rng.uniform(-8.0, 8.0), 3)))
    return plan


def _run_plan(m, plan, fuel=10 ** 6):
    arena = Arena()
    args = []
    for k, (kind, v) in enumerate(plan):
        args.append(arena.add_region(f"r{k}", v) if kind == "region" else v)
    try:
        r = interpret(m, m.entry, args, arena, fuel=fuel)
        value = struct.pack("<d", r.value) if isinstance(r.value, float) \
            else r.value
        return ("ok", value, r.heap)
    except InterpError as e:
        return ("error:" + e.kind, None, None)


def test_criterion_07_loop_extraction_preserves_semantics(corpus):
    t0 = time.time()
    mismatches = 0
    for name, m, _ in corpus:
        me = extract_loops(m)
        rng = random.Random(hash(name) % (2 ** 31))
        entry = m.functions[m.entry]
        for _ in range(100):
            plan = _random_entry_args(entry, rng)
            if _run_plan(m, plan) != _run_plan(me, plan):
                mismatches += 1
    _report(7, mismatches == 0,
            f"{len(corpus)} programs x 100 random inputs, bit-identical "
            f"results and heaps before/after extraction "
            f"({mismatches} mismatches, {time.time() - t0:.1f}s)")


def test_criterion_08_ranking_scalability(area_model):
    n = 3000
    _, X, _ = synthetic_dataset(n, seed=99)
    vectors = X.astype(np.int64)
    t0 = time.time()
    i_idx, j_idx, sims = rank_pair_indices(vectors, min_similarity=0.0,
                                           min_size=5)
    areas = area_model.predict(X)
    dt = time.time() - t0
    npairs = n * (n - 1) // 2
    _report(8, dt < 30.0 and len(areas) == n and len(i_idx) <= npairs,
            f"fingerprint ranking over {n} functions "
            f"({npairs} pairs, {len(i_idx)} above the floor) plus area "
            f"prediction in {dt:.1f}s (target 10s, hard limit 30s)")


def test_criterion_09_ep_arithmetic():
    ok = True
    ok &= estimate_profitability(100, 50, 40, 20, 70, 1000) == 0.02
    sw1, sw2, hw1, hw2 = 30.0, 20.0, 20.0, 10.0
    ok &= estimate_profitability(sw1, sw2, hw1, hw2, hw1 + hw2, 100.0) == \
        (sw1 - hw1) / 100.0
    ok &= estimate_profitability(sw1, sw2, hw1, hw2, sw2 + hw1, 100.0) == 0.0
    rng = random.Random(6)
    asym = 0
    for _ in range(1000):
        v = [rng.uniform(0, 1000) for _ in range(5)] + [rng.uniform(1, 1000)]
        a = estimate_profitability(*v)
        b = estimate_profitability(v[1], v[0], v[3], v[2], v[4], v[5])
        if abs(a - b) > 1e-12 * max(1.0, abs(a)):
            asym += 1
    _report(9, ok and asym == 0,
            f"hand-computed examples exact; parent-swap symmetric on 1000 "
            f"random tuples ({asym} asymmetric)")


def test_criterion_10_determinism(corpus, model_file, tmp_path):
    from mergedse.dse import corpus_dir
    t0 = time.time()
    diffs = []
    for name, _, _ in corpus:
        irp = corpus_dir() / f"{name}.ir"
        hp = corpus_dir() / f"{name}.heap"
        outs = []
        for run in (1, 2):
            out = tmp_path / f"{name}-{run}"
            r = subprocess.run(
                [sys.executable, "-m", "mergedse.cli", "dse",
                 "--model", model_file, "--seed", "7", "--budget", "6000",
                 str(irp), str(hp), "-o", str(out)],
                capture_output=True, text=True, env=src_env())
            assert r.returncode == 0, r.stderr
            outs.append((out.with_suffix(".csv").read_bytes(),
                         out.with_suffix(".json").read_bytes()))
        if outs[0] != outs[1]:
            diffs.append(name)
    _report(10, not diffs,
            f"two identical seeded runs per corpus program produce "
            f"byte-identical CSV/JSON ({len(diffs)} diffs, "
            f"{time.time() - t0:.0f}s)")

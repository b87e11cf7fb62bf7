import json
from fractions import Fraction

import numpy as np
import pytest

from mergedse.analysis import build_call_graph
from mergedse.cost import (
    DEFAULT_HW_CYCLES, DEFAULT_SW_CYCLES, estimate_costs, load_model,
    save_model, synthetic_dataset, train_mlp,
)
from mergedse import dse
from mergedse.dse import (
    MODES, PipelineConfig, partition_point, prepare, report_to_dict,
    reports_to_csv, reports_to_json, run_pipeline, sweep, validate_report_json,
)
from mergedse.ir import (
    HeapImage, IRError, Module, parse_module, run_heap_image,
)
from mergedse.merge import verify_merge
from mergedse.partition import _objective, solve, solve_bruteforce

FAST = dict(verify_trials=8)


def _corpus_subset(corpus, names):
    return [c for c in corpus if c[0] in names]


def test_bundled_model_matches_training(tmp_path, trained_seed7_mlp):
    # Compares a fresh training with the shipped file so it cannot go stale.
    # Fails by design on a platform whose floating point training differs.
    path = tmp_path / "mlp-seed7.txt"
    save_model(trained_seed7_mlp[0], str(path))
    assert path.read_bytes() == dse.BUNDLED_MODEL.read_bytes()


def test_default_model_loads_seed7_and_trains_other_seeds(monkeypatch):
    calls = []

    def fake_train(X, y, seed=0, **kw):
        calls.append(seed)
        return train_mlp(X, y, seed=seed, epochs=1)

    monkeypatch.setattr(dse, "train_mlp", fake_train)
    _, X, _ = synthetic_dataset(30, seed=8)
    bundled = dse.default_model(7)
    assert calls == []
    assert np.array_equal(bundled.predict(X),
                          load_model(dse.BUNDLED_MODEL).predict(X))
    dse.default_model(3)
    assert calls == [3]


@pytest.mark.parametrize("mode", ["FE+Merging", "FLE+Merging"])
def test_candidate_areas_match_probe_module_costing(corpus, area_model,
                                                    monkeypatch, mode):
    # Reference: the former candidate costing, which deep-cloned the module,
    # added the candidate and ran estimate_costs over that probe module.
    verified = []

    def spy(work, n1, n2, mf, **kw):
        rep = verify_merge(work, n1, n2, mf, **kw)
        if rep.passed:
            verified.append((Module(dict(work.functions), work.entry),
                             mf.function))
        return rep

    monkeypatch.setattr(dse, "verify_merge", spy)
    accepted = 0
    for name, m, img in _corpus_subset(corpus, ["blur", "checksum", "reduce"]):
        verified.clear()
        prep = prepare(m, [img], PipelineConfig(mode=mode), area_model)
        assert len(verified) == len(prep.merges) > 0
        for (work, f), record in zip(verified, prep.merges):
            probe = work.clone()
            probe.functions[f.name] = f
            old = estimate_costs(probe, prep.trace, area_model,
                                 build_call_graph(probe))[f.name]
            assert record.name == f.name
            assert record.area.hex() == old.area.hex(), (name, f.name)
            if f.name in prep.merge_parents:
                accepted += 1
                assert (prep.costs[f.name].own_area.hex()
                        == old.own_area.hex()), (name, f.name)
    assert accepted > 0


def test_budget_zero_speedup_exactly_one(corpus, area_model):
    name, m, img = _corpus_subset(corpus, ["poly"])[0]
    for mode in MODES:
        cfg = PipelineConfig(mode=mode, area_budget=0.0, **FAST)
        r = run_pipeline(m, [img], cfg, model=area_model, program=name)
        assert r.speedup == 1.0
        assert r.objective == r.baseline
        assert r.hardware == [] and r.merged_hw == []


def test_two_function_module_hand_computation(area_model):
    m = parse_module("""
    func @hot(%buf: ptr, %n: i32) -> i32 {
    e:
      %i = const i32 0
      %acc = const i32 0
      jmp h
    h:
      %c = icmp slt i32 %i, %n
      br %c, b, x
    b:
      %p = gep i32 %buf, %i
      %v = load i32, %p
      %t = mul i32 %v, %v
      %acc = add i32 %acc, %t
      %i = add i32 %i, 1
      jmp h
    x:
      ret i32 %acc
    }
    func @main(%buf: ptr, %n: i32) -> i32 {
    e:
      %r = call i32 @hot(%buf, %n)
      %r = add i32 %r, 1
      ret i32 %r
    }
    """)
    img = HeapImage.parse("region buf 64 " + "00" * 64 +
                          "\narg 0 = buf\narg 1 = 16")
    cfg = PipelineConfig(mode="FE", area_budget=0.0, latency=25, **FAST)
    prep = prepare(m, [img], cfg, model=area_model)
    hot_area = prep.costs["hot"].own_area
    main_area = prep.costs["main"].own_area
    budget = hot_area + 0.5 * main_area  # hot fits, hot+main does not

    sol, problem = partition_point(prep, cfg, budget, 25, float("inf"))
    assert sol.hwv == {"hot": 1}
    assert sol.swv == {"main": 1}

    trace = prep.trace
    clock = Fraction(1, 10 ** 9)
    sw_main = sum(DEFAULT_SW_CYCLES[op] * c
                  for op, c in trace.counts["main"].items()) * clock
    hw_hot = sum(DEFAULT_HW_CYCLES[op] * c
                 for op, c in trace.counts["hot"].items()) * clock
    frontier = trace.calls_between("main", "hot") * 25 * clock
    assert sol.objective == sw_main + hw_hot + frontier
    assert float(prep.baseline / sol.objective) > 1.0


def test_funnel_monotonic(corpus, area_model):
    for name, m, img in _corpus_subset(corpus, ["blur", "reduce", "chain"]):
        cfg = PipelineConfig(mode="FLE+Merging", **FAST)
        r = run_pipeline(m, [img], cfg, model=area_model, program=name)
        f = r.funnel
        assert (f["ranked"] >= f["aligned"] >= f["verified"]
                >= f["area_win"] >= f["ep_positive"] >= f["selected"])


def test_selected_merges_carry_passing_verification(corpus, area_model):
    name, m, img = _corpus_subset(corpus, ["blur"])[0]
    cfg = PipelineConfig(mode="FLE+Merging", area_budget=3000.0, **FAST)
    r = run_pipeline(m, [img], cfg, model=area_model, program=name)
    selected = [mr for mr in r.merges if mr.selected]
    assert r.n_merged_selected == len(r.merged_hw) == len(selected)
    for mr in selected:
        assert mr.verified and mr.trials >= 1
        assert mr.area < mr.parents_area
        assert mr.ep > 0


def test_merging_dominance_spot(corpus, area_model):
    for name, m, img in _corpus_subset(corpus, ["blur", "poly"]):
        for base_mode in ("FE", "FLE"):
            base_cfg = PipelineConfig(mode=base_mode, **FAST)
            merge_cfg = PipelineConfig(mode=base_mode + "+Merging", **FAST)
            pb = prepare(m, [img], base_cfg, model=area_model)
            pm = prepare(m, [img], merge_cfg, model=area_model)
            for budget in (3000.0, 30000.0):
                ob, _ = partition_point(pb, base_cfg, budget, 25, float("inf"))
                om, _ = partition_point(pm, merge_cfg, budget, 25, float("inf"))
                assert om.objective <= ob.objective


def test_breakdown_sums_to_objective(corpus, area_model):
    name, m, img = _corpus_subset(corpus, ["decode"])[0]
    cfg = PipelineConfig(mode="FLE+Merging", area_budget=8000.0, **FAST)
    r = run_pipeline(m, [img], cfg, model=area_model, program=name)
    assert r.sw_pct + r.hw_pct + r.comm_pct == pytest.approx(100.0, abs=0.1)


def test_fle_and_fe_interpret_equal_with_unit_baselines(corpus, area_model):
    from mergedse.analysis import extract_loops
    for name, m, img in _corpus_subset(corpus, ["poly", "checksum"]):
        r_fe = run_heap_image(m, img)
        r_fle = run_heap_image(extract_loops(m), img)
        assert r_fe.value == r_fle.value
        assert r_fe.heap == r_fle.heap
        for mode in ("FE", "FLE"):
            cfg = PipelineConfig(mode=mode, area_budget=0.0, **FAST)
            rep = run_pipeline(m, [img], cfg, model=area_model, program=name)
            assert rep.speedup == 1.0


def test_sweep_speedup_monotone_in_budget(corpus, area_model):
    name, m, img = _corpus_subset(corpus, ["reduce"])[0]
    cfg = PipelineConfig(**FAST)
    reports = sweep(m, [img], cfg, budgets=[1000, 5000, 20000, 100000],
                    latencies=[25], bandwidths=[float("inf")],
                    modes=list(MODES), model=area_model, program=name)
    for mode in MODES:
        rows = [r for r in reports if r.mode == mode]
        speeds = [r.speedup for r in rows]
        assert speeds == sorted(speeds)


def test_comm_share_rises_with_latency_at_fixed_selection(corpus, area_model):
    name, m, img = _corpus_subset(corpus, ["histo"])[0]
    cfg = PipelineConfig(mode="FE", **FAST)
    prep = prepare(m, [img], cfg, model=area_model)
    sol, p25 = partition_point(prep, cfg, 2000.0, 25, float("inf"))
    assert any(sol.frontier.values()), "expected a software-to-hardware edge"
    from mergedse.partition import build_problem
    p500 = build_problem(prep.module, prep.costs, prep.trace,
                         prep.merge_parents, latency=500,
                         bandwidth=float("inf"), area_budget=2000.0)
    obj25, _ = _objective(p25, sol.hwv, sol.swv)
    obj500, _ = _objective(p500, sol.hwv, sol.swv)
    comm25 = obj25 - sum((p25.hw[n] for n in sol.hwv), Fraction(0)) \
        - sum((p25.sw[n] for n in sol.swv), Fraction(0))
    comm500 = obj500 - sum((p500.hw[n] for n in sol.hwv), Fraction(0)) \
        - sum((p500.sw[n] for n in sol.swv), Fraction(0))
    assert comm500 / obj500 >= comm25 / obj25


def test_free_interconnect_matches_bruteforce(corpus, area_model):
    for name, m, img in _corpus_subset(corpus, ["poly", "chain", "geometry"]):
        for mode in MODES:
            cfg = PipelineConfig(mode=mode, latency=0,
                                 bandwidth=float("inf"), **FAST)
            prep = prepare(m, [img], cfg, model=area_model)
            if len(prep.module.functions) > 20:
                continue
            sol, problem = partition_point(prep, cfg, 9000.0, 0, float("inf"))
            oracle = solve_bruteforce(problem)
            assert sol.objective == oracle.objective


def test_csv_and_json_emission(corpus, area_model):
    name, m, img = _corpus_subset(corpus, ["histo"])[0]
    cfg = PipelineConfig(**FAST)
    reports = sweep(m, [img], cfg, budgets=[2000, 6000, 20000],
                    latencies=[25], bandwidths=[float("inf")],
                    modes=["FE", "FLE+Merging"], model=area_model,
                    program=name)
    assert len(reports) == 3 * 2

    csv = reports_to_csv(reports)
    lines = csv.strip().split("\n")
    assert lines[0] == ("config,budget_luts,latency_cycles,bandwidth_bps,"
                        "objective_s,speedup,area_used,comm_pct,"
                        "n_merged_selected")
    assert len(lines) == 1 + len(reports)

    assert reports_to_csv([]).strip() == lines[0]

    doc = json.loads(reports_to_json(reports))
    assert validate_report_json(doc) == []
    assert validate_report_json({"schema": "nope", "reports": []}) != []
    broken = json.loads(reports_to_json(reports))
    del broken["reports"][0]["speedup"]
    assert any("speedup" in b for b in validate_report_json(broken))


def test_zero_bandwidth_rejected(corpus, area_model, monkeypatch):
    # 0 B/s would make every transfer infinitely slow, not free
    with pytest.raises(IRError, match="bandwidth must be positive"):
        PipelineConfig(bandwidth=0.0)
    name, m, img = _corpus_subset(corpus, ["poly"])[0]
    # every grid value is checked before any mode is prepared
    monkeypatch.setattr(dse, "prepare", None)
    grid = dict(budgets=[6000], latencies=[25], bandwidths=[float("inf")])
    for key, bad, match in [
            ("bandwidths", [float("inf"), 0.0], "bandwidth must be positive"),
            ("bandwidths", [-1e9], "bandwidth must be non-negative"),
            ("latencies", [25, -500], "latency must be non-negative"),
            ("budgets", [-5], "area_budget must be non-negative")]:
        with pytest.raises(IRError, match=match):
            sweep(m, [img], PipelineConfig(**FAST), **{**grid, key: bad},
                  modes=["FE"], model=area_model, program=name)


def test_non_finite_values_rejected(corpus, area_model, monkeypatch):
    nan, inf = float("nan"), float("inf")
    for key, bad, match in [
            ("area_budget", nan, "area_budget must be a number"),
            ("area_budget", inf, "area_budget must be finite"),
            ("latency", nan, "latency must be a number"),
            ("latency", inf, "latency must be finite"),
            ("bandwidth", nan, "bandwidth must be a number"),
            ("bandwidth", -inf, "bandwidth must be non-negative"),
            ("clock", nan, "clock must be a number"),
            ("clock", inf, "clock must be finite")]:
        with pytest.raises(IRError, match=match):
            PipelineConfig(**{key: bad})
    assert PipelineConfig(bandwidth=inf).bandwidth == inf  # unlimited
    name, m, img = _corpus_subset(corpus, ["poly"])[0]
    monkeypatch.setattr(dse, "prepare", None)
    grid = dict(budgets=[6000], latencies=[25], bandwidths=[inf])
    for key, bad in [("budgets", [6000, nan]), ("budgets", [inf]),
                     ("bandwidths", [nan])]:
        with pytest.raises(IRError, match="must be"):
            sweep(m, [img], PipelineConfig(**FAST), **{**grid, key: bad},
                  modes=["FE"], model=area_model, program=name)


def test_no_trials_or_seeds_rejected():
    # zero trials verified every merge vacuously; zero seeds gave no alignment
    for key in ("verify_trials", "seeds"):
        for bad in (0, -3):
            with pytest.raises(IRError, match=f"{key} must be at least 1"):
                PipelineConfig(**{key: bad})
    assert PipelineConfig(verify_trials=1, seeds=1).verify_trials == 1

def test_solver_status_reaches_report(corpus, area_model, monkeypatch):
    name, m, img = _corpus_subset(corpus, ["poly"])[0]
    cfg = PipelineConfig(mode="FE", area_budget=14400.0, **FAST)
    r = run_pipeline(m, [img], cfg, model=area_model, program=name)
    assert r.optimal and r.solver_nodes > 5
    monkeypatch.setattr(dse, "solve", lambda p: solve(p, node_limit=5))
    r = run_pipeline(m, [img], cfg, model=area_model, program=name)
    assert r.optimal is False
    assert r.solver_nodes == 5
    assert "optimal" not in report_to_dict(r)  # dse-report/v1 is unchanged


def test_reduce_merged_solve_node_count(corpus, area_model):
    # ROADMAP target: at least 10x fewer nodes than the 34,084 a bound that
    # skips merged groups needs on this instance
    name, m, img = _corpus_subset(corpus, ["reduce"])[0]
    cfg = PipelineConfig(mode="FLE+Merging")
    prep = prepare(m, [img], cfg, area_model)
    assert len(prep.merge_parents) >= 5
    sol, problem = partition_point(prep, cfg, 30000.0, 25, float("inf"))
    assert sol.optimal
    assert sol.nodes <= 3400


def test_sweep_rejects_empty_lists(corpus, area_model):
    name, m, img = corpus[0]
    with pytest.raises(Exception, match="non-empty"):
        sweep(m, [img], PipelineConfig(**FAST), budgets=[], model=area_model)


def test_pipeline_config_validation():
    with pytest.raises(Exception, match="unknown mode"):
        PipelineConfig(mode="FE+Magic")
    with pytest.raises(Exception, match="non-negative"):
        PipelineConfig(area_budget=-1.0)

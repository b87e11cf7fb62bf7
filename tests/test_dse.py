import json
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergedse.analysis import build_call_graph
from mergedse.cost import (
    DEFAULT_HW_CYCLES, DEFAULT_SW_CYCLES, estimate_costs, load_model,
    module_rows, save_model, synthetic_dataset, train_lasso, train_mlp,
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
    # prepare prices a candidate from its own two rows instead, and must keep
    # every bit of that, on every corpus program.
    verified = []

    def spy(work, mf, **kw):
        rep = verify_merge(work, mf, **kw)
        if rep.passed:
            verified.append((Module(dict(work.functions), work.entry),
                             mf.function))
        return rep

    monkeypatch.setattr(dse, "verify_merge", spy)
    accepted = 0
    for name, m, img in corpus:
        verified.clear()
        prep = prepare(m, [img], PipelineConfig(mode=mode), area_model)
        assert len(verified) == len(prep.merges) > 0
        for (work, f), record in zip(verified, prep.merges):
            probe = work.clone()
            probe.functions[f.name] = f
            old = estimate_costs(module_rows(probe, build_call_graph(probe)),
                                 prep.trace, area_model)[f.name]
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
        cfg = PipelineConfig(mode=mode, area_budget=0.0)
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
    cfg = PipelineConfig(mode="FE", area_budget=0.0, latency=25)
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
        cfg = PipelineConfig(mode="FLE+Merging")
        r = run_pipeline(m, [img], cfg, model=area_model, program=name)
        f = r.funnel
        assert (f["ranked"] >= f["aligned"] >= f["verified"]
                >= f["area_win"] >= f["ep_positive"] >= f["selected"])


def test_selected_merges_carry_passing_verification(corpus, area_model):
    name, m, img = _corpus_subset(corpus, ["blur"])[0]
    cfg = PipelineConfig(mode="FLE+Merging", area_budget=3000.0)
    r = run_pipeline(m, [img], cfg, model=area_model, program=name)
    selected = [mr for mr in r.merges if mr.name in r.merged_hw]
    assert r.n_merged_selected == len(r.merged_hw) == len(selected)
    for mr in selected:
        assert mr.area < mr.parents_area
        assert mr.ep > 0
    # only proved merges get a record; v1 still writes its two constants
    records = json.loads(reports_to_json([r]))["reports"][0]["merges"]
    assert {(d["verified"], d["trials"]) for d in records} == {(True, 48)}


def test_sweep_points_share_one_merge_record_list(corpus, area_model):
    # the mode's records are not copied per point; "selected" is read from
    # each point's merged_hw when the report is emitted
    name, m, img = _corpus_subset(corpus, ["reduce"])[0]
    cfg = PipelineConfig(mode="FLE+Merging")
    reports = sweep(m, [img], cfg, budgets=[1000, 6000], latencies=[25],
                    bandwidths=[float("inf")], modes=["FLE+Merging"],
                    model=area_model, program=name)
    assert reports[0].merges is reports[1].merges
    assert reports[0].merged_hw != reports[1].merged_hw
    for r in reports:
        d = report_to_dict(r)
        assert [mr["selected"] for mr in d["merges"]] == [
            mr.name in r.merged_hw for mr in r.merges]
        assert list(d["merges"][0])[-1] == "selected"


def test_merging_dominance_spot(corpus, area_model):
    for name, m, img in _corpus_subset(corpus, ["blur", "poly"]):
        for base_mode in ("FE", "FLE"):
            base_cfg = PipelineConfig(mode=base_mode)
            merge_cfg = PipelineConfig(mode=base_mode + "+Merging")
            pb = prepare(m, [img], base_cfg, model=area_model)
            pm = prepare(m, [img], merge_cfg, model=area_model)
            for budget in (3000.0, 30000.0):
                ob, _ = partition_point(pb, base_cfg, budget, 25, float("inf"))
                om, _ = partition_point(pm, merge_cfg, budget, 25, float("inf"))
                assert om.objective <= ob.objective


def test_breakdown_sums_to_objective(corpus, area_model):
    name, m, img = _corpus_subset(corpus, ["decode"])[0]
    cfg = PipelineConfig(mode="FLE+Merging", area_budget=8000.0)
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
            cfg = PipelineConfig(mode=mode, area_budget=0.0)
            rep = run_pipeline(m, [img], cfg, model=area_model, program=name)
            assert rep.speedup == 1.0


def test_sweep_speedup_monotone_in_budget(corpus, area_model):
    name, m, img = _corpus_subset(corpus, ["reduce"])[0]
    cfg = PipelineConfig()
    reports = sweep(m, [img], cfg, budgets=[1000, 5000, 20000, 100000],
                    latencies=[25], bandwidths=[float("inf")],
                    modes=list(MODES), model=area_model, program=name)
    for mode in MODES:
        rows = [r for r in reports if r.mode == mode]
        speeds = [r.speedup for r in rows]
        assert speeds == sorted(speeds)


def test_comm_share_rises_with_latency_at_fixed_selection(corpus, area_model):
    name, m, img = _corpus_subset(corpus, ["histo"])[0]
    cfg = PipelineConfig(mode="FE")
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
                                 bandwidth=float("inf"))
            prep = prepare(m, [img], cfg, model=area_model)
            if len(prep.module.functions) > 20:
                continue
            sol, problem = partition_point(prep, cfg, 9000.0, 0, float("inf"))
            oracle = solve_bruteforce(problem)
            assert sol.objective == oracle.objective


def test_csv_and_json_emission(corpus, area_model):
    name, m, img = _corpus_subset(corpus, ["histo"])[0]
    cfg = PipelineConfig()
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


def _plain_json(reports):
    """The reference emission: one json.dumps of the whole document."""
    doc = {"schema": dse.REPORT_SCHEMA,
           "reports": [report_to_dict(r) for r in reports]}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def test_json_emission_equals_plain_dumps(corpus, area_model):
    # reports_to_json encodes each shared record once per document and
    # splices it in; the bytes must be those of one plain json.dumps
    grid = dict(budgets=[3000, 30000], latencies=dse.PRESET_LATENCIES,
                bandwidths=dse.PRESET_BANDWIDTHS)
    null_ep = flipped = 0
    for name, m, img in corpus:
        reports = sweep(m, [img], PipelineConfig(), **grid,
                        modes=["FLE+Merging"], model=area_model, program=name)
        assert reports_to_json(reports) == _plain_json(reports), name
        for mr in reports[0].merges:
            null_ep += mr.ep != mr.ep
            flipped += len({mr.name in r.merged_hw for r in reports}) == 2
    assert null_ep and flipped   # records emitted with "ep": null, and
    # records selected at some points of a sweep and not at others

    name, m, img = _corpus_subset(corpus, ["reduce"])[0]
    two = sweep(m, [img], PipelineConfig(), budgets=[3000, 3000],
                latencies=[25], bandwidths=[float("inf"), 4e9],
                modes=["FE", "FLE+Merging"], model=area_model, program=name)
    assert two[0] is two[2] and not two[0].merges and two[-1].merges
    r = two[-1]
    # points of one record list with different selections, and a report
    # with its own copy of the list next to reports sharing the original
    picked = [replace(r, merged_hw=[mr.name]) for mr in r.merges[:3]]
    own = replace(r, merges=list(r.merges))
    for reports in ([], two, two[:2], [r, r, two[0], r], picked, [r],
                    [own, r, r], [replace(r, merges=[])]):
        assert reports_to_json(reports) == _plain_json(reports)

    # exact objectives cannot overflow; the floats derived from them and a
    # shared record's fields still refuse to encode as non-finite
    inf = float("inf")
    bad_record = replace(r.merges[0], area=inf)
    for bad in (replace(r, speedup=inf), replace(r, comm_pct=float("nan")),
                replace(r, merges=[bad_record, *r.merges])):
        for emit in (_plain_json, reports_to_json):
            with pytest.raises(ValueError, match="not JSON compliant"):
                emit([two[0], bad])


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
            sweep(m, [img], PipelineConfig(), **{**grid, key: bad},
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
            sweep(m, [img], PipelineConfig(), **{**grid, key: bad},
                  modes=["FE"], model=area_model, program=name)


def test_no_trials_or_seeds_rejected():
    # zero trials verified every merge vacuously; verification now proves
    # each merge and takes no trial count (zero seeds: test_merge)
    with pytest.raises(TypeError, match="verify_trials"):
        PipelineConfig(verify_trials=8)

def test_solver_status_reaches_report(corpus, area_model, monkeypatch):
    name, m, img = _corpus_subset(corpus, ["poly"])[0]
    cfg = PipelineConfig(mode="FE", area_budget=14400.0)
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
        sweep(m, [img], PipelineConfig(), budgets=[], model=area_model)


def test_sweep_prepares_each_distinct_mode_once(corpus, area_model,
                                                monkeypatch):
    # a repeated mode was prepared again (2 calls for 4 rows) and a
    # repeated grid point solved again (4 solves); it still gives one row
    # per grid point, with the bytes of a single preparation and solve
    name, m, img = _corpus_subset(corpus, ["poly"])[0]
    cfg = PipelineConfig()
    modes, solved, real, real_solve = [], [], dse.prepare, dse.solve

    def counted(m, images, cfg, model):
        modes.append(cfg.mode)
        return real(m, images, cfg, model)

    def counted_solve(problem):
        solved.append(problem.area_budget)
        return real_solve(problem)
    monkeypatch.setattr(dse, "prepare", counted)
    monkeypatch.setattr(dse, "solve", counted_solve)
    grid = dict(latencies=[25], bandwidths=[float("inf")], model=area_model,
                program=name)
    twice = sweep(m, [img], cfg, budgets=[6000, 6000], modes=["FE", "FE"],
                  **grid)
    assert modes == ["FE"]
    assert solved == [6000]
    once = sweep(m, [img], cfg, budgets=[6000], modes=["FE"], **grid)
    assert reports_to_csv(twice) == reports_to_csv(once * 4)
    assert reports_to_json(twice) == reports_to_json(once * 4)


def test_pipeline_config_validation():
    with pytest.raises(Exception, match="unknown mode"):
        PipelineConfig(mode="FE+Magic")
    with pytest.raises(Exception, match="non-negative"):
        PipelineConfig(area_budget=-1.0)


def test_pipeline_config_rejects_a_table_key_that_is_not_an_opcode():
    # as the config file rejects `hw.nosuch`: a table key names an opcode
    from mergedse.cost import DEFAULT_HW_CYCLES, DEFAULT_SW_CYCLES
    for side, table in (("sw", DEFAULT_SW_CYCLES), ("hw", DEFAULT_HW_CYCLES)):
        for bad in ({**table, "nosuch": 1}, {"nosuch": 1}):  # full or partial
            with pytest.raises(IRError) as e:
                PipelineConfig(**{f"{side}_table": bad})
            assert str(e.value) == f"{side}_table key 'nosuch' is not an opcode"
        assert PipelineConfig(**{f"{side}_table": dict(table)})


def test_pipeline_config_rejects_a_cycle_count_that_is_not_finite():
    # NaN passes `cycles < 0`; both would fail late, in exact pricing
    for side in ("sw", "hw"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(IRError) as e:
                PipelineConfig(**{f"{side}_table": {"add": bad}})
            assert str(e.value) == (f"{side}_table['add'] must be a finite "
                                    f"number, got {bad}")
        with pytest.raises(IRError, match="must be non-negative"):
            PipelineConfig(**{f"{side}_table": {"add": -float("inf")}})


def test_a_partial_cycle_table_takes_the_defaults_for_the_rest(corpus,
                                                               area_model):
    # a library config's table overrides the defaults it names, as a config
    # file's `hw.op` lines do: without `select`, the merging modes price
    # glue at the default select cycles, and every report is the default's
    partial = {op: c for op, c in DEFAULT_HW_CYCLES.items() if op != "select"}
    for name, m, img in corpus:
        for mode in ("FE+Merging", "FLE+Merging"):
            got, want = (
                [run_pipeline(m, [img], PipelineConfig(mode=mode, **table),
                              model=area_model, program=name)]
                for table in ({"hw_table": partial}, {}))
            assert reports_to_csv(got) == reports_to_csv(want), (name, mode)
            assert reports_to_json(got) == reports_to_json(want), (name, mode)
    # an entry still overrides its default
    name, m, img = _corpus_subset(corpus, ["poly"])[0]
    costs = [prepare(m, [img], PipelineConfig(mode="FE", **table),
                     model=area_model).costs
             for table in ({"hw_table": {"mul": 50}}, {})]
    assert any(costs[0][n].hw > costs[1][n].hw for n in costs[1])
    assert all(costs[0][n].sw == costs[1][n].sw for n in costs[1])


# ---------------------------------------------------------------------------
# Footprints are profiled only when a finite bandwidth reads them
# ---------------------------------------------------------------------------

def test_infinite_bandwidth_reports_equal_profiling_with_footprints(
        corpus, area_model, monkeypatch):
    # every corpus program and mode at infinite bandwidth, as `mergedse dse`
    # runs them: CSV and JSON equal a run whose profiles record footprints
    def reports():
        return [run_pipeline(m, [img], PipelineConfig(mode=mode),
                             model=area_model, program=name)
                for name, m, img in corpus for mode in MODES]
    lean = reports()
    asked, program = [], dse.Program

    def forced(m, footprints):
        asked.append(footprints)
        return program(m, True)
    monkeypatch.setattr(dse, "Program", forced)
    full = reports()
    assert len(asked) == len(corpus) * len(MODES) and not any(asked)
    assert reports_to_csv(lean) == reports_to_csv(full)
    assert reports_to_json(lean) == reports_to_json(full)


def test_sweep_with_a_finite_bandwidth_keeps_footprints(corpus, area_model,
                                                        monkeypatch):
    # one finite bandwidth in the list: each mode's profile records
    # footprints, and every row equals its own run_pipeline call
    name, m, img = _corpus_subset(corpus, ["histo"])[0]
    cfg = PipelineConfig()
    preps, real = [], dse.prepare

    def kept(*args, **kw):
        preps.append(real(*args, **kw))
        return preps[-1]
    monkeypatch.setattr(dse, "prepare", kept)
    reports = sweep(m, [img], cfg, budgets=[2000, 20000], latencies=[25],
                    bandwidths=[float("inf"), 1e9],
                    modes=["FE", "FLE+Merging"], model=area_model,
                    program=name)
    assert len(preps) == 2
    assert all(any(p.trace.edge_bytes.values()) for p in preps)
    singles = [run_pipeline(m, [img], PipelineConfig(**{
        **cfg.__dict__, "mode": r.mode, "area_budget": r.budget,
        "latency": r.latency, "bandwidth": r.bandwidth}),
        model=area_model, program=name) for r in reports]
    assert ([report_to_dict(r) for r in reports]
            == [report_to_dict(r) for r in singles])
    # the bytes are priced: a finite bandwidth costs more somewhere
    pairs = list(zip(reports[::2], reports[1::2]))
    assert all(r.bandwidth == float("inf") and s.bandwidth == 1e9
               for r, s in pairs)
    assert any(s.objective > r.objective for r, s in pairs)


def test_prepare_at_infinite_bandwidth_records_no_footprints(
        corpus, area_model, monkeypatch):
    from mergedse.ir import interp
    from mergedse.partition import PartitionError
    decoded, init = [], interp._Decoded.__init__

    def spy(self, f, prog):
        init(self, f, prog)
        decoded.append(self)
    monkeypatch.setattr(interp._Decoded, "__init__", spy)
    name, m, img = _corpus_subset(corpus, ["histo"])[0]
    preps = {}
    for bw in (float("inf"), 1e9):
        decoded.clear()
        cfg = PipelineConfig(mode="FLE+Merging", bandwidth=bw)
        preps[bw] = prepare(m, [img], cfg, model=area_model)
        # a decoded load or store records its address only if `touches`
        assert any(fn.touches for fn in decoded) == (bw != float("inf"))
    assert preps[float("inf")].trace.edge_bytes is None
    assert any(preps[1e9].trace.edge_bytes.values())
    # unrecorded bytes are never priced as zero
    cfg = PipelineConfig(mode="FLE+Merging")
    with pytest.raises(PartitionError, match="footprints"):
        partition_point(preps[float("inf")], cfg, 2000.0, 25, 1e9)
    sol, _ = partition_point(preps[float("inf")], cfg, 2000.0, 25,
                             float("inf"))
    assert sol.objective == partition_point(preps[1e9], cfg, 2000.0, 25,
                                            float("inf"))[0].objective


def test_prepare_profiles_every_image_on_one_program(corpus, area_model,
                                                     monkeypatch):
    # two heap images, one prepare: the profile decodes each function once,
    # and the trace and report bytes are those of one Program per image
    from mergedse.ir import Program, Trace, interp
    name, m, img = _corpus_subset(corpus, ["pair"])[0]
    other = HeapImage([(r, data[::-1]) for r, data in img.regions],
                      dict(img.args))
    profile, profiling, decoded = dse._profile, [], []

    def per_image(m, images, footprints):
        trace = Trace()
        for image in images:
            trace.merge(run_heap_image(Program(m, footprints), image).trace)
        return trace

    def watched(m, images, footprints):
        profiling.append(True)
        try:
            trace = profile(m, images, footprints)
        finally:
            profiling.pop()
        assert trace == per_image(m, images, footprints)
        # the images take different paths
        assert per_image(m, images[:1], footprints).counts != per_image(
            m, images[1:], footprints).counts
        return trace
    init = interp._Decoded.__init__

    def spy(self, f, prog):
        init(self, f, prog)
        if profiling:
            decoded.append(f.name)
    monkeypatch.setattr(interp._Decoded, "__init__", spy)
    monkeypatch.setattr(dse, "_profile", watched)
    reports = []
    for mode in ("FE", "FLE+Merging"):
        for bw in (float("inf"), 1e9):
            decoded.clear()
            cfg = PipelineConfig(mode=mode, bandwidth=bw)
            reports.append(run_pipeline(m, [img, other], cfg,
                                        model=area_model, program=name))
            assert sorted(decoded) == sorted(set(decoded)) and decoded
    monkeypatch.setattr(dse, "_profile", per_image)
    again = [run_pipeline(m, [img, other], PipelineConfig(
        mode=r.mode, bandwidth=r.bandwidth), model=area_model,
        program=name) for r in reports]
    assert reports_to_csv(reports) == reports_to_csv(again)
    assert reports_to_json(reports) == reports_to_json(again)


@pytest.mark.parametrize("budgets", [[3000, 30000], [30000, 3000]])
def test_sweep_points_equal_fresh_solves(corpus, area_model, monkeypatch,
                                         budgets):
    # a sweep builds one problem and solver plan per (latency, bandwidth)
    # and solves each budget's own copy; every point equals a fresh solve
    # of a freshly built problem, node count included
    from mergedse.partition import build_problem
    preps, solved, real_prepare, real_solve = [], [], dse.prepare, dse.solve

    def kept(*args, **kw):
        preps.append(real_prepare(*args, **kw))
        return preps[-1]

    def counted(problem):
        solved.append(problem)
        return real_solve(problem)
    monkeypatch.setattr(dse, "prepare", kept)
    monkeypatch.setattr(dse, "solve", counted)
    cfg = PipelineConfig(mode="FLE+Merging")
    for name, m, img in corpus:
        preps.clear()
        solved.clear()
        reports = sweep(m, [img], cfg, budgets=budgets,
                        latencies=dse.PRESET_LATENCIES,
                        bandwidths=dse.PRESET_BANDWIDTHS,
                        modes=["FLE+Merging"], model=area_model, program=name)
        (prep,) = preps
        assert [p.area_budget for p in solved] == [r.budget for r in reports]
        assert len({id(p.plan) for p in solved}) == len(reports) // 2
        for r in reports:
            sol = solve(build_problem(
                prep.module, prep.costs, prep.trace, prep.merge_parents,
                latency=r.latency, bandwidth=r.bandwidth, clock=cfg.clock,
                area_budget=r.budget))
            assert (r.software, r.hardware, r.merged_hw, r.objective,
                    r.optimal, r.solver_nodes) == (
                sol.software, sol.hardware, sol.merged_hw, sol.objective,
                sol.optimal, sol.nodes), (name, r.budget, r.latency,
                                          r.bandwidth)


def test_each_analysis_runs_once_where_it_varies(corpus, area_model,
                                                 monkeypatch):
    # a work-count guard. In one FLE+Merging prepare of reduce, the merge
    # layer linearizes each working function at most once per seed, and
    # finds its loop forest, register types and the walk's must-assign
    # check at most once, however many pairs it is in. The area model runs
    # twice for the module's costs, once for each verified candidate's
    # record and once more for each accepted merge. One sweep over the
    # sweep-reduce grid in two modes builds one problem per (mode, latency,
    # bandwidth) and solves each point once
    from mergedse import merge
    from mergedse.ir import Function
    name, m, img = _corpus_subset(corpus, ["reduce"])[0]
    works, counts = [], {}

    def count(f, what):
        # a working function, not a candidate body being built or checked
        if works and works[-1].functions.get(f.name) is f:
            counts[id(f), what] = counts.get((id(f), what), 0) + 1

    def counted(fn, what):
        def call(f, *args):
            count(f, (what, *args))
            return fn(f, *args)
        return call

    def in_merge_layer(fn):
        def call(work, *args, **kw):
            works.append(work)
            try:
                return fn(work, *args, **kw)
            finally:
                works.pop()
        return call
    for attr in ("linearize", "natural_loops", "unassigned_uses"):
        monkeypatch.setattr(merge, attr, counted(getattr(merge, attr), attr))
    monkeypatch.setattr(Function, "register_types", counted(
        Function.register_types, "register_types"))
    for attr in ("merge_functions", "verify_merge"):
        monkeypatch.setattr(dse, attr, in_merge_layer(getattr(dse, attr)))
    passes, predict = [], type(area_model).predict
    monkeypatch.setattr(type(area_model), "predict",
                        lambda model, X: passes.append(1) or predict(model, X))
    prep = dse.prepare(m, [img], PipelineConfig(mode="FLE+Merging"),
                       model=area_model)
    assert prep.funnel["ranked"] > prep.funnel["aligned"] > 10
    verified = prep.funnel["verified"]
    assert len(passes) == 2 + verified + len(prep.merge_parents) < 2 * verified
    assert max(counts.values()) == 1
    kinds = {what[0] for _, what in counts}
    assert kinds == {"linearize", "natural_loops", "unassigned_uses",
                     "register_types"}

    built, solved = [], []
    real_build, real_solve = dse.build_problem, dse.solve

    def build(m, *args, **kw):
        built.append((id(m), kw["latency"], kw["bandwidth"]))
        return real_build(m, *args, **kw)

    def solve_point(problem):
        solved.append(problem)
        return real_solve(problem)
    monkeypatch.setattr(dse, "build_problem", build)
    monkeypatch.setattr(dse, "solve", solve_point)
    grid = dict(budgets=[3000, 30000], latencies=dse.PRESET_LATENCIES,
                bandwidths=dse.PRESET_BANDWIDTHS)
    reports = sweep(m, [img], PipelineConfig(), **grid,
                    modes=["FE", "FLE+Merging"], model=area_model)
    assert len(built) == len(set(built)) == 2 * 2 * 3
    assert len(solved) == len(reports) == 2 * 2 * 2 * 3


def _prepare_depth_k(m, images, cfg, model, depth=2):
    """`prepare` as it merged before its two rounds were named: a general
    loop of up to `depth` rounds, where round k takes the ranked pairs whose
    deeper function is k - 1 merges deep, and a round that accepts nothing
    ends the loop. Every verified candidate is priced in full by
    `merged_cost`, so its costs pin those `prepare` prices lazily. The
    oracle of the two named rounds."""
    work = dse.extract_loops(m) if cfg.mode.startswith("FLE") else m.clone()
    trace = dse._profile(work, images, cfg.bandwidth != float("inf"))
    merge_parents, merges = {}, []
    funnel = {"ranked": 0, "aligned": 0, "verified": 0, "area_win": 0,
              "ep_positive": 0, "selected": 0}
    rows = module_rows(work, build_call_graph(work))
    costs = estimate_costs(rows, trace, model, cfg.sw_table, cfg.hw_table,
                           cfg.clock)
    baseline = sum((costs[n].own_sw for n in work.functions), Fraction(0))

    def merged_depth(name):
        if name not in merge_parents:
            return 0
        return 1 + max(map(merged_depth, merge_parents[name]))

    def covered_invocations(name):
        if name not in merge_parents:
            return trace.invocations.get(name, 0)
        return sum(map(covered_invocations, merge_parents[name]))

    hw_sel = cfg.hw_table["select"]
    memo = {}
    for depth_round in range(1, depth + 1):
        pairs = dse.rank_pairs(work, dse.MIN_SIMILARITY)
        if depth_round > 1:
            pairs = [pr for pr in pairs
                     if max(merged_depth(pr[0]), merged_depth(pr[1]))
                     == depth_round - 1]
            if not pairs:
                break
        added = 0
        for n1, n2, sim in pairs:
            funnel["ranked"] += 1
            try:
                mf = dse.merge_functions(work, n1, n2, memo=memo)
            except dse.MergeRejected:
                continue
            funnel["aligned"] += 1
            rep = dse.verify_merge(work, mf, memo=memo)
            if not rep.passed:
                continue
            funnel["verified"] += 1
            inv = covered_invocations(n1) + covered_invocations(n2)
            glue = ((mf.mux_selects * hw_sel + 1) * inv) * cfg.clock
            name, row = mf.function.name, dse.feature_rows(mf.function, rows)
            est = dse.merged_cost(rows, row, model, costs[n1], costs[n2], glue,
                                  dse.merged_area(rows, row, model))
            parents_area = costs[n1].area + costs[n2].area
            record = dse.MergeRecord(name, (n1, n2), sim,
                                     mf.alignment.aligned_fraction, est.area,
                                     parents_area, float("nan"))
            merges.append(record)
            if not est.area < parents_area:
                continue
            funnel["area_win"] += 1
            record.ep = float(dse.estimate_profitability(
                costs[n1].sw, costs[n2].sw, costs[n1].hw, costs[n2].hw,
                est.hw, baseline)) if baseline > 0 else 0.0
            if record.ep <= 0:
                continue
            funnel["ep_positive"] += 1
            work.functions[name] = mf.function
            rows[name] = row
            merge_parents[name] = (n1, n2)
            costs[name] = est
            added += 1
        if added == 0:
            break
    return dse.Prepared(work, trace, costs, merge_parents, merges, funnel,
                        baseline)


@pytest.fixture(scope="module")
def lasso_seed3():
    # its round 1 accepts more merges than the bundled model's
    _, X, y = synthetic_dataset(600, 3)
    return train_lasso(X[:480], y[:480])


@pytest.mark.parametrize("which", ["bundled", "lasso-seed3"])
def test_two_merge_rounds_equal_the_depth_k_loop(corpus, area_model,
                                                 lasso_seed3, monkeypatch,
                                                 which):
    # every corpus program in both merging modes: the same funnel, merge
    # records (every field, a NaN ep included), merge graph and costs as
    # the depth-k loop, and rank_pairs called as often: once when round 1
    # accepts nothing, else twice
    model = area_model if which == "bundled" else lasso_seed3
    ranked, real_rank = [], dse.rank_pairs
    monkeypatch.setattr(dse, "rank_pairs",
                        lambda *a: ranked.append(a) or real_rank(*a))
    accepted = round_two = 0
    for name, m, img in corpus:
        for mode in ("FE+Merging", "FLE+Merging"):
            cfg = PipelineConfig(mode=mode)
            want = _prepare_depth_k(m, [img], cfg, model)
            want_ranked, ranked[:] = len(ranked), []
            got = prepare(m, [img], cfg, model=model)
            assert len(ranked) == want_ranked == 1 + bool(got.merge_parents)
            ranked.clear()
            assert got.funnel == want.funnel, (name, mode)
            assert repr(got.merges) == repr(want.merges), (name, mode)
            assert got.merge_parents == want.merge_parents, (name, mode)
            assert got.costs == want.costs, (name, mode)
            accepted += len(got.merge_parents)
            round_two += sum(r.parents[0] in got.merge_parents
                             or r.parents[1] in got.merge_parents
                             for r in got.merges)
    # bundled: 58 accepted, 261 round-2 records; lasso-seed3: 99 and 420
    assert accepted > 0 and round_two > 0


class _UnitArea:
    """An area model of unit areas: merged_cost's times do not read it."""

    def predict(self, X):
        return np.ones(len(X))


def _cost(sw, hw):
    return dse.CostEstimate(1.0, 1.0, sw=sw, hw=hw, own_sw=sw, own_hw=hw)


_TIMES = st.builds(Fraction, st.integers(0, 10 ** 9), st.integers(1, 10 ** 4))


@pytest.fixture(scope="module")
def pair_rows(pair_module):
    return module_rows(pair_module, build_call_graph(pair_module))


@settings(max_examples=300, deadline=None)
@given(parents=st.lists(st.tuples(_TIMES, _TIMES), min_size=4, max_size=4),
       glues=st.lists(_TIMES, min_size=3, max_size=3),
       total=st.integers(1, 10 ** 9), both_merged=st.booleans())
def test_a_pair_with_a_merged_parent_never_pays(pair_module, pair_rows,
                                                parents, glues, total,
                                                both_merged):
    # why round 2 cannot accept (ROADMAP item 1): a merged parent is priced
    # as merged_cost prices it (no software time, both parents' hardware
    # time plus glue), and with any nonnegative costs and glue a pair that
    # holds it has a profitability of at most 0, in either order
    rows, model = pair_rows, _UnitArea()
    row = dse.feature_rows(pair_module.functions["sel_a"], rows)
    area = dse.merged_area(rows, row, model)
    a, b, c, d = (_cost(sw, hw) for sw, hw in parents)
    merged = dse.merged_cost(rows, row, model, a, b, glues[0], area)
    partner = (dse.merged_cost(rows, row, model, c, d, glues[1], area)
               if both_merged else c)
    pair = dse.merged_cost(rows, row, model, merged, partner, glues[2], area)
    for p1, p2 in ((merged, partner), (partner, merged)):
        assert dse.estimate_profitability(p1.sw, p2.sw, p1.hw, p2.hw, pair.hw,
                                          total) <= 0

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergedse.analysis import build_call_graph
from mergedse.cost import (
    CostError, DEFAULT_HW_CYCLES, DEFAULT_SW_CYCLES, _standardize,
    estimate_costs, estimate_profitability, evaluate_model, latency,
    load_model, mean_relative_error, mlp_loss_and_grads, module_rows,
    own_features, r_squared, read_dataset, save_model, synthetic_dataset,
    synthetic_hls_oracle, train_lasso, train_mlp, write_dataset,
)
from mergedse.ir import OPCODE_INDEX, interpret, parse_module, run_heap_image


# ---------------------------------------------------------------------------
# Features
# ---------------------------------------------------------------------------

def test_leaf_feature_counts():
    m = parse_module("""
    func @f(%a: i32) -> i32 {
    bb0:
      %b = add i32 %a, 1
      %c = add i32 %b, 2
      %d = add i32 %c, 3
      %e = mul i32 %d, 4
      ret i32 %e
    }
    """)
    v = own_features(m.function("f"))
    assert v[OPCODE_INDEX["add"]] == 3
    assert v[OPCODE_INDEX["mul"]] == 1
    assert v[OPCODE_INDEX["ret"]] == 1
    assert v.sum() == 5


def test_hierarchical_adds_callee_counts(pair_module):
    cg = build_call_graph(pair_module)
    own = own_features(pair_module.function("sel_a"))
    hier = module_rows(pair_module, cg)["sel_a"][0]
    helper = own_features(pair_module.function("helper"))
    assert np.array_equal(hier, own + helper)
    assert (hier >= own).all()


def test_two_call_sites_double_the_callee():
    m = parse_module("""
    func @leaf(%a: i32) -> i32 {
    bb0:
      %b = add i32 %a, 1
      %c = mul i32 %b, 2
      %d = add i32 %c, 3
      %e = xor i32 %d, 5
      ret i32 %e
    }
    func @top(%a: i32) -> i32 {
    bb0:
      %x = call i32 @leaf(%a)
      %y = call i32 @leaf(%x)
      ret i32 %y
    }
    """)
    cg = build_call_graph(m)
    hier = module_rows(m, cg)["top"][0]
    assert np.array_equal(hier, own_features(m.function("top"))
                          + 2 * own_features(m.function("leaf")))


def test_hierarchy_matches_independent_recomputation(corpus):
    for name, m, _ in corpus:
        cg = build_call_graph(m)
        rows = module_rows(m, cg)
        assert list(rows) == list(m.functions)
        for fname, f in m.functions.items():
            own = own_features(f)
            assert np.array_equal(rows[fname][1], own)
            calls = [ins.callee for ins in f.instructions() if ins.op == "call"]
            expected = own.astype(float)
            for callee in sorted(cg.direct[fname]):
                expected = expected + calls.count(callee) * rows[callee][0]
            assert np.array_equal(rows[fname][0], expected)


# ---------------------------------------------------------------------------
# Synthetic oracle and dataset
# ---------------------------------------------------------------------------

def test_oracle_zero_vector_floor():
    area = synthetic_hls_oracle(np.zeros(29), seed=0)
    assert 0 < area <= 120 * 1.05
    assert area >= 120 * 0.95


def test_oracle_sharing_discount():
    one = np.zeros(29)
    one[OPCODE_INDEX["mul"]] = 1
    two = np.zeros(29)
    two[OPCODE_INDEX["mul"]] = 2
    # worst case noise is +-5%, the discount is far larger
    assert synthetic_hls_oracle(two, 3) < 2 * synthetic_hls_oracle(one, 3)


def test_oracle_positive_and_deterministic():
    rng = np.random.RandomState(0)
    for _ in range(50):
        fv = rng.randint(0, 30, 29)
        a1 = synthetic_hls_oracle(fv, seed=9)
        a2 = synthetic_hls_oracle(fv, seed=9)
        assert a1 == a2 > 0


def test_dataset_regenerates_bit_identically():
    n1, X1, y1 = synthetic_dataset(600, seed=5)
    n2, X2, y2 = synthetic_dataset(600, seed=5)
    assert n1 == n2
    assert np.array_equal(X1, X2)
    assert np.array_equal(y1, y2)


def test_dataset_csv_roundtrip(tmp_path):
    names, X, y = synthetic_dataset(40, seed=2)
    path = tmp_path / "d.csv"
    write_dataset(str(path), names, X, y)
    n2, X2, y2 = read_dataset(str(path))
    assert n2 == names
    assert np.array_equal(X, X2)
    assert np.array_equal(y, y2)


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

def test_lasso_recovers_linear_oracle():
    rng = np.random.RandomState(0)
    X = rng.randint(0, 20, (100, 29)).astype(float)
    w = rng.uniform(1, 10, 29)
    y = X @ w + 5.0
    model = train_lasso(X, y, alpha=1e-6)
    _, mre = evaluate_model(model, X, y)
    assert mre < 1e-3


def test_models_reject_degenerate_data():
    X = np.ones((30, 29))
    y = np.full(30, 7.0)
    with pytest.raises(CostError, match="degenerate"):
        train_lasso(X, y)
    with pytest.raises(CostError, match="degenerate"):
        train_mlp(X, y, epochs=1)
    with pytest.raises(CostError, match="at least 20"):
        train_lasso(X[:5], y[:5] + np.arange(5))


def test_mlp_training_deterministic():
    _, X, y = synthetic_dataset(60, seed=1)
    m1 = train_mlp(X, y, seed=3, epochs=40)
    m2 = train_mlp(X, y, seed=3, epochs=40)
    assert all(np.array_equal(a, b) for a, b in zip(m1.weights, m2.weights))
    assert np.array_equal(m1.predict(X), m2.predict(X))
    m3 = train_mlp(X, y, seed=4, epochs=40)
    assert not np.array_equal(m1.predict(X), m3.predict(X))


def test_mlp_gradients_match_finite_differences():
    _, X, y = synthetic_dataset(48, seed=3)
    Xs, _, _ = _standardize(X)
    ys = (y - y.mean()) / y.std()
    rng = np.random.RandomState(11)
    dims = [29, 12, 12, 1]
    Ws = [rng.normal(0, 0.4, (dims[i], dims[i + 1])) for i in range(3)]
    bs = [rng.normal(0, 0.1, dims[i + 1]) for i in range(3)]
    _, dW, dB = mlp_loss_and_grads(Ws, bs, Xs[:16], ys[:16], alpha=0.01)
    h = 1e-5
    for _ in range(50):
        li = rng.randint(0, 3)
        i = rng.randint(0, Ws[li].shape[0])
        j = rng.randint(0, Ws[li].shape[1])
        orig = Ws[li][i, j]
        Ws[li][i, j] = orig + h
        lp, _, _ = mlp_loss_and_grads(Ws, bs, Xs[:16], ys[:16], alpha=0.01)
        Ws[li][i, j] = orig - h
        lm, _, _ = mlp_loss_and_grads(Ws, bs, Xs[:16], ys[:16], alpha=0.01)
        Ws[li][i, j] = orig
        fd = (lp - lm) / (2 * h)
        an = dW[li][i, j]
        assert abs(an - fd) / max(abs(an), abs(fd), 1e-8) < 1e-4


def test_model_persistence_roundtrip(tmp_path, area_model):
    _, X, _ = synthetic_dataset(30, seed=8)
    path = tmp_path / "m.txt"
    save_model(area_model, str(path))
    loaded = load_model(str(path))
    assert np.array_equal(loaded.predict(X), area_model.predict(X))

    lasso = train_lasso(*synthetic_dataset(60, seed=4)[1:])
    save_model(lasso, str(path))
    loaded = load_model(str(path))
    assert np.array_equal(loaded.predict(X), lasso.predict(X))


@pytest.mark.parametrize("edit, message", [
    (lambda t: t.replace("alpha 0.0\n", ""), "missing alpha"),
    (lambda t: t.replace("xstd ", "xstd 1.0 ", 1), "expected 29 values"),
    (lambda t: t.replace("layer 29 40", "layer 28 40"), "has 28 rows"),
    (lambda t: t.replace("layer 40 1\n", "layer 40 2\n"), "expected 80 values"),
    (lambda t: t[:t.index("layer 40 1\n")].replace("layers 7", "layers 6"),
     "last layer has width 40"),
    (lambda t: t.replace("yscale ", "yscale x", 1), "could not convert"),
])
def test_load_model_rejects_malformed_files(tmp_path, edit, message):
    from mergedse.dse import BUNDLED_MODEL
    path = tmp_path / "bad.txt"
    path.write_text(edit(BUNDLED_MODEL.read_text()))
    with pytest.raises(CostError, match=message) as info:
        load_model(str(path))
    assert str(path) in str(info.value)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_perfect_predictor_metrics():
    y = np.array([10.0, 20.0, 40.0])
    assert r_squared(y, y) == 1.0
    assert mean_relative_error(y, y) == 0.0


def test_constant_predictor_r2_is_zero():
    y = np.array([10.0, 20.0, 40.0])
    pred = np.full(3, y.mean())
    assert r_squared(y, pred) == pytest.approx(0.0)


def test_three_point_mre_hand_computed():
    y = np.array([10.0, 20.0, 40.0])
    pred = np.array([11.0, 18.0, 44.0])
    assert mean_relative_error(y, pred) == pytest.approx(0.1)


def test_evaluate_filters_zero_targets():
    class Echo:
        def predict(self, X):
            return np.asarray(X)[:, 0]

    X = np.array([[10.0], [0.0], [20.0]])
    y = np.array([10.0, 0.0, 40.0])
    r2, mre = evaluate_model(Echo(), X, y)
    assert mre == pytest.approx((0.0 + 0.5) / 2)
    with pytest.raises(CostError, match="empty"):
        evaluate_model(Echo(), np.zeros((1, 1)), np.zeros(1))


# ---------------------------------------------------------------------------
# Latency model
# ---------------------------------------------------------------------------

def test_latency_empty_trace():
    from mergedse.ir import Trace
    assert latency(Trace().hier_counts.get("nope"), DEFAULT_SW_CYCLES) == 0


def test_latency_simple_arithmetic():
    from mergedse.ir import Trace
    t = Trace(hier_counts={"f": {"add": 100}})
    table = {"add": 1}
    counts = t.hier_counts["f"]
    assert latency(counts, table, Fraction(1, 10 ** 9)) == Fraction(1, 10 ** 7)
    assert float(latency(counts, table)) == 1e-7


def test_latency_missing_opcode_errors():
    from mergedse.ir import Trace
    t = Trace(hier_counts={"f": {"weird": 1}})
    with pytest.raises(CostError, match="missing from latency table"):
        latency(t.hier_counts["f"], {"add": 1})


def test_hierarchical_latency_equals_flat_recomputation():
    m = parse_module("""
    func @leaf(%a: i32) -> i32 {
    bb0:
      %b = mul i32 %a, 3
      %c = add i32 %b, 1
      ret i32 %c
    }
    func @top(%n: i32) -> i32 {
    e:
      %i = const i32 0
      %acc = const i32 0
      jmp h
    h:
      %c = icmp slt i32 %i, %n
      br %c, b, x
    b:
      %v = call i32 @leaf(%i)
      %acc = add i32 %acc, %v
      %i = add i32 %i, 1
      jmp h
    x:
      ret i32 %acc
    }
    """)
    r = interpret(m, "top", [10])
    assert r.trace.calls_between("top", "leaf") == 10
    got = latency(r.trace.hier_counts["top"], DEFAULT_SW_CYCLES)
    # independent recomputation: own counts of both functions, flat sum
    cycles = 0
    for fn in ("top", "leaf"):
        for op, c in r.trace.counts[fn].items():
            cycles += DEFAULT_SW_CYCLES[op] * c
    assert got == cycles * Fraction(1, 10 ** 9)
    # linear in the trace: doubling every count doubles the latency
    base_hw = latency(r.trace.hier_counts["top"], DEFAULT_HW_CYCLES)
    doubled = r.trace.merge(interpret(m, "top", [10]).trace)
    top = doubled.hier_counts["top"]
    assert latency(top, DEFAULT_SW_CYCLES) == 2 * got
    assert latency(top, DEFAULT_HW_CYCLES) == 2 * base_hw


def test_estimate_costs_sw_zero_iff_unexecuted(corpus, area_model):
    name, m, img = corpus[0]
    trace = run_heap_image(m, img).trace
    cg = build_call_graph(m)
    costs = estimate_costs(module_rows(m, cg), trace, area_model)
    for fname, ce in costs.items():
        executed = trace.invocations.get(fname, 0) > 0
        assert (ce.sw == 0) == (not executed)
        assert ce.area >= ce.own_area > 0 or ce.area >= 1.0


# ---------------------------------------------------------------------------
# Profitability
# ---------------------------------------------------------------------------

def test_profitability_hand_examples():
    assert estimate_profitability(100, 50, 40, 20, 70, 1000) == pytest.approx(0.02)
    # equal savings on both sides and additive merged hardware time
    sw1, sw2, hw1, hw2 = 30.0, 20.0, 20.0, 10.0
    ep = estimate_profitability(sw1, sw2, hw1, hw2, hw1 + hw2, 100.0)
    assert ep == pytest.approx((sw1 - hw1) / 100.0)
    assert ep > 0
    # merged slower than the best parent by exactly the other's software time
    hw12 = sw2 + hw1  # solves EP = 0 when side 1 has the larger savings
    assert estimate_profitability(sw1, sw2, hw1, hw2, hw12, 100.0) == pytest.approx(0.0)


def test_profitability_requires_positive_total():
    with pytest.raises(CostError):
        estimate_profitability(1, 1, 1, 1, 1, 0)


@settings(max_examples=200, deadline=None)
@given(*[st.floats(0, 1e6, allow_nan=False) for _ in range(5)],
       st.floats(1e-9, 1e6, allow_nan=False))
def test_profitability_parent_swap_symmetry(sw1, sw2, hw1, hw2, hw12, total):
    a = estimate_profitability(sw1, sw2, hw1, hw2, hw12, total)
    b = estimate_profitability(sw2, sw1, hw2, hw1, hw12, total)
    assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

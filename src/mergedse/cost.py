"""Accelerator cost modeling: hierarchical opcode features, a synthetic HLS
area oracle for desk-scale ground truth, LASSO and MLP area models trained
from scratch, regression metrics, per-opcode latency tables, and the merge
profitability metric.
"""

from __future__ import annotations

import logging
import zlib
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analysis import CallGraph, fingerprint
from .ir import IRError, Function, Module, OPCODES, OPCODE_INDEX, Trace

log = logging.getLogger("mergedse")


class CostError(IRError):
    pass


# ---------------------------------------------------------------------------
# Feature extraction
# ---------------------------------------------------------------------------

def own_features(f: Function) -> np.ndarray:
    return fingerprint(f).vector().astype(np.float64)


def feature_rows(f: Function, rows: dict) -> tuple[np.ndarray, np.ndarray]:
    """(hierarchical, own) feature rows of f, where rows holds its callees':
    the own row plus each callee's hierarchical row times its static
    call-site count, summed in sorted callee order."""
    own = v = own_features(f)
    sites = Counter(i.callee for i in f.instructions() if i.op == "call")
    for callee in sorted(sites):
        v = v + sites[callee] * rows[callee][0]
    return v, own


def module_rows(m: Module, cg: CallGraph) -> dict:
    """`feature_rows` of every function of m, in module order: the batch
    `estimate_costs` prices. A merge joins it last, as nothing calls it."""
    rows: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for name in cg.topo_order:  # callees first
        rows[name] = feature_rows(m.functions[name], rows)
    return {n: rows[n] for n in m.functions}


# ---------------------------------------------------------------------------
# Synthetic HLS oracle
# ---------------------------------------------------------------------------

# Invented per-opcode LUT base costs for the synthetic oracle; these are not
# claimed to match any real flow, they just have to be plausibly shaped and
# nonlinear in the aggregate.
BASE_LUTS = {
    "add": 32.0, "sub": 32.0, "and": 16.0, "or": 16.0, "xor": 16.0,
    "shl": 24.0, "ashr": 24.0, "mul": 600.0, "sdiv": 1800.0, "srem": 1800.0,
    "fadd": 350.0, "fsub": 350.0, "fmul": 700.0, "fdiv": 2200.0,
    "icmp": 20.0, "fcmp": 60.0, "select": 16.0, "zext": 4.0, "trunc": 4.0,
    "sitofp": 120.0, "fptosi": 120.0, "load": 80.0, "store": 80.0,
    "gep": 28.0, "const": 2.0, "call": 150.0, "br": 12.0, "jmp": 4.0,
    "ret": 8.0,
}

# Expensive functional units get shared when repeated, so their area grows
# sublinearly with the static count.
SHARED_OPS = ("mul", "sdiv", "srem", "fadd", "fsub", "fmul", "fdiv",
              "fcmp", "sitofp", "fptosi")
SHARING_EXPONENT = 0.85
CONTROL_LUTS_PER_BRANCH = 90.0
CONTROL_FLOOR = 120.0
NOISE_SPAN = 0.05

_SHARED_MASK = np.array([op in SHARED_OPS for op in OPCODES])
_BASE_VEC = np.array([BASE_LUTS[op] for op in OPCODES])
_BRANCH_MASK = np.array([op in ("br", "jmp") for op in OPCODES])


def synthetic_hls_oracle(fv: np.ndarray, seed: int = 0) -> float:
    """Deterministic pseudo-HLS area for a feature vector, in LUTs."""
    fv = np.asarray(fv, dtype=np.float64)
    linear = float((_BASE_VEC * fv)[~_SHARED_MASK].sum())
    shared = float((_BASE_VEC[_SHARED_MASK]
                    * fv[_SHARED_MASK] ** SHARING_EXPONENT).sum())
    control = CONTROL_LUTS_PER_BRANCH * float(fv[_BRANCH_MASK].sum())
    area = CONTROL_FLOOR + linear + shared + control
    key = np.asarray(fv, dtype=np.int64).tobytes() + seed.to_bytes(8, "little",
                                                                   signed=True)
    frac = zlib.crc32(key) / 0xFFFFFFFF
    return area * (1.0 - NOISE_SPAN + 2.0 * NOISE_SPAN * frac)


_GEN_ARITH = ("add", "sub", "and", "or", "xor", "shl", "ashr", "icmp",
              "select", "gep", "const", "zext", "trunc")
_GEN_EXPENSIVE = ("mul", "sdiv", "srem", "fadd", "fsub", "fmul", "fdiv",
                  "fcmp", "sitofp", "fptosi")

DEFAULT_DATASET_SEED = 7


def synthetic_dataset(n: int, seed: int = DEFAULT_DATASET_SEED
                      ) -> tuple[list[str], np.ndarray, np.ndarray]:
    """n synthetic function feature vectors plus oracle areas.

    Shapes are drawn to resemble real lowered functions: a size budget split
    between a heavy expensive-op share (1-3 kinds), memory traffic, control,
    and an arithmetic mixture; always at least one return. Regenerates
    bit-identically for a fixed seed.
    """
    rng = np.random.RandomState(seed)
    X = np.zeros((n, len(OPCODES)), dtype=np.int64)
    for i in range(n):
        size = int(np.exp(rng.uniform(np.log(8), np.log(160))))
        f_exp = rng.uniform(0.25, 0.7)
        f_mem = rng.uniform(0.08, 0.25)
        f_ctl = rng.uniform(0.05, 0.15)
        n_exp = max(1, int(round(size * f_exp)))
        n_mem = int(round(size * f_mem))
        n_ctl = max(1, int(round(size * f_ctl)))
        n_ar = max(1, size - n_exp - n_mem - n_ctl)
        nk = rng.randint(1, 4)
        kinds = rng.choice(len(_GEN_EXPENSIVE), size=nk, replace=False)
        parts = rng.multinomial(n_exp, rng.dirichlet(np.ones(nk)))
        for k, c in zip(kinds, parts):
            X[i, OPCODE_INDEX[_GEN_EXPENSIVE[k]]] += c
        loads = rng.binomial(n_mem, 0.6)
        X[i, OPCODE_INDEX["load"]] += loads
        X[i, OPCODE_INDEX["store"]] += n_mem - loads
        brs = rng.binomial(n_ctl, 0.7)
        X[i, OPCODE_INDEX["br"]] += brs
        X[i, OPCODE_INDEX["jmp"]] += n_ctl - brs
        akinds = rng.choice(len(_GEN_ARITH), size=rng.randint(3, 8),
                            replace=False)
        aparts = rng.multinomial(n_ar, rng.dirichlet(np.ones(len(akinds))))
        for k, c in zip(akinds, aparts):
            X[i, OPCODE_INDEX[_GEN_ARITH[k]]] += c
        X[i, OPCODE_INDEX["ret"]] = max(1, X[i, OPCODE_INDEX["ret"]])
        if rng.uniform() < 0.3:
            X[i, OPCODE_INDEX["call"]] += rng.randint(1, 4)
    y = np.array([synthetic_hls_oracle(X[i], seed) for i in range(n)])
    names = [f"syn{i}" for i in range(n)]
    return names, X.astype(np.float64), y


def write_dataset(path: str, names: list[str], X: np.ndarray, y: np.ndarray):
    with open(path, "w") as fh:
        fh.write("name," + ",".join(OPCODES) + ",target_luts\n")
        for name, row, t in zip(names, X, y):
            cols = ",".join(str(int(c)) for c in row)
            fh.write(f"{name},{cols},{float(t)!r}\n")


def read_dataset(path: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    names, rows, ys = [], [], []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header != ["name"] + list(OPCODES) + ["target_luts"]:
            raise CostError(f"{path}: unexpected dataset header")
        for lineno, line in enumerate(fh, 2):
            parts = line.strip().split(",")
            if parts == [""]:
                continue
            if len(parts) != len(header):
                raise CostError(f"{path}:{lineno}: expected {len(header)} "
                                f"fields, got {len(parts)}")
            values = [float(c) for c in parts[1:]]
            if not np.isfinite(values).all():
                raise CostError(f"{path}:{lineno}: non-finite value")
            names.append(parts[0])
            rows.append(values[:-1])
            ys.append(values[-1])
    return names, np.array(rows), np.array(ys)


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

def _standardize(X: np.ndarray):
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return (X - mean) / std, mean, std


def _training_data(X: np.ndarray, y: np.ndarray):
    """Checked, standardized training data: Xs, ys and the scale (xmean,
    xstd, ymean, ystd) a `_ScaledModel` unscales by."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, _ = X.shape
    if n < 20:
        raise CostError(f"need at least 20 samples, got {n}")
    if float(np.ptp(y)) == 0.0:
        raise CostError("degenerate training data: all targets equal")
    Xs, xmean, xstd = _standardize(X)
    ymean, ystd = float(y.mean()), float(y.std())
    if ystd < 1e-12:
        ystd = 1.0
    return Xs, (y - ymean) / ystd, (xmean, xstd, ymean, ystd)


class _ScaledModel:
    """A model fit in standardized space: `predict` standardizes X by the
    training scale and unscales what `_forward` makes of it."""

    def __init__(self, alpha, xmean, xstd, ymean, ystd):
        self.alpha = float(alpha)
        self.xmean, self.xstd = xmean, xstd
        self.ymean, self.ystd = float(ymean), float(ystd)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        Xs = (X - self.xmean) / self.xstd
        return self._forward(Xs) * self.ystd + self.ymean


class LassoModel(_ScaledModel):
    kind = "lasso"

    def __init__(self, weights, intercept, *scale):
        super().__init__(*scale)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.intercept = float(intercept)

    def _forward(self, Xs: np.ndarray) -> np.ndarray:
        return Xs @ self.weights + self.intercept


DEFAULT_ALPHA_LASSO = 0.01
HIDDEN_LAYERS = 6
HIDDEN_UNITS = 40
DEFAULT_EPOCHS = 2000
BATCH_SIZE = 32
LEARNING_RATE = 3e-3
LR_DECAY_EPOCHS = (1000, 1500)


def train_lasso(X: np.ndarray, y: np.ndarray,
                alpha: float = DEFAULT_ALPHA_LASSO) -> LassoModel:
    """L1-penalized least squares fit by cyclic coordinate descent, until a
    sweep moves the loss by less than 1e-8 or after 10000 sweeps."""
    Xs, ys, scale = _training_data(X, y)
    n, d = Xs.shape

    w = np.zeros(d)
    b = 0.0
    z = (Xs ** 2).mean(axis=0)
    resid = ys - Xs @ w - b

    def loss():
        return 0.5 * float((resid ** 2).mean()) + alpha * float(np.abs(w).sum())

    prev = loss()
    for _ in range(10000):
        for j in range(d):
            if z[j] < 1e-15:
                continue
            rho = float((Xs[:, j] * resid).mean()) + z[j] * w[j]
            wj = (np.sign(rho) * max(abs(rho) - alpha, 0.0)) / z[j]
            if wj != w[j]:
                resid += Xs[:, j] * (w[j] - wj)
                w[j] = wj
        nb = b + float(resid.mean())
        resid -= nb - b
        b = nb
        cur = loss()
        if abs(prev - cur) < 1e-8:
            break
        prev = cur
    return LassoModel(w, b, alpha, *scale)


class MLPModel(_ScaledModel):
    kind = "mlp"

    def __init__(self, weights, biases, *scale):
        super().__init__(*scale)
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]

    def _forward(self, Xs: np.ndarray) -> np.ndarray:
        h = Xs
        last = len(self.weights) - 1
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ W + b
            if i != last:
                h = np.maximum(h, 0.0)  # rectifier
        return h[:, 0]


def mlp_loss_and_grads(weights, biases, Xs, ys, alpha=0.0):
    """Mean squared-error loss and its gradients for one batch.

    loss = mean(0.5 * (pred - y)^2) + 0.5 * alpha * sum ||W||^2
    """
    acts = [Xs]
    h = Xs
    last = len(weights) - 1
    pre = []
    for i, (W, b) in enumerate(zip(weights, biases)):
        z = h @ W + b
        pre.append(z)
        h = np.maximum(z, 0.0) if i != last else z
        acts.append(h)
    pred = acts[-1][:, 0]
    n = Xs.shape[0]
    err = (pred - ys)
    loss = 0.5 * float((err ** 2).mean())
    if alpha:
        loss += 0.5 * alpha * sum(float((W ** 2).sum()) for W in weights)

    dW = [None] * len(weights)
    db = [None] * len(weights)
    delta = (err / n)[:, None]
    for i in range(last, -1, -1):
        dW[i] = acts[i].T @ delta
        if alpha:
            dW[i] = dW[i] + alpha * weights[i]
        db[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ weights[i].T) * (pre[i - 1] > 0.0)
    return loss, dW, db


def train_mlp(X: np.ndarray, y: np.ndarray, alpha: float = 0.0,
              epochs: int = DEFAULT_EPOCHS, seed: int = 0) -> MLPModel:
    """Mini-batch gradient descent with backpropagation on squared error,
    using adaptive per-parameter step sizes (Adam); plain fixed-step descent
    generalizes noticeably worse on this depth of network.

    Deterministic for a fixed seed: initialization and batch shuffling both
    come from one seeded generator.
    """
    Xs, ys, scale = _training_data(X, y)
    n, d = Xs.shape

    rng = np.random.RandomState(seed)
    dims = [d] + [HIDDEN_UNITS] * HIDDEN_LAYERS + [1]
    weights = [rng.normal(0.0, np.sqrt(2.0 / dims[i]), (dims[i], dims[i + 1]))
               for i in range(len(dims) - 1)]
    biases = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]
    mW = [np.zeros_like(w) for w in weights]
    vW = [np.zeros_like(w) for w in weights]
    mb = [np.zeros_like(b) for b in biases]
    vb = [np.zeros_like(b) for b in biases]
    b1, b2, eps = 0.9, 0.999, 1e-8

    step = LEARNING_RATE
    t = 0
    for epoch in range(epochs):
        if epoch in LR_DECAY_EPOCHS:
            step *= 0.5
        order = rng.permutation(n)
        for lo in range(0, n, BATCH_SIZE):
            idx = order[lo:lo + BATCH_SIZE]
            _, dW, db = mlp_loss_and_grads(weights, biases, Xs[idx], ys[idx],
                                           alpha)
            t += 1
            c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for i in range(len(weights)):
                mW[i] = b1 * mW[i] + (1 - b1) * dW[i]
                vW[i] = b2 * vW[i] + (1 - b2) * dW[i] ** 2
                weights[i] -= step * (mW[i] / c1) / (np.sqrt(vW[i] / c2) + eps)
                mb[i] = b1 * mb[i] + (1 - b1) * db[i]
                vb[i] = b2 * vb[i] + (1 - b2) * db[i] ** 2
                biases[i] -= step * (mb[i] / c1) / (np.sqrt(vb[i] / c2) + eps)
    return MLPModel(weights, biases, alpha, *scale)


def r_squared(y: np.ndarray, pred: np.ndarray) -> float:
    y = np.asarray(y, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else float("-inf")
    return 1.0 - ss_res / ss_tot


def mean_relative_error(y: np.ndarray, pred: np.ndarray) -> float:
    y = np.asarray(y, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    return float((np.abs(y - pred) / np.abs(y)).mean())


def evaluate_model(model, X: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(r^2, mean relative error) on a test set; zero targets are dropped."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if y.size == 0:
        raise CostError("empty test set")
    keep = y != 0.0
    if not keep.all():
        log.warning("dropping %d zero-target rows from evaluation",
                    int((~keep).sum()))
        X, y = X[keep], y[keep]
    if y.size == 0:
        raise CostError("test set empty after dropping zero targets")
    pred = model.predict(X)
    return r_squared(y, pred), mean_relative_error(y, pred)


# ---------------------------------------------------------------------------
# Model persistence (versioned, text, round-trippable)
# ---------------------------------------------------------------------------

def save_model(model, path: str):
    with open(path, "w") as fh:
        fh.write("mergedse-model v1\n")
        fh.write(f"kind {model.kind}\n")
        fh.write(f"alpha {float(model.alpha)!r}\n")
        fh.write(f"features {len(model.xmean)}\n")
        fh.write("xmean " + " ".join(repr(float(v)) for v in model.xmean) + "\n")
        fh.write("xstd " + " ".join(repr(float(v)) for v in model.xstd) + "\n")
        fh.write(f"yscale {float(model.ymean)!r} {float(model.ystd)!r}\n")
        if model.kind == "lasso":
            fh.write("weights " + " ".join(repr(float(v)) for v in model.weights) + "\n")
            fh.write(f"intercept {float(model.intercept)!r}\n")
        else:
            fh.write(f"layers {len(model.weights)}\n")
            for W, b in zip(model.weights, model.biases):
                fh.write(f"layer {W.shape[0]} {W.shape[1]}\n")
                fh.write(" ".join(repr(float(v)) for v in W.reshape(-1)) + "\n")
                fh.write(" ".join(repr(float(v)) for v in b) + "\n")


def load_model(path: str):
    """Read a file written by `save_model`. A missing field or layer, a bad
    or non-finite number, an xstd entry that is not positive, or layer shapes
    that do not chain raise CostError naming it."""
    try:
        with open(path) as fh:
            lines = fh.read().removesuffix("\n").split("\n")
        if lines[0] != "mergedse-model v1":
            raise CostError(f"{path}: not a mergedse-model v1 file")
        return _model_from_lines(lines)
    except ValueError as e:  # also a file that is not text
        raise CostError(f"{path}: {e}") from None


def _model_from_lines(lines: list[str]):
    def need(ok, what):
        if not ok:
            raise ValueError(what)

    def vec(text, n):
        v = np.array(text.split(), dtype=np.float64)
        need(v.size == n, f"expected {n} values, got {v.size}")
        need(np.isfinite(v).all(), f"non-finite value in {text[:30]!r}")
        return v

    def num(text):
        return float(vec(text, 1)[0])

    fields = {}
    i = 1
    while i < len(lines) and " " in lines[i]:
        key, rest = lines[i].split(" ", 1)
        fields[key] = rest
        i += 1
        if key == "yscale":
            break
    missing = [k for k in ("kind", "alpha", "features", "xmean", "xstd",
                           "yscale") if k not in fields]
    need(not missing, "missing " + ", ".join(missing))
    kind, alpha, d = fields["kind"], num(fields["alpha"]), int(fields["features"])
    xmean, xstd = vec(fields["xmean"], d), vec(fields["xstd"], d)
    need((xstd > 0).all(), "xstd entries must be positive")
    ymean, ystd = (float(v) for v in vec(fields["yscale"], 2))
    rest = lines[i:]
    if kind == "lasso":
        kv = dict(ln.split(" ", 1) for ln in rest if ln)
        need("weights" in kv and "intercept" in kv, "missing weights or intercept")
        return LassoModel(vec(kv["weights"], d), num(kv["intercept"]), alpha,
                          xmean, xstd, ymean, ystd)
    need(kind == "mlp", f"unknown model kind {kind!r}")
    need(rest and rest[0].startswith("layers "), "missing layers")
    nlayers = int(rest[0].split(" ", 1)[1])
    need(len(rest) >= 1 + 3 * nlayers, f"truncated: {nlayers} layers announced")
    weights, biases = [], []
    rows = d
    for k in range(1, 1 + 3 * nlayers, 3):
        head = rest[k].split()
        need(len(head) == 3 and head[0] == "layer", f"bad layer header {rest[k]!r}")
        din, dout = int(head[1]), int(head[2])
        need(din == rows, f"layer {len(weights)} has {din} rows, expected {rows}")
        weights.append(vec(rest[k + 1], din * dout).reshape(din, dout))
        biases.append(vec(rest[k + 2], dout))
        rows = dout
    need(nlayers > 0 and rows == 1, f"last layer has width {rows}, expected 1")
    return MLPModel(weights, biases, alpha, xmean, xstd, ymean, ystd)


# ---------------------------------------------------------------------------
# Latency model
# ---------------------------------------------------------------------------

# Per-opcode cycle costs. The numbers are configuration, not ground truth;
# only orderings are asserted anywhere.
DEFAULT_SW_CYCLES = {
    "add": 1, "sub": 1, "and": 1, "or": 1, "xor": 1, "shl": 1, "ashr": 1,
    "mul": 3, "sdiv": 20, "srem": 20, "fadd": 4, "fsub": 4, "fmul": 5,
    "fdiv": 15, "icmp": 1, "fcmp": 1, "select": 1, "zext": 1, "trunc": 1,
    "sitofp": 4, "fptosi": 4, "load": 4, "store": 4, "gep": 1, "const": 1,
    "call": 10, "br": 1, "jmp": 1, "ret": 1,
}
DEFAULT_HW_CYCLES = {
    "add": 1, "sub": 1, "and": 1, "or": 1, "xor": 1, "shl": 1, "ashr": 1,
    "mul": 3, "sdiv": 20, "srem": 20, "fadd": 4, "fsub": 4, "fmul": 5,
    "fdiv": 15, "icmp": 1, "fcmp": 1, "select": 1, "zext": 0, "trunc": 0,
    "sitofp": 2, "fptosi": 2, "load": 2, "store": 2, "gep": 1, "const": 0,
    "call": 0, "br": 0, "jmp": 0, "ret": 0,
}

DEFAULT_CLOCK = Fraction(1, 10 ** 9)  # one nanosecond per cycle


def latency(counts: dict[str, int] | None, table: dict[str, int],
            clock: Fraction = DEFAULT_CLOCK) -> Fraction:
    """Seconds that profiled opcode counts take at `table`'s cycles per
    opcode; no counts take none. Over `Trace.hier_counts` this is a
    function's whole dynamic call extent, over `Trace.counts` its own
    instructions."""
    if not counts:
        return Fraction(0)
    cycles = 0
    for op, c in counts.items():
        if op not in table:
            raise CostError(f"opcode {op!r} missing from latency table")
        cycles += table[op] * c
    return cycles * clock


# ---------------------------------------------------------------------------
# Profitability (merged-accelerator time savings beyond the best parent)
# ---------------------------------------------------------------------------

def estimate_profitability(sw1, sw2, hw1, hw2, hw12, total):
    """EP = (sw1 + sw2 - hw12 - max(sw1 - hw1, sw2 - hw2)) / total."""
    if total <= 0:
        raise CostError("total application time must be positive")
    return (sw1 + sw2 - hw12 - max(sw1 - hw1, sw2 - hw2)) / total


# ---------------------------------------------------------------------------
# Per-function cost assembly
# ---------------------------------------------------------------------------

@dataclass
class CostEstimate:
    area: float        # standalone accelerator area (hierarchical features)
    own_area: float    # own-body area, what the area budget sums over
    sw: Fraction       # hierarchical software seconds over the profile
    hw: Fraction       # hierarchical accelerated seconds over the profile
    own_sw: Fraction   # own-instruction software seconds (objective constant)
    own_hw: Fraction   # own-instruction accelerated seconds


def _predict(model, batch) -> np.ndarray:
    return np.maximum(model.predict(np.stack(batch)), 1.0)


def estimate_costs(rows: dict, trace: Trace, model,
                   sw_table: dict[str, int] | None = None,
                   hw_table: dict[str, int] | None = None,
                   clock: Fraction = DEFAULT_CLOCK) -> dict[str, CostEstimate]:
    """Costs of every function of `module_rows` rows, whose areas are one
    batch: the MLP's last bits depend on the batch shape."""
    hier, own = zip(*rows.values())
    area_h, area_o = _predict(model, hier), _predict(model, own)
    sw_table = sw_table or DEFAULT_SW_CYCLES
    hw_table = hw_table or DEFAULT_HW_CYCLES
    out = {}
    for i, n in enumerate(rows):
        h, o = trace.hier_counts.get(n), trace.counts.get(n)
        out[n] = CostEstimate(
            area=float(area_h[i]),
            own_area=float(area_o[i]),
            sw=latency(h, sw_table, clock),
            hw=latency(h, hw_table, clock),
            own_sw=latency(o, sw_table, clock),
            own_hw=latency(o, hw_table, clock),
        )
    return out


def merged_area(rows: dict, row, model, own: bool = False) -> float:
    """Hierarchical (own-body if `own`) area of `feature_rows` row as the
    last of a batch after every row of `rows`."""
    batch = [r[own] for r in rows.values()] + [row[own]]
    return float(_predict(model, batch)[-1])


def merged_cost(rows: dict, row, model, a: CostEstimate, b: CostEstimate,
                glue: Fraction, area: float) -> CostEstimate:
    """Cost of the merged accelerator of parents a and b, with `feature_rows`
    row `row` and hierarchical area `area`, where rows are those of the
    module it would join last. Its own-body area is a `merged_area`; it runs
    both parents' profiled work in hardware plus `glue`, and has no software
    time of its own."""
    return CostEstimate(area, merged_area(rows, row, model, own=True),
                        sw=Fraction(0), hw=a.hw + b.hw + glue,
                        own_sw=Fraction(0), own_hw=a.own_hw + b.own_hw + glue)

"""Tests of the benchmark itself, at tiny sizes (a LASSO area model, a few
corpus programs, 64-element images)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from mergedse import dse, merge  # noqa: E402
from mergedse.cost import synthetic_dataset, train_lasso  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny_model(seed=7):
    _, X, y = synthetic_dataset(60, seed)
    return train_lasso(X, y)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload and keep the benchmark's files in tmp_path."""
    small = {"poly", "pair", "geometry"}
    programs = [p for p in dse.corpus_programs() if p[0] in small]
    monkeypatch.setattr(dse, "corpus_programs", lambda: programs)
    monkeypatch.setattr(dse, "default_model", tiny_model)
    monkeypatch.setattr(dse, "PRESET_LATENCIES", [25])
    monkeypatch.setattr(dse, "PRESET_BANDWIDTHS", [float("inf")])
    monkeypatch.setattr(workloads, "SWEEP_PROGRAM", "poly")
    monkeypatch.setattr(workloads, "SWEEP_BUDGETS", [3000])
    monkeypatch.setattr(workloads, "SCALED_ELEMS", 64)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "DIGESTS", tmp_path / "digests.json")
    return tmp_path


def last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_smoke(tiny, capsys, workload):
    originals = {(m, a): getattr(m, a) for m, a, _ in spans.WRAPPED}
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0"]

    assert run.main(argv + ["--trace", "1", "--record"]) == 0
    traced = last_json(capsys)
    assert traced["correct"] and traced["failed"] == 0
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert traced["metrics"]["partition.solve.calls"]["value"] >= 1
    assert {(m, a): getattr(m, a) for m, a, _ in spans.WRAPPED} == originals
    assert (tiny / f"spans-{workload}-seed3.json").is_file()

    assert run.main(argv + ["--trace", "0"]) == 0
    plain = last_json(capsys)
    assert plain["correct"] and plain["attempted"] >= 1
    assert list(plain["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in plain["metrics"].values())
    recorded = json.loads((tiny / "digests.json").read_text())
    assert str(3) in recorded[workload]


def test_fails_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "dse-corpus",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_times_on_nested_spans():
    # pass [0,10] > a [1,5] > b [2,3], b [3.5,4]; pass > a [6,9]
    s = [(0, "pass", 0.0, 10.0, None, 0), (1, "a", 1.0, 5.0, 0, 1),
         (2, "b", 2.0, 3.0, 1, 1), (3, "b", 3.5, 4.0, 1, 1),
         (4, "a", 6.0, 9.0, 0, 2)]
    assert spans.self_times(s) == [3.0, 2.5, 1.0, 0.5, 3.0]
    assert spans.totals(s) == {"pass": [1, 3.0], "a": [2, 5.5], "b": [2, 1.5]}
    assert spans.totals(s, root=1) == {"a": [1, 2.5], "b": [2, 1.5]}
    assert sum(t for _, t in spans.totals(s).values()) == 10.0
    # overlapping children count once; parts outside the parent do not count
    assert spans.covered([(0.0, 2.0), (1.0, 3.0), (9.0, 12.0)], 0.0, 10.0) == 4.0


def test_tracer_counts_raised_errors():
    from mergedse.ir import InterpError
    poly = workloads.load_inputs("dse-corpus").programs["poly"][0]
    original = merge.interpret
    tracer = spans.Tracer()
    with tracer.installed():
        with pytest.raises(InterpError):
            merge.interpret(poly, "main", [0, 1])   # null buffer
    assert merge.interpret is original
    assert tracer.counts["interp.verify.errors"] == 1
    assert [s[1] for s in tracer.spans] == ["interp.verify"]


def test_generator_is_deterministic(monkeypatch):
    monkeypatch.setattr(workloads, "SCALED_ELEMS", 64)

    def generated(seed):
        inputs = workloads.load_inputs("profile-scaled")
        workloads.generate_scaled(inputs, seed)
        return inputs

    a, b, c = generated(5), generated(5), generated(6)
    assert a.scaled == b.scaled
    assert a.scaled != c.scaled
    assert sorted(a.excluded) == ["geometry", "histo", "matvec"]
    assert sorted(a.scaled) == ["blur", "chain", "checksum", "decode", "pair",
                                "poly", "reduce"]
    for images in a.scaled.values():
        assert len({repr(i.regions) for i in images}) == workloads.SCALED_IMAGES
        assert workloads.SCALED_ELEMS in images[0].args.values()


def test_flipped_byte_is_a_failure():
    inputs = workloads.load_inputs("dse-corpus")
    calls = [c for c in workloads.calls("dse-corpus", inputs, 7)
             if c.label == "poly/FE"]
    done = run.run_pass(calls, tiny_model(), measured=False)
    out = done.outcomes[0]
    recorded = {out.label: out.digest}
    assert run.check([done], recorded) == {}
    k = out.csv.index("\n") + 3
    out.csv = out.csv[:k] + chr(ord(out.csv[k]) ^ 1) + out.csv[k + 1:]
    failures = run.check([done], recorded)
    assert list(failures) == [(0, "poly/FE")]
    assert "digest" in failures[0, "poly/FE"][0]

import subprocess
import sys

import pytest

from mergedse.cli import build_parser, main
from mergedse.dse import BUNDLED_MODEL, corpus_dir

POLY_IR = str(corpus_dir() / "poly.ir")
POLY_HEAP = str(corpus_dir() / "poly.heap")


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "mergedse.cli"] + args,
                          capture_output=True, text=True, **kw)


def test_help_lists_documented_flags():
    expected = {
        "analyze": ["--callgraph", "--loops", "--rank", "--seed", "-o"],
        "merge": ["--pair", "--all", "--min-similarity", "--seeds",
                  "--verify", "--trials", "--csv"],
        "train": ["--model", "--samples", "--alpha", "--dataset",
                  "--dump-dataset"],
        "eval": ["--model", "--test"],
        "dse": ["--config", "--budget", "--latency", "--bandwidth", "--clock",
                "--mode", "--model", "--seed", "-o"],
        "sweep": ["--budgets", "--latencies", "--bandwidths", "--modes"],
        "verify": ["--pair", "--trials"],
        "transform": ["--extract-loops"],
        "partition": ["--budget", "--latency", "--bandwidth"],
    }
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, type(parser._subparsers._group_actions[0])))
    for command, flags in expected.items():
        text = sub.choices[command].format_help()
        for flag in flags:
            assert flag in text, (command, flag)


def test_analyze_callgraph_and_loops(tmp_path):
    r = run_cli(["analyze", "--callgraph", POLY_IR])
    assert r.returncode == 0
    assert "main: direct=poly_a,poly_b,poly_c" in r.stdout
    r = run_cli(["analyze", "--loops", POLY_IR])
    assert r.returncode == 0
    assert "header=h" in r.stdout


def test_transform_extract_loops_parses_back(tmp_path):
    out = tmp_path / "out.ir"
    r = run_cli(["transform", "--extract-loops", POLY_IR, "-o", str(out)])
    assert r.returncode == 0
    from mergedse.ir import parse_module
    m = parse_module(out.read_text())
    assert "main_loop0" in m.functions


def test_merge_all_writes_csv_and_module(tmp_path):
    out = tmp_path / "merged.ir"
    csv = tmp_path / "pairs.csv"
    r = run_cli(["merge", "--all", "--min-similarity", "0.3", "--seeds", "4",
                 "--verify", "--trials", "20", "--csv", str(csv),
                 POLY_IR, "-o", str(out)])
    assert r.returncode == 0
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "pair,similarity,aligned_fraction,verified"
    assert len(lines) > 1
    assert all(line.endswith("true") for line in lines[1:])
    from mergedse.ir import parse_module
    m = parse_module(out.read_text())
    assert any(f.provenance == "merged" for f in m.functions.values())


def test_verify_subcommand():
    r = run_cli(["verify", POLY_IR, "--pair", "poly_a,poly_b",
                 "--trials", "30", "--seed", "1"])
    assert r.returncode == 0
    assert "verified true" in r.stdout


def test_exit_codes(tmp_path):
    # usage error: unknown subcommand argument combination
    assert main(["analyze", POLY_IR]) == 1
    # input error: malformed config value, message names the field
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("area_budget = -5\n")
    r = run_cli(["dse", "--config", str(cfg), POLY_IR, POLY_HEAP])
    assert r.returncode == 2
    assert "budget" in r.stderr
    # input error: parse failure
    bad_ir = tmp_path / "bad.ir"
    bad_ir.write_text("func @f( -> i32 { bb0: ret i32 1 }")
    r = run_cli(["analyze", "--callgraph", str(bad_ir)])
    assert r.returncode == 2
    # unknown config key
    cfg.write_text("warp_speed = 9\n")
    r = run_cli(["dse", "--config", str(cfg), POLY_IR, POLY_HEAP])
    assert r.returncode == 2


def _malformed_model(tmp_path, case):
    if case == "directory":
        return str(tmp_path)
    good = BUNDLED_MODEL.read_bytes()
    data = {"header-only": b"mergedse-model v1\n",
            "cut-after-layers": good[:good.index(b"layers 7\n") + 9],
            "not-text": b"\xff\xfe"}[case]
    path = tmp_path / "model.txt"
    path.write_bytes(data)
    return str(path)


@pytest.mark.parametrize("case", ["header-only", "cut-after-layers",
                                  "directory", "not-text"])
def test_malformed_model_exits_2(tmp_path, case):
    r = run_cli(["dse", "--model", _malformed_model(tmp_path, case),
                 "--budget", "6000", "--mode", "FE",
                 str(corpus_dir() / "reduce.ir"),
                 str(corpus_dir() / "reduce.heap"),
                 "-o", str(tmp_path / "dse")])
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert "error:" in r.stderr


def test_zero_bandwidth_exits_2(tmp_path, model_file):
    r = run_cli(["dse", "--model", model_file, "--budget", "6000",
                 "--bandwidth", "0", POLY_IR, POLY_HEAP,
                 "-o", str(tmp_path / "dse")])
    assert r.returncode == 2
    assert "bandwidth must be positive" in r.stderr
    r = run_cli(["sweep", "--model", model_file, "--modes", "FE",
                 "--budgets", "6000", "--latencies", "25", "--bandwidths",
                 "inf,0", POLY_IR, POLY_HEAP, "-o", str(tmp_path / "sweep")])
    assert r.returncode == 2
    assert "bandwidth must be positive" in r.stderr
    assert not (tmp_path / "sweep.csv").exists()


def test_zero_clock_exits_2(tmp_path, model_file, capsys):
    # a zero clock used to fall back to 1 ns silently
    cfg = tmp_path / "clock.cfg"
    cfg.write_text("clock = 0\n")
    out = tmp_path / "dse"
    for flags in (["--clock", "0"], ["--config", str(cfg)]):
        assert main(["dse", "--model", model_file, "--budget", "6000",
                     *flags, POLY_IR, POLY_HEAP, "-o", str(out)]) == 2
        assert "clock must be positive" in capsys.readouterr().err
        assert not out.with_suffix(".csv").exists()


def test_negative_sweep_grid_exits_2(tmp_path, model_file, capsys):
    out = tmp_path / "sweep"
    for flag in ("--budgets=-1", "--latencies=-1", "--bandwidths=-1"):
        assert main(["sweep", "--model", model_file, "--modes", "FE", flag,
                     POLY_IR, POLY_HEAP, "-o", str(out)]) == 2
        assert "must be non-negative" in capsys.readouterr().err
        assert not out.with_suffix(".csv").exists()
        assert not out.with_suffix(".json").exists()


@pytest.mark.parametrize("cmd, flags", [
    ("dse", ["--clock", "inf"]),
    ("dse", ["--budget", "6000", "--clock", "inf"]),
    ("dse", ["--budget", "6000", "--clock", "nan"]),
    ("dse", ["--budget", "nan"]),
    ("dse", ["--budget", "inf"]),
    ("dse", ["--budget", "6000", "--bandwidth", "nan"]),
    ("sweep", ["--budgets", "nan"]),
    ("sweep", ["--bandwidths", "nan"]),
    ("dse", ["--budget", "6000", "--config", "clock.cfg"]),
])
def test_non_finite_values_exit_2(tmp_path, model_file, capsys, monkeypatch,
                                  cmd, flags):
    # NaN passes every range check and inf overflowed Fraction(); both must
    # be refused before any mode is prepared, leaving no report behind
    from mergedse import dse
    monkeypatch.setattr(dse, "prepare", None)
    (tmp_path / "clock.cfg").write_text("clock = inf\n")
    flags = [str(tmp_path / f) if f.endswith(".cfg") else f for f in flags]
    out = tmp_path / "report"
    assert main([cmd, "--model", model_file, *flags, POLY_IR, POLY_HEAP,
                 "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "must be a number" in err or "must be finite" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [tmp_path / "clock.cfg"]


@pytest.mark.parametrize("extra, message", [
    ("region bad -3\n", "line 5: negative region length -3"),
    ("arg 1 = 17\n", "line 5: duplicate arg 1"),
    ("arg 2 = 0\n", "binds arg 2, but @main has 2 parameters"),
    ("arg -1 = 0\n", "binds arg -1, but @main has 2 parameters"),
])
def test_hostile_heap_image_exits_2(tmp_path, model_file, capsys, extra,
                                    message):
    # a negative length used to read "hex longer than region"; a repeated
    # arg line silently replaced the first, an unknown index was ignored
    heap = tmp_path / "bad.heap"
    heap.write_text(open(POLY_HEAP).read() + extra)
    out = tmp_path / "dse"
    assert main(["dse", "--model", model_file, "--budget", "6000", "--mode",
                 "FE", POLY_IR, str(heap), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.with_suffix(".csv").exists()


REDUCE_IR = str(corpus_dir() / "reduce.ir")


@pytest.mark.parametrize("args, message", [
    (["verify", REDUCE_IR, "--pair", "acc_sum,acc_max", "--trials", "0"],
     "trials must be at least 1, got 0"),
    (["verify", REDUCE_IR, "--pair", "acc_sum,acc_max", "--trials", "-3"],
     "trials must be at least 1, got -3"),
    (["merge", "--all", "--verify", "--trials", "0", REDUCE_IR],
     "trials must be at least 1, got 0"),
    (["merge", "--pair", "acc_sum,acc_max", "--seeds", "0", REDUCE_IR],
     "seeds must be at least 1, got 0"),
])
def test_no_trials_or_seeds_exits_2(tmp_path, args, message):
    # zero trials printed "verified true"; zero seeds crashed with a
    # traceback (exit 1)
    r = run_cli(args + ["-o", str(tmp_path / "out")])
    assert r.returncode == 2
    assert message in r.stderr
    assert "Traceback" not in r.stderr
    assert "verified" not in r.stdout
    assert not (tmp_path / "out").exists()

def test_emitter_error_leaves_no_half_written_report(tmp_path, model_file,
                                                     capsys, monkeypatch):
    import mergedse.cli as cli

    def fail(reports):
        raise ValueError("cannot emit")
    monkeypatch.setattr(cli, "reports_to_json", fail)
    for cmd, flags in (("dse", ["--mode", "FE", "--budget", "6000"]),
                       ("sweep", ["--modes", "FE", "--budgets", "6000",
                                  "--latencies", "25", "--bandwidths", "inf"])):
        out = tmp_path / cmd
        assert main([cmd, "--model", model_file, *flags,
                     POLY_IR, POLY_HEAP, "-o", str(out)]) == 2
        assert "cannot emit" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def test_train_eval_cycle(tmp_path):
    model = tmp_path / "model.txt"
    data = tmp_path / "data.csv"
    r = run_cli(["train", "--model", "lasso", "--samples", "80",
                 "--seed", "3", "--dump-dataset", str(data),
                 "-o", str(model)])
    assert r.returncode == 0, r.stderr
    assert model.exists() and data.exists()
    r = run_cli(["eval", "--model", str(model), "--test", str(data)])
    assert r.returncode == 0
    assert r.stdout.startswith("r2 ")
    assert "mre " in r.stdout


def test_dse_end_to_end(tmp_path, model_file):
    out = tmp_path / "report"
    r = run_cli(["dse", "--model", model_file, "--seed", "7",
                 "--budget", "6000", POLY_IR, POLY_HEAP, "-o", str(out)])
    assert r.returncode == 0, r.stderr
    csv = out.with_suffix(".csv").read_text()
    assert csv.startswith("config,budget_luts")
    import json
    from mergedse.dse import validate_report_json
    doc = json.loads(out.with_suffix(".json").read_text())
    assert validate_report_json(doc) == []


def test_sweep_without_budget_uses_preset_grid(tmp_path, model_file):
    out = tmp_path / "sweep"
    r = run_cli(["sweep", "--model", model_file, "--seed", "7",
                 "--latencies", "25", "--bandwidths", "inf",
                 "--modes", "FE", POLY_IR, POLY_HEAP, "-o", str(out)])
    assert r.returncode == 0, r.stderr
    lines = out.with_suffix(".csv").read_text().strip().split("\n")
    # unspecified budget means the scalability preset grid
    from mergedse.dse import PRESET_BUDGETS
    assert len(lines) == 1 + len(PRESET_BUDGETS)


def test_dse_without_budget_sweeps_presets(tmp_path, model_file):
    out = tmp_path / "auto"
    r = run_cli(["dse", "--model", model_file, "--seed", "7", "--mode", "FE",
                 "--latency", "25", "--bandwidth", "inf",
                 POLY_IR, POLY_HEAP, "-o", str(out)])
    assert r.returncode == 0, r.stderr
    assert "scalability" in r.stderr or "sweeping" in r.stderr
    from mergedse.dse import PRESET_BUDGETS
    lines = out.with_suffix(".csv").read_text().strip().split("\n")
    assert len(lines) == 1 + len(PRESET_BUDGETS)


def test_partition_subcommand(tmp_path, model_file):
    r = run_cli(["partition", "--model", model_file, "--budget", "8000",
                 POLY_IR, POLY_HEAP])
    assert r.returncode == 0, r.stderr
    assert "objective_s" in r.stdout
    assert "optimal true" in r.stdout

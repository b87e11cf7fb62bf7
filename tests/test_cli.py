import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import src_env
from test_ir import call_chain_ir
import mergedse.cli as cli
from mergedse.cli import build_parser, main
from mergedse.ir import OPCODES
from mergedse.dse import BUNDLED_MODEL, corpus_dir
from mergedse.partition import solve

POLY_IR = str(corpus_dir() / "poly.ir")
POLY_HEAP = str(corpus_dir() / "poly.heap")


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "mergedse.cli"] + args,
                          capture_output=True, text=True, env=src_env(), **kw)


def test_help_lists_documented_flags():
    expected = {
        "analyze": ["--callgraph", "--loops", "--rank", "-o"],
        "merge": ["--pair", "--all", "--min-similarity", "--seeds",
                  "--verify", "--csv"],
        "train": ["--model", "--samples", "--alpha", "--dataset",
                  "--dump-dataset", "--seed"],
        "eval": ["--model", "--test"],
        "dse": ["--config", "--budget", "--latency", "--bandwidth", "--clock",
                "--mode", "--model", "--seed", "-o"],
        "sweep": ["--budgets", "--latencies", "--bandwidths", "--modes"],
        "verify": ["--pair"],
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
    # --seed only where it is read; verification takes no trial count
    for command, sp in sub.choices.items():
        text = sp.format_help()
        assert ("--seed " in text) == (
            command in ("train", "partition", "dse", "sweep")), command
        assert "--trials" not in text, command


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
                 "--verify", "--csv", str(csv),
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
    r = run_cli(["verify", POLY_IR, "--pair", "poly_a,poly_b"])
    assert r.returncode == 0
    assert r.stdout == "verified true\nside 1 proved\nside 2 proved\n"


def test_long_token_is_cut_in_parse_errors(tmp_path, capsys):
    # a 5,000-digit literal used to be echoed whole, a 5,046-byte message
    bad_ir = tmp_path / "long.ir"
    bad_ir.write_text("func @main() -> i32 { e: ret i32 " + "9" * 5000 + " }\n")
    assert main(["analyze", "--callgraph", str(bad_ir)]) == 2
    err = capsys.readouterr().err
    assert "integer literal too long, got '" + "9" * 40 + "…'" in err
    assert len(err.encode()) < 200


def test_exit_codes(tmp_path, capsys):
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
    # a repeated parameter name used to drop the first argument silently
    bad_ir.write_text("func @f(%x: i1, %x: i32) -> i32 {\n"
                      "e:\n  %y = add i32 %x, 1\n  ret i32 %y\n}\n")
    assert main(["analyze", "--callgraph", str(bad_ir)]) == 2
    assert "@f: duplicate parameter %x" in capsys.readouterr().err
    # unknown config key
    cfg.write_text("warp_speed = 9\n")
    r = run_cli(["dse", "--config", str(cfg), POLY_IR, POLY_HEAP])
    assert r.returncode == 2
    # a cycle-table key naming no opcode used to be ignored silently
    out = tmp_path / "report"
    for line in ("sw.mull = 50", "hw.nosuch = 3"):
        cfg.write_text(line + "\n")
        assert main(["dse", "--config", str(cfg), "--model", str(BUNDLED_MODEL),
                     "--budget", "6000", "--mode", "FE", POLY_IR, POLY_HEAP,
                     "-o", str(out)]) == 2
        assert f"config key {line.split()[0]}: unknown opcode" in (
            capsys.readouterr().err)
        assert not out.with_suffix(".csv").exists()
    # negative cycle counts used to give a negative software time
    cfg.write_text("sw.add = -1000\nsw.mul = -1000\n")
    assert main(["dse", "--config", str(cfg), "--model", str(BUNDLED_MODEL),
                 "--budget", "6000", "--mode", "FE", POLY_IR, POLY_HEAP,
                 "-o", str(out)]) == 2
    assert "sw.add must be non-negative, got -1000" in capsys.readouterr().err
    assert not out.with_suffix(".csv").exists()
    assert not out.with_suffix(".json").exists()
    # a dataset row of the wrong width used to be broadcast into a score
    data = tmp_path / "short.csv"
    data.write_text("name," + ",".join(OPCODES) + ",target_luts\n"
                    + "".join(f"a{i},{i},{2 * i + 1}\n" for i in range(30)))
    for args in (["eval", "--model", str(BUNDLED_MODEL), "--test", str(data)],
                 ["train", "--model", "lasso", "--dataset", str(data),
                  "-o", str(tmp_path / "m.txt")]):
        assert main(args) == 2
        assert f"{data}:2: expected {len(OPCODES) + 2} fields, got 3" in (
            capsys.readouterr().err)
    assert not (tmp_path / "m.txt").exists()
    # a nan target used to score r2 nan, and training fitted on it
    data.write_text("name," + ",".join(OPCODES) + ",target_luts\n"
                    + "".join(f"a{i}," + ",".join(["1"] * len(OPCODES))
                              + f",{'nan' if i == 3 else 100 + i}\n"
                              for i in range(30)))
    for args in (["eval", "--model", str(BUNDLED_MODEL), "--test", str(data)],
                 ["train", "--model", "lasso", "--dataset", str(data),
                  "-o", str(tmp_path / "m.txt")]):
        assert main(args) == 2
        assert f"{data}:5: non-finite value" in capsys.readouterr().err
    assert not (tmp_path / "m.txt").exists()
    # an empty sweep list used to fall back to the preset grid (or, for
    # --modes, to all four modes)
    sweep_cmd = ["sweep", "--model", str(BUNDLED_MODEL), POLY_IR, POLY_HEAP,
             "-o", str(out)]
    for lists in (["--budgets", "", "--latencies", "", "--bandwidths", "",
                   "--modes", "FE"],
                  ["--budgets", "", "--modes", "FE"],
                  ["--latencies", "", "--modes", "FE"],
                  ["--bandwidths", "", "--modes", "FE"],
                  ["--budgets", "6000", "--latencies", "25",
                   "--bandwidths", "inf", "--modes", ""]):
        assert main(sweep_cmd + lists) == 2
        assert "sweep parameter lists must be non-empty" in (
            capsys.readouterr().err)
        assert not out.with_suffix(".csv").exists()
    # --budgets takes the preset names --budget takes
    assert main(sweep_cmd + ["--budgets", "artix-z7007s,6000",
                             "--latencies", "25", "--bandwidths", "inf",
                             "--modes", "FE"]) == 0
    rows = out.with_suffix(".csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["14400.0", "6000.0"]
    assert main(sweep_cmd + ["--budgets", "artix-nosuch", "--modes", "FE"]) == 2


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


@pytest.mark.parametrize("heap, message", [
    ("region buf 99999999999999999999\narg 0 = buf\n",
     "line 1: regions exceed 16777216 bytes"),
    ("region buf 16777217\narg 0 = buf\n",
     "line 1: regions exceed 16777216 bytes"),
    ("arg 0 = 1e999\n", "argument inf is not an integer"),
    ("arg 0 = 1.5\n", "argument 1.5 is not an integer"),
])
def test_heap_image_numbers_exit_2(tmp_path, model_file, capsys, heap,
                                   message):
    # a huge region length overflowed bytes() and 1e999 overflowed int()
    # (exit 1); 1.5 bound to a ptr parameter silently became address 1
    path = tmp_path / "bad.heap"
    path.write_text(heap + "arg 1 = 16\n")
    out = tmp_path / "dse"
    assert main(["dse", "--model", model_file, "--budget", "6000", "--mode",
                 "FE", POLY_IR, str(path), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.heap"]


@pytest.mark.parametrize("pattern, repl, message", [
    (r"xstd \S+", "xstd nan", "non-finite value"),
    (r"(layer 29 \d+\n)\S+", r"\1inf", "non-finite value"),
    (r"xstd \S+", "xstd 0", "xstd entries must be positive"),
    (r"xstd \S+", "xstd -1.5", "xstd entries must be positive"),
])
def test_non_finite_model_exits_2(tmp_path, capsys, pattern, repl, message):
    # a NaN weight used to pass the budget check: partition exited 0 with
    # every function in hardware
    path = tmp_path / "bad.txt"
    path.write_text(re.sub(pattern, repl, BUNDLED_MODEL.read_text(), count=1))
    assert main(["partition", "--model", str(path), "--budget", "6000",
                 "--mode", "FE", POLY_IR, POLY_HEAP]) == 2
    err = capsys.readouterr().err
    assert f"{path}: {message}" in err
    assert "Traceback" not in err
    out = tmp_path / "dse"
    assert main(["dse", "--model", str(path), "--budget", "6000", "--mode",
                 "FE", POLY_IR, POLY_HEAP, "-o", str(out)]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt"]


REDUCE_IR = str(corpus_dir() / "reduce.ir")


@pytest.mark.parametrize("args, message", [
    (["verify", REDUCE_IR, "--pair", "acc_sum,acc_max", "--trials", "0"],
     "unrecognized arguments: --trials"),
    (["verify", REDUCE_IR, "--pair", "acc_sum,acc_max", "--trials", "-3"],
     "unrecognized arguments: --trials"),
    (["merge", "--all", "--verify", "--trials", "0", REDUCE_IR],
     "unrecognized arguments: --trials"),
    (["merge", "--pair", "acc_sum,acc_max", "--seeds", "0", REDUCE_IR],
     "seeds must be at least 1, got 0"),
    (["merge", "--all", "--min-similarity", "nan", REDUCE_IR],
     "--min-similarity must be in [0, 1], got nan"),
    (["merge", "--all", "--min-similarity", "-0.5", REDUCE_IR],
     "--min-similarity must be in [0, 1], got -0.5"),
    (["merge", "--all", "--min-similarity", "1.5", REDUCE_IR],
     "--min-similarity must be in [0, 1], got 1.5"),
])
def test_no_trials_or_seeds_exits_2(tmp_path, args, message):
    # zero trials printed "verified true", and verification now takes no
    # trial count, so --trials is a usage error (exit 1); zero seeds crashed
    # with a traceback (exit 1); a NaN cutoff merged nothing and exited 0
    r = run_cli(args + ["-o", str(tmp_path / "out")])
    assert r.returncode == (1 if "--trials" in args else 2)
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
    # the four scores of the saved model on its 80/20 split, in this order
    from mergedse.cost import evaluate_model, load_model, read_dataset
    _, X, y = read_dataset(str(data))
    fit = load_model(str(model))
    r2_train, mre_train = evaluate_model(fit, X[:64], y[:64])
    r2_test, mre_test = evaluate_model(fit, X[64:], y[64:])
    assert [line for line in r.stderr.splitlines()
            if line.startswith(("r2_", "mre_"))] == [
        f"r2_train {r2_train!r}", f"r2_test {r2_test!r}",
        f"mre_train {mre_train!r}", f"mre_test {mre_test!r}"]
    r = run_cli(["eval", "--model", str(model), "--test", str(data)])
    assert r.returncode == 0
    assert r.stdout.startswith("r2 ")
    assert "mre " in r.stdout


def test_train_without_output_exits_before_training(tmp_path, capsys,
                                                    monkeypatch):
    # training the MLP takes about 20 s; without -o nothing is read,
    # generated, trained or written
    def fail(*args, **kw):
        raise AssertionError("trained or read data without -o")
    for name in ("synthetic_dataset", "read_dataset", "train_mlp",
                 "train_lasso", "write_dataset"):
        monkeypatch.setattr(cli, name, fail)
    data = tmp_path / "data.csv"
    assert main(["train", "--dump-dataset", str(data)]) == 1
    assert "train: -o model path is required" in capsys.readouterr().err
    assert not data.exists()


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


def test_points_stopped_at_the_node_limit_are_counted_on_stderr(
        tmp_path, model_file, capsys, monkeypatch):
    # the solver logs a node-limit hit only as a warning, below the default
    # log level; the written reports are counted on stderr instead, and the
    # exit code stays 0
    from mergedse import dse
    from mergedse.dse import corpus_programs

    def run(name, *flags):
        _, ir, heap = next(p for p in corpus_programs() if p[0] == name)
        out = tmp_path / name
        assert main(["dse", "--model", model_file, *flags, str(ir), str(heap),
                     "-o", str(out)]) == 0
        assert out.with_suffix(".csv").exists()
        return capsys.readouterr().err.splitlines()
    for name, _, _ in corpus_programs():   # every point optimal: no line
        assert run(name, "--budget", "6000") == [
            f"wrote {tmp_path / name}.csv and {tmp_path / name}.json"]
    monkeypatch.setattr(dse, "solve", lambda p: solve(p, node_limit=50))
    tail = ("stopped at the solver's node limit: their selections are the "
            "best found, not proved optimal")
    assert run("reduce", "--budget", "6000")[-1] == "1 of 1 points " + tail
    # without a budget dse sweeps the preset grids: some points stop
    stopped = run("reduce")[-1]
    assert re.fullmatch(r"([1-9]\d*) of (\d+) points " + re.escape(tail),
                        stopped), stopped


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


def _chain_ir(blocks: int) -> str:
    """A straight-line function of `blocks` blocks, each an add and a jmp."""
    lines = ["func @main(%p: ptr, %n: i32) -> i32 {", "b0:",
             "  %x = add i32 %n, 1", "  jmp b1"]
    for i in range(1, blocks - 1):
        lines += [f"b{i}:", "  %x = add i32 %x, 1", f"  jmp b{i + 1}"]
    return "\n".join(lines + [f"b{blocks - 1}:", "  ret i32 %x", "}"]) + "\n"


def test_many_blocks_do_not_exhaust_the_python_stack(tmp_path, model_file):
    # 1,200 blocks used to end in a RecursionError (exit 1) in the loop
    # finder's acyclicity check, in dse and in transform --extract-loops
    program, heap = tmp_path / "chain.ir", tmp_path / "chain.heap"
    program.write_text(_chain_ir(1500))
    heap.write_text("region buf 16\narg 0 = buf\narg 1 = 3\n")
    for mode in ("FLE", "FLE+Merging"):
        out = tmp_path / mode
        r = run_cli(["dse", "--model", model_file, "--mode", mode,
                     "--budget", "artix-z7007s", str(program), str(heap),
                     "-o", str(out)])
        assert r.returncode == 0, r.stderr
        assert out.with_suffix(".csv").read_text().count("\n") == 2
    out = tmp_path / "t.ir"
    r = run_cli(["transform", "--extract-loops", str(program), "-o", str(out)])
    assert r.returncode == 0, r.stderr
    assert out.read_text().count("jmp b") == 1499


def test_a_deep_call_chain_does_not_exhaust_the_python_stack(tmp_path,
                                                             model_file):
    # a 1,500-deep call chain used to end in a RecursionError (exit 1) in
    # the validator's call-cycle search, so no command could read it
    program = tmp_path / "chain.ir"
    program.write_text(call_chain_ir(5000))
    r = run_cli(["analyze", "--loops", str(program)])
    assert r.returncode == 0, r.stderr
    # and then in the interpreter, which recursed once per call frame while
    # profiling; a chain deeper than its limit is an input error. Cold
    # chains of MAX_CALL_DEPTH + 1 to about 980 calls used to run and now
    # exit 2 here too; the limit leaves room for frames that go on in hot
    # code, which take two Python frames each
    from mergedse.ir.interp import MAX_CALL_DEPTH
    heap = tmp_path / "chain.heap"
    heap.write_text("arg 0 = 3\n")
    for depth in (1500, MAX_CALL_DEPTH):
        program = tmp_path / f"chain{depth}.ir"
        program.write_text(call_chain_ir(depth))
        r = run_cli(["dse", "--model", model_file, "--mode", "FE",
                     "--budget", "artix-z7007s", str(program), str(heap),
                     "-o", str(tmp_path / f"out{depth}")])
        if depth > MAX_CALL_DEPTH:
            assert r.returncode == 2
            assert r.stderr.splitlines() == [
                f"error: call to @f{MAX_CALL_DEPTH} exceeds the call depth "
                f"limit of {MAX_CALL_DEPTH}"]
        else:   # a chain at the limit fits the CLI's stack
            assert r.returncode == 0, r.stderr


def test_partition_subcommand(tmp_path, model_file, capsys, monkeypatch):
    argv = ["partition", "--model", model_file, "--budget", "8000",
            POLY_IR, POLY_HEAP]
    r = run_cli(argv)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[0].startswith("objective_s ")
    assert lines[1] == "optimal true"
    nodes = int(re.fullmatch(r"solver_nodes (\d+)", lines[2]).group(1))
    # the search the line reports is the one solve makes on the instance
    problems, real = [], cli.partition_point

    def keep(*a, **kw):
        sol, problem = real(*a, **kw)
        problems.append(problem)
        return sol, problem
    monkeypatch.setattr(cli, "partition_point", keep)
    assert main(argv) == 0
    assert capsys.readouterr().out == r.stdout
    assert nodes > 0 and solve(problems[0]).nodes == nodes


class _Reached(Exception):
    """Raised by the stubbed pipeline: the config file was accepted."""


def _stub_pipeline(m, images, cfg, *args, **kw):
    raise _Reached(cfg)


_JUNK = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
    st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e400", "1e-400", "7",
                     "FE", "FLE+Merging", "artix-z7007s", "1e9"]),
    st.integers().map(str), st.floats().map(repr))
_CONFIG_LINE = st.one_of(
    st.sampled_from(["latency = 25", "mode = FE", "area_budget = artix-z7007s",
                     "bandwidth = inf", "clock = 1e-9", "seed = 3",
                     "sw.mul = 3", "hw.load = 2"]),
    st.builds("{} = {}".format, st.sampled_from(
        ["area_budget", "latency", "bandwidth", "clock", "mode", "model",
         "seed"]), _JUNK),
    st.builds("{}.{} = {}".format, st.sampled_from(["sw", "hw"]),
              st.one_of(st.sampled_from(OPCODES), st.text(max_size=8)),
              _JUNK),
    st.text(st.characters(blacklist_categories=("Cs",),
                          blacklist_characters="="), max_size=20))


@settings(max_examples=150, deadline=None)
@given(st.lists(_CONFIG_LINE, max_size=6))
def test_config_file_exits_2_or_reaches_pipeline(lines):
    # known keys with junk values, cycle-table keys with any name and lines
    # without '=': either the run is refused with exit 2 or the pipeline is
    # entered with a valid config, never another exit code or a traceback
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp)   # relative model paths name nothing
        for name in ("run_pipeline", "sweep"):
            mp.setattr(cli, name, _stub_pipeline)
        mp.setattr(cli, "default_model", lambda seed: None)
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            code = main(["dse", "--config", str(cfg), POLY_IR, POLY_HEAP,
                         "-o", str(Path(tmp) / "report")])
        except _Reached as e:
            # an accepted config carries only opcodes in its cycle tables,
            # each with a non-negative cycle count
            accepted = e.args[0]
            assert (set(accepted.sw_table) == set(accepted.hw_table)
                    == set(OPCODES))
            assert min(accepted.sw_table.values()) >= 0
            assert min(accepted.hw_table.values()) >= 0
            return
        assert code == 2
        assert sorted(p.name for p in Path(tmp).iterdir()) == ["run.cfg"]

"""Command-line entry point.

Subcommands: analyze, transform, merge, train, eval, partition, dse, sweep,
verify. Exit codes: 0 success, 1 usage error, 2 input/validation error,
3 internal invariant failure. Diagnostics go to stderr; data to stdout or -o.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from . import __version__
from .analysis import build_call_graph, extract_loops, natural_loops, rank_pairs
from .cost import (
    DEFAULT_DATASET_SEED, evaluate_model, load_model,
    read_dataset, save_model, synthetic_dataset, train_lasso, train_mlp,
    write_dataset,
)
from .dse import (
    AREA_PRESETS, MIN_SIMILARITY, MODES, PipelineConfig, default_model,
    partition_point, prepare, reports_to_csv, reports_to_json, run_pipeline,
    sweep,
)
from .ir import OPCODES, HeapImage, IRError, parse_module, print_module
from .merge import DEFAULT_SEEDS, MergeRejected, merge_functions, verify_merge
from .partition import check_solution

log = logging.getLogger("mergedse")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


def _setup_logging():
    level = os.environ.get("MERGEDSE_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    if level not in levels:
        print(f"warning: MERGEDSE_LOG={level!r} not one of error/info/debug",
              file=sys.stderr)
        level = "error"
    logging.basicConfig(stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s",
                        level=levels[level])


def parse_config_file(path: str) -> dict:
    """key = value lines; '#' or ';' comments; keys listed in the README."""
    out: dict = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise IRError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = value
    return out


def _parse_bandwidth(text: str) -> float:
    if text.lower() in ("inf", "infinite", "unlimited"):
        return float("inf")
    return float(text)


def _budget_value(text: str) -> float:
    if text in AREA_PRESETS:
        return AREA_PRESETS[text]
    return float(text)


def _apply_config(args, cfgfile: dict):
    """Fold config-file keys into the parsed args (flags win)."""
    mapping = {
        "area_budget": ("budget", _budget_value),
        "latency": ("latency", int),
        "bandwidth": ("bandwidth", _parse_bandwidth),
        "clock": ("clock", float),
        "mode": ("mode", str),
        "model": ("model", str),
        "seed": ("seed", int),
    }
    table_overrides = {"sw": {}, "hw": {}}
    for key, value in cfgfile.items():
        if key in mapping:
            dest, conv = mapping[key]
            if getattr(args, dest, None) is None:
                try:
                    setattr(args, dest, conv(value))
                except ValueError as e:
                    raise IRError(f"config key {key}: {e}")
        elif key.startswith(("sw.", "hw.")):
            side, op = key.split(".", 1)
            if op not in OPCODES:
                raise IRError(f"config key {key}: unknown opcode {op!r}")
            table_overrides[side][op] = int(value)
        else:
            raise IRError(f"unknown config key {key!r}")
    return table_overrides


def _tool_config(args, tables) -> PipelineConfig:
    # flags left unset take PipelineConfig's defaults
    given = {"mode": args.mode, "area_budget": args.budget,
             "latency": args.latency, "bandwidth": args.bandwidth,
             "clock": args.clock, "seed": args.seed}
    return PipelineConfig(**{k: v for k, v in given.items() if v is not None},
                          sw_table=tables["sw"], hw_table=tables["hw"])


def _load_program(args):
    m = parse_module(Path(args.program).read_text())
    images = []
    if getattr(args, "inputs", None):
        for p in args.inputs:
            images.append(HeapImage.parse(Path(p).read_text()))
    return m, images


def _load_or_train_model(args):
    if getattr(args, "model", None):
        return load_model(args.model)
    seed = DEFAULT_DATASET_SEED if args.seed is None else args.seed
    log.info("no model path given; using the default MLP for seed %d "
             "(seed 7 loads the bundled file, other seeds train)", seed)
    return default_model(seed)


def _out(args, text: str):
    if getattr(args, "output", None):
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _add_common(sp, budget=True):
    sp.add_argument("--config", help="key = value configuration file")
    if budget:
        sp.add_argument("--budget", type=_budget_value, default=None,
                        help="area budget in LUTs or a preset name "
                             f"({', '.join(sorted(AREA_PRESETS))})")
        sp.add_argument("--latency", type=int, default=None,
                        help="interconnect latency in cycles per call")
        sp.add_argument("--bandwidth", type=_parse_bandwidth, default=None,
                        help="interconnect bandwidth in bytes/s ('inf' allowed)")
        sp.add_argument("--clock", type=float, default=None,
                        help="seconds per cycle (default 1e-9)")
        sp.add_argument("--mode", choices=MODES, default=None,
                        help="pipeline configuration")
        sp.add_argument("--model", default=None, help="area model file")
        sp.add_argument("--seed", type=int, default=None,
                        help="area model seed when --model is not given "
                             "(7, the default, loads the bundled model)")
    sp.add_argument("-o", "--output", default=None, help="output file")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mergedse",
        description="Merge-aware accelerator selection and early design-space "
                    "exploration over the bundled mini-IR.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="static analyses on a module")
    sp.add_argument("program")
    sp.add_argument("--callgraph", action="store_true",
                    help="print direct and transitive callees")
    sp.add_argument("--loops", action="store_true",
                    help="print the natural-loop forest")
    sp.add_argument("--rank", action="store_true",
                    help="print ranked candidate pairs")
    _add_common(sp, budget=False)

    sp = sub.add_parser("transform", help="module-to-module transforms")
    sp.add_argument("program")
    sp.add_argument("--extract-loops", action="store_true",
                    help="turn outermost loops into functions")
    _add_common(sp, budget=False)

    sp = sub.add_parser("merge", help="merge similar functions")
    sp.add_argument("program")
    sp.add_argument("--pair", help="comma-separated pair of function names")
    sp.add_argument("--all", action="store_true",
                    help="merge every ranked pair above the cutoff")
    sp.add_argument("--min-similarity", type=float, default=MIN_SIMILARITY,
                    help="similarity cutoff for --all, in [0, 1]")
    sp.add_argument("--seeds", type=int, default=DEFAULT_SEEDS,
                    help="linearization seed combinations per pair")
    sp.add_argument("--verify", action="store_true",
                    help="prove each merged function equal to its parents")
    sp.add_argument("--csv", default=None,
                    help="write a pair,similarity,aligned,verified CSV here")
    _add_common(sp, budget=False)

    sp = sub.add_parser("train", help="train an area model")
    sp.add_argument("--model", choices=("mlp", "lasso"), default="mlp")
    sp.add_argument("--samples", type=int, default=600)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--dataset", default=None,
                    help="train from this CSV instead of the synthetic oracle")
    sp.add_argument("--dump-dataset", default=None,
                    help="also write the generated dataset CSV here")
    sp.add_argument("--seed", type=int, default=None,
                    help="dataset and training seed (default 7)")
    _add_common(sp, budget=False)

    sp = sub.add_parser("eval", help="evaluate a model on a dataset CSV")
    sp.add_argument("--model", required=True)
    sp.add_argument("--test", required=True)
    _add_common(sp, budget=False)

    sp = sub.add_parser("partition", help="solve one partitioning instance")
    sp.add_argument("program")
    sp.add_argument("inputs", nargs="+", help="heap image files")
    _add_common(sp)

    sp = sub.add_parser("dse", help="full pipeline at one operating point")
    sp.add_argument("program")
    sp.add_argument("inputs", nargs="+", help="heap image files")
    _add_common(sp)

    sp = sub.add_parser("sweep", help="budget/latency/bandwidth sweep")
    sp.add_argument("program")
    sp.add_argument("inputs", nargs="+", help="heap image files")
    sp.add_argument("--budgets", default=None,
                    help="comma-separated LUT budgets or preset names "
                         "(default: preset grid)")
    sp.add_argument("--latencies", default=None)
    sp.add_argument("--bandwidths", default=None)
    sp.add_argument("--modes", default=None,
                    help="comma-separated subset of the four configurations")
    _add_common(sp)

    sp = sub.add_parser("verify", help="prove both sides of a merged pair")
    sp.add_argument("program")
    sp.add_argument("--pair", required=True,
                    help="comma-separated pair of function names")
    _add_common(sp, budget=False)
    return ap


def _cmd_analyze(args, tables):
    m, _ = _load_program(args)
    lines = []
    if args.callgraph:
        cg = build_call_graph(m)
        for name in sorted(m.functions):
            direct = ",".join(sorted(cg.direct[name])) or "-"
            trans = ",".join(sorted(cg.callees(name))) or "-"
            lines.append(f"{name}: direct={direct} transitive={trans}")
    if args.loops:
        for name in sorted(m.functions):
            forest = natural_loops(m.functions[name])
            if forest.irreducible:
                lines.append(f"{name}: irreducible")
                continue
            for l in forest.loops:
                lines.append(f"{name}: header={l.header} depth={l.depth} "
                             f"blocks={','.join(sorted(l.blocks))}")
    if args.rank:
        for a, b, s in rank_pairs(m):
            lines.append(f"{a},{b},{s!r}")
    if not (args.callgraph or args.loops or args.rank):
        raise UsageError("analyze: pass --callgraph, --loops, or --rank")
    _out(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_transform(args, tables):
    if not args.extract_loops:
        raise UsageError("transform: pass --extract-loops")
    m, _ = _load_program(args)
    _out(args, print_module(extract_loops(m)))
    return EXIT_OK


def _cmd_merge(args, tables):
    if not 0 <= args.min_similarity <= 1:   # NaN fails too
        raise IRError(f"--min-similarity must be in [0, 1], got "
                      f"{args.min_similarity}")
    m, _ = _load_program(args)
    if not args.pair and not args.all:
        raise UsageError("merge: pass --pair f1,f2 or --all")
    if args.pair:
        parts = args.pair.split(",")
        if len(parts) != 2:
            raise UsageError("--pair expects exactly two names")
        pairs = [(parts[0], parts[1], float("nan"))]
    else:
        pairs = rank_pairs(m, args.min_similarity)
    rows = ["pair,similarity,aligned_fraction,verified"]
    out = m.clone()
    for n1, n2, sim in pairs:
        try:
            mf = merge_functions(m, n1, n2, seeds=args.seeds)
        except MergeRejected as e:
            print(f"rejected {n1},{n2}: {e}", file=sys.stderr)
            continue
        verified = ""
        if args.verify:
            verified = str(verify_merge(m, mf).passed).lower()
        out.functions[mf.function.name] = mf.function
        rows.append(f"{n1}+{n2},{sim!r},{mf.alignment.aligned_fraction!r},"
                    f"{verified}")
    if args.csv:
        Path(args.csv).write_text("\n".join(rows) + "\n")
    _out(args, print_module(out))
    return EXIT_OK


def _cmd_train(args, tables):
    if not args.output:
        raise UsageError("train: -o model path is required")
    seed = args.seed if args.seed is not None else DEFAULT_DATASET_SEED
    if args.dataset:
        names, X, y = read_dataset(args.dataset)
    else:
        names, X, y = synthetic_dataset(args.samples, seed)
    if args.dump_dataset:
        write_dataset(args.dump_dataset, names, X, y)
    split = int(0.8 * len(X))
    alpha = {} if args.alpha is None else {"alpha": args.alpha}
    if args.model == "mlp":
        model = train_mlp(X[:split], y[:split], seed=seed, **alpha)
    else:
        model = train_lasso(X[:split], y[:split], **alpha)
    r2_train, mre_train = evaluate_model(model, X[:split], y[:split])
    r2_test, mre_test = evaluate_model(model, X[split:], y[split:])
    print(f"r2_train {r2_train!r}\nr2_test {r2_test!r}\n"
          f"mre_train {mre_train!r}\nmre_test {mre_test!r}", file=sys.stderr)
    save_model(model, args.output)
    return EXIT_OK


def _cmd_eval(args, tables):
    model = load_model(args.model)
    _, X, y = read_dataset(args.test)
    r2, mre = evaluate_model(model, X, y)
    _out(args, f"r2 {r2!r}\nmre {mre!r}\n")
    return EXIT_OK


def _cmd_partition(args, tables):
    cfg = _tool_config(args, tables)
    m, images = _load_program(args)
    model = _load_or_train_model(args)
    prep = prepare(m, images, cfg, model)
    sol, problem = partition_point(prep, cfg, cfg.area_budget, cfg.latency,
                                   cfg.bandwidth)
    bad = check_solution(problem, sol)
    if bad:
        raise AssertionError(f"solver returned infeasible solution: {bad}")
    lines = [f"objective_s {float(sol.objective)!r}",
             f"optimal {str(sol.optimal).lower()}",
             f"solver_nodes {sol.nodes}",
             "software " + ",".join(sol.software),
             "hardware " + ",".join(sol.hardware),
             "merged_hw " + ",".join(sol.merged_hw)]
    _out(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_dse(args, tables):
    if args.budget is None:
        # no area budget anywhere: provide a scalability analysis instead
        print("no area budget specified; sweeping the preset grids",
              file=sys.stderr)
        args.budgets = args.latencies = args.bandwidths = None
        args.modes = args.mode  # a chosen mode restricts the sweep
        return _cmd_sweep(args, tables)
    cfg = _tool_config(args, tables)
    m, images = _load_program(args)
    model = _load_or_train_model(args)
    report = run_pipeline(m, images, cfg, model=model,
                          program=Path(args.program).stem)
    base = Path(args.output) if args.output else Path("dse-report")
    base.parent.mkdir(parents=True, exist_ok=True)
    _write_reports(base, [report])
    return EXIT_OK


def _split_list(text, conv):
    # None (no flag) takes the presets; "" is an empty list, which sweep rejects
    parts = text.split(",") if text else []
    return None if text is None else [conv(p) for p in parts]


def _cmd_sweep(args, tables):
    cfg = _tool_config(args, tables)
    budgets = _split_list(args.budgets, _budget_value)
    latencies = _split_list(args.latencies, int)
    bandwidths = _split_list(args.bandwidths, _parse_bandwidth)
    modes = _split_list(args.modes, str)
    m, images = _load_program(args)
    model = _load_or_train_model(args)
    # no budget anywhere means scalability analysis over the preset grids
    if budgets is None and args.budget is not None:
        budgets = [args.budget]
    if latencies is None and args.latency is not None:
        latencies = [args.latency]
    if bandwidths is None and args.bandwidth is not None:
        bandwidths = [args.bandwidth]
    reports = sweep(m, images, cfg, budgets=budgets, latencies=latencies,
                    bandwidths=bandwidths, modes=modes, model=model,
                    program=Path(args.program).stem)
    base = Path(args.output) if args.output else Path("sweep-report")
    base.parent.mkdir(parents=True, exist_ok=True)
    _write_reports(base, reports)
    return EXIT_OK


def _write_reports(base: Path, reports):
    """Write base.csv and base.json; an emitter error writes neither. Points
    the solver stopped at its node limit are counted on stderr."""
    csv_text, json_text = reports_to_csv(reports), reports_to_json(reports)
    base.with_suffix(".csv").write_text(csv_text)
    base.with_suffix(".json").write_text(json_text)
    print(f"wrote {base.with_suffix('.csv')} and {base.with_suffix('.json')}",
          file=sys.stderr)
    stopped = sum(not r.optimal for r in reports)
    if stopped:
        print(f"{stopped} of {len(reports)} points stopped at the solver's "
              "node limit: their selections are the best found, not proved "
              "optimal", file=sys.stderr)


def _cmd_verify(args, tables):
    m, _ = _load_program(args)
    parts = args.pair.split(",")
    if len(parts) != 2:
        raise UsageError("--pair expects exactly two names")
    mf = merge_functions(m, parts[0], parts[1])
    rep = verify_merge(m, mf)
    # one line per side: proved, or the unproved side as `detail` names it
    unproved = iter(rep.detail.split("; "))
    _out(args, "".join([f"verified {str(rep.passed).lower()}\n"] + [
        f"side {side} proved\n" if ok else next(unproved) + "\n"
        for side, ok in enumerate(rep.proved, 1)]))
    return EXIT_OK if rep.passed else EXIT_INPUT


_COMMANDS = {
    "analyze": _cmd_analyze,
    "transform": _cmd_transform,
    "merge": _cmd_merge,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "partition": _cmd_partition,
    "dse": _cmd_dse,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code in (0, None) else EXIT_USAGE
    try:
        tables = {"sw": {}, "hw": {}}
        if getattr(args, "config", None):
            tables = _apply_config(args, parse_config_file(args.config))
        return _COMMANDS[args.command](args, tables)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (IRError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

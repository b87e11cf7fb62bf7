"""The benchmark's workloads: each turns a seed into calls of the public API.

Three workloads stress different layers of the pipeline:

- ``sweep-reduce``: one ``sweep`` of corpus ``reduce`` in FLE+Merging over a
  grid of operating points. Exact partitioning (branch and bound) dominates.
- ``dse-corpus``: one ``run_pipeline`` per corpus program and mode at the
  README's headline point. Merging and differential verification dominate.
- ``profile-scaled``: one ``run_pipeline`` per scalable program, mode FE or
  FLE, and seeded image with 2048-element buffers. No merging happens, so
  the profiling interpreter dominates.

The benchmark's seed only generates inputs: the images of
``profile-scaled``, the order of the calls of ``dse-corpus`` and the order
of the grid axes of ``sweep-reduce``. The program itself runs with the
CLI's default seed, ``CLI_SEED``, for its area model
(``default_model``) and its verification trials (``PipelineConfig.seed``).
Handing it the benchmark's seed instead changes the work of a pass
several-fold: the model trained from seed 1 accepts 26 merges on reduce
against 10, and its sweep solves ~6x longer; the trial seed moves the
interpreted instructions of single corpus calls by up to 1.8x. Runs with
different seeds would then not measure the same work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from mergedse import dse, ir
from mergedse.ir import HeapImage, Module, run_heap_image

WORKLOADS = ("sweep-reduce", "dse-corpus", "profile-scaled")
CLI_SEED = 7

SWEEP_PROGRAM = "reduce"
# sweep-reduce: two budgets, one where area binds and one where it does not,
# at every preset latency and bandwidth. The full preset grid (42 points)
# takes about 30 s of solving alone, more than one run can afford.
SWEEP_BUDGETS = [3000, 30000]

SCALED_ELEMS = 2048
SCALED_IMAGES = 3
SCALED_MODES = ("FE", "FLE")
SCALED_VALUES = (-64, 64)   # like the bundled images' sample values


@dataclass
class Call:
    """One public pipeline call: a ``run_pipeline``, or a ``sweep`` when
    ``grid`` holds its budgets/latencies/bandwidths."""

    label: str
    program: str
    module: Module
    images: list[HeapImage]
    cfg: dse.PipelineConfig
    grid: dict | None = None

    def __call__(self, model) -> list[dse.DseReport]:
        if self.grid is None:
            return [dse.run_pipeline(self.module, self.images, self.cfg,
                                     model=model, program=self.program)]
        return dse.sweep(self.module, self.images, self.cfg, model=model,
                         program=self.program, modes=[self.cfg.mode],
                         **self.grid)


@dataclass
class Inputs:
    """Parsed corpus programs, name -> (module, heap image)."""

    programs: dict[str, tuple[Module, HeapImage]]
    scaled: dict[str, list[HeapImage]] = field(default_factory=dict)
    excluded: dict[str, str] = field(default_factory=dict)


def load_inputs(workload: str) -> Inputs:
    """Read and parse the corpus programs the workload uses (set-up)."""
    programs = {}
    for name, ir_path, heap in dse.corpus_programs():
        if workload != "sweep-reduce" or name == SWEEP_PROGRAM:
            programs[name] = (ir.parse_module(ir_path.read_text()),
                              HeapImage.parse(heap.read_text()))
    return Inputs(programs)


def scaling_slack(m: Module, img: HeapImage) -> tuple[int, int] | str:
    """(length-argument index, slack) when every region of the image holds
    ``length + slack`` i32 elements, else the reason the image cannot scale."""
    f = m.functions[m.entry]
    scalars = [i for i, (_, ty) in enumerate(f.params) if ty != "ptr"]
    if len(scalars) != 1 or f.params[scalars[0]][1] != "i32":
        return "entry takes no single i32 length argument"
    idx = scalars[0]
    n = img.args.get(idx)
    if not isinstance(n, int) or n <= 0:
        return "length argument is not bound to a positive integer"
    sizes = {name: len(content) for name, content in img.regions}
    slacks = {size // 4 - n for size in sizes.values()}
    if any(s % 4 for s in sizes.values()) or len(slacks) != 1 or min(slacks) < 0:
        return (f"regions {sizes} (bytes) do not all scale with "
                f"length argument {n}")
    return idx, slacks.pop()


def scaled_image_text(img: HeapImage, idx: int, slack: int, n: int,
                      rng: random.Random) -> str:
    """Heap-image text like ``img`` with every region grown to ``n + slack``
    i32 elements and the length argument bound to ``n``. Regions that start
    zeroed (outputs) stay zeroed; the others get seeded sample values."""
    lo, hi = SCALED_VALUES
    lines = []
    for name, content in img.regions:
        elems = n + slack
        if any(content):
            data = b"".join(rng.randint(lo, hi).to_bytes(4, "little", signed=True)
                            for _ in range(elems))
            lines.append(f"region {name} {4 * elems} {data.hex()}")
        else:
            lines.append(f"region {name} {4 * elems}")
    for i in sorted(img.args):
        v = n if i == idx else img.args[i]
        lines.append(f"arg {i} = {v}")
    return "\n".join(lines) + "\n"


def generate_scaled(inputs: Inputs, seed: int):
    """Fill ``inputs.scaled`` with seeded images for every scalable program
    and ``inputs.excluded`` with the reason for every other one. Each image
    must run without error on the untransformed module."""
    for name, (m, img) in inputs.programs.items():
        fit = scaling_slack(m, img)
        if isinstance(fit, str):
            inputs.excluded[name] = fit
            continue
        idx, slack = fit
        texts = [scaled_image_text(img, idx, slack, SCALED_ELEMS,
                                   random.Random(f"{seed}/{name}/{k}"))
                 for k in range(1, SCALED_IMAGES + 1)]
        parsed = [HeapImage.parse(t) for t in texts]
        for image in parsed:
            run_heap_image(m, image)   # raises InterpError on a bad image
        inputs.scaled[name] = parsed


def calls(workload: str, inputs: Inputs, seed: int) -> list[Call]:
    """The calls of one measured pass, in the seed's order."""
    rng = random.Random(f"{seed}/{workload}")
    if workload == "sweep-reduce":
        m, img = inputs.programs[SWEEP_PROGRAM]
        cfg = dse.PipelineConfig(mode="FLE+Merging", seed=CLI_SEED)
        grid = {"budgets": SWEEP_BUDGETS, "latencies": dse.PRESET_LATENCIES,
                "bandwidths": dse.PRESET_BANDWIDTHS}
        grid = {k: rng.sample(v, len(v)) for k, v in grid.items()}
        return [Call(f"{SWEEP_PROGRAM}/FLE+Merging/sweep", SWEEP_PROGRAM, m,
                     [img], cfg, grid)]
    if workload == "dse-corpus":
        out = []
        for name, (m, img) in inputs.programs.items():
            for mode in dse.MODES:
                cfg = dse.PipelineConfig(
                    mode=mode, area_budget=dse.AREA_PRESETS["artix-z7007s"],
                    latency=25, bandwidth=float("inf"), seed=CLI_SEED)
                out.append(Call(f"{name}/{mode}", name, m, [img], cfg))
        rng.shuffle(out)
        return out
    if workload == "profile-scaled":
        out = []
        for name, images in inputs.scaled.items():
            m = inputs.programs[name][0]
            for mode in SCALED_MODES:
                for k, image in enumerate(images, 1):
                    cfg = dse.PipelineConfig(mode=mode, seed=CLI_SEED)
                    out.append(Call(f"{name}/{mode}/k{k}", name, m, [image], cfg))
        return out
    raise ValueError(f"unknown workload {workload!r}")

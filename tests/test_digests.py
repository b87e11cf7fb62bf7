"""The benchmark's recorded output bytes, and the solver's search on its
sweep, checked in process.

For each workload and seed recorded in `perfbench/digests.json`, one pass of
the workload's calls runs with the bundled area model, and the sha256 of each
call's CSV+JSON must equal the recorded digest, as `perfbench/run.py` checks
it. A change to any seeded output byte fails here without a benchmark run.
The check is skipped when the saved model's hash differs from the recorded
one (another numeric platform trains other bits). Nothing is written under
`perfbench/`.

The node ceilings hold the sweep searches to what the bound's split of a
merged function's cost by root cost takes (3,931 and 9,036 nodes); with
equal shares they took 13,941 and 50,427.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from mergedse import dse
from mergedse.cost import save_model

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

RECORDED = json.loads((BENCH / "digests.json").read_text())
SEEDS = (7, 2027)


@pytest.fixture(scope="module")
def model_and_hash(tmp_path_factory):
    model = dse.default_model(workloads.CLI_SEED)
    path = tmp_path_factory.mktemp("model") / "model.txt"
    save_model(model, str(path))
    return model, hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_outputs_match_recorded_digests(model_and_hash, workload, seed):
    model, model_hash = model_and_hash
    entry = RECORDED[workload][str(seed)]
    if entry["model"] != model_hash:
        pytest.skip("the area model differs from the one the digests were "
                    "recorded with")
    inputs = workloads.load_inputs(workload)
    if workload == "profile-scaled":
        workloads.generate_scaled(inputs, seed)
    got = {}
    for call in workloads.calls(workload, inputs, seed):
        reports = call(model)
        text = dse.reports_to_csv(reports) + dse.reports_to_json(reports)
        got[call.label] = hashlib.sha256(text.encode()).hexdigest()
    assert got == entry["calls"]


def test_sweep_searches_stay_under_node_ceilings(model_and_hash):
    model, model_hash = model_and_hash
    if model_hash != RECORDED["sweep-reduce"][str(workloads.CLI_SEED)]["model"]:
        pytest.skip("the area model differs from the one the ceilings were "
                    "measured with")
    inputs = workloads.load_inputs("sweep-reduce")
    (grid,) = workloads.calls("sweep-reduce", inputs, workloads.CLI_SEED)
    assert sum(r.solver_nodes for r in grid(model)) <= 5_000
    # the CLI's default sweep: every mode over the preset grids
    m, img = inputs.programs[workloads.SWEEP_PROGRAM]
    reports = dse.sweep(m, [img], dse.PipelineConfig(seed=workloads.CLI_SEED),
                        model=model)
    assert len(reports) == 168
    assert sum(r.solver_nodes for r in reports) <= 12_000

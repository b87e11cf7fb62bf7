"""Golden merged bodies: every `merge_functions` call the corpus gives rise
to, pinned in tests/data/merge_golden.json.

Cases are every ordered pair of distinct functions of every corpus program,
untransformed (FE) and with loops extracted (FLE), plus every pair `prepare`
hands to `merge_functions` in FE+Merging and FLE+Merging (round-2 pairs have
a merged parent). Each case stores the sha256 of the printed merged body, its
mux select count and the merged-call arguments `args_for` builds on both
sides from fixed parent arguments; a rejected pair stores the MergeRejected
message. Any change to merging must reproduce the file exactly. Regenerate
(only for an intended change of merged bodies) with

    PYTHONPATH=src python tests/test_merge_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from itertools import count
from pathlib import Path

from mergedse import dse
from mergedse.analysis import extract_loops
from mergedse.dse import PipelineConfig, corpus_programs, default_model, prepare
from mergedse.ir import HeapImage, parse_module, print_function
from mergedse.merge import MergeRejected, merge_functions

GOLDEN = Path(__file__).parent / "data" / "merge_golden.json"

# a fixed, position-dependent parent argument per parameter type
ARG = {"ptr": lambda k: 4096 + 64 * k, "i1": lambda k: k % 2,
       "i32": lambda k: 3 - 5 * k, "i64": lambda k: 10 + k,
       "f64": lambda k: k + 0.25}


def _summary(m, n1, n2, merge=merge_functions) -> dict:
    try:
        mf = merge(m, n1, n2)
    except MergeRejected as e:
        return {"rejected": str(e)}
    args = [[ARG[ty](k) for k, (_, ty) in enumerate(m.function(n).params)]
            for n in (n1, n2)]
    return {"sha256": hashlib.sha256(
                print_function(mf.function).encode()).hexdigest(),
            "mux_selects": mf.mux_selects,
            "args1": repr(mf.args_for(1, args[0])),
            "args2": repr(mf.args_for(2, args[1]))}


def collect() -> dict:
    """case name -> summary, over every case the module docstring names."""
    out = {}
    model = default_model(7)
    real = dse.merge_functions
    for name, irp, hp in corpus_programs():
        m = parse_module(irp.read_text())
        for form, work in (("FE", m), ("FLE", extract_loops(m))):
            for n1 in work.functions:
                for n2 in work.functions:
                    if n1 != n2:
                        out[f"{name}/{form}/{n1}+{n2}"] = _summary(work, n1, n2)
        images = [HeapImage.parse(hp.read_text())] if hp else []
        for mode in ("FE+Merging", "FLE+Merging"):
            calls = count()

            def spy(work, n1, n2, **kw):
                key = f"{name}/{mode}/{next(calls)}:{n1}+{n2}"
                out[key] = _summary(work, n1, n2)
                return real(work, n1, n2, **kw)
            dse.merge_functions = spy
            try:
                prepare(m, images, PipelineConfig(mode=mode), model)
            finally:
                dse.merge_functions = real
    return out


def test_merged_bodies_match_golden():
    golden = json.loads(GOLDEN.read_text())
    got = collect()
    assert sorted(got) == sorted(golden)
    assert sum("Merging/" in k for k in got) == 508
    for case, want in golden.items():
        assert got[case] == want, case


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_merge_golden.py --record")
    # one line per case, so a regenerated file diffs case by case
    GOLDEN.write_text("{\n" + ",\n".join(
        f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
        for k, v in sorted(collect().items())) + "\n}\n")

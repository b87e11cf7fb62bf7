"""The output bytes of `mergedse dse` on every bundled corpus program with no
area budget, which sweeps every mode over the preset grids with the bundled
area model.

The sha256 of each sweep's CSV and of its JSON are compared apart against
`tests/data/default_sweeps.json`, so a change that moves only JSON bytes
shows as such. Re-record, only for an intended change of output, with

    PYTHONPATH=src python tests/test_default_sweeps.py --record
"""

import hashlib
import json
import sys
from pathlib import Path

from mergedse.cli import main
from mergedse.dse import corpus_programs

RECORDED = Path(__file__).parent / "data" / "default_sweeps.json"


def sweep_digests(tmp: Path) -> dict:
    """{program: {"csv": sha256, "json": sha256}} of each default sweep."""
    out = {}
    for name, ir, heap in corpus_programs():
        base = tmp / name
        assert main(["dse", str(ir), str(heap), "-o", str(base)]) == 0
        out[name] = {ext: hashlib.sha256(
            base.with_suffix("." + ext).read_bytes()).hexdigest()
            for ext in ("csv", "json")}
    return out


def test_default_sweeps_match_recorded_digests(tmp_path):
    recorded = json.loads(RECORDED.read_text())
    got = sweep_digests(tmp_path)
    assert sorted(got) == sorted(recorded)
    for ext in ("csv", "json"):
        assert {n: d[ext] for n, d in got.items()} == \
            {n: d[ext] for n, d in recorded.items()}, ext


if __name__ == "__main__":
    import tempfile
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_default_sweeps.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        digests = sweep_digests(Path(tmp))
    RECORDED.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} sweeps to {RECORDED}")

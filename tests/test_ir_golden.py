"""Golden front end: parsed structure and printed text of every program the
tests parse, pinned in tests/data/ir_golden.json.

Cases are every corpus program, the same program with loops extracted (its
printed text parsed again), `PAIR_SRC` and the opcode module `OPS_SRC`. Each
case stores the sha256 of `repr(parse_module(text))` and of the module's
`print_module` text. Any change to the parser, the printer or the IR data
types must reproduce the file exactly. Regenerate (only for an intended
change of the IR or its text form) with

    PYTHONPATH=src python tests/test_ir_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from mergedse.analysis import extract_loops
from mergedse.dse import corpus_programs
from mergedse.ir import parse_module, print_module

from conftest import PAIR_SRC
from test_interp_golden import OPS_SRC

GOLDEN = Path(__file__).parent / "data" / "ir_golden.json"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def collect() -> dict:
    """case name -> {"repr": sha256, "print": sha256}."""
    texts = {"PAIR_SRC": PAIR_SRC, "OPS_SRC": OPS_SRC}
    for name, irp, _ in corpus_programs():
        text = irp.read_text()
        texts[f"{name}/FE"] = text
        texts[f"{name}/FLE"] = print_module(extract_loops(parse_module(text)))
    out = {}
    for case, text in texts.items():
        m = parse_module(text)
        out[case] = {"repr": _sha(repr(m)), "print": _sha(print_module(m))}
    return out


def test_front_end_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    got = collect()
    assert sorted(got) == sorted(golden)
    for case, want in golden.items():
        assert got[case] == want, case


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_ir_golden.py --record")
    GOLDEN.write_text("{\n" + ",\n".join(
        f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
        for k, v in sorted(collect().items())) + "\n}\n")

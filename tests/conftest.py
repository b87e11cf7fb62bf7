import os
import time
from pathlib import Path

import pytest

from mergedse.cost import synthetic_dataset, train_mlp
from mergedse.dse import corpus_programs, default_model
from mergedse.ir import HeapImage, parse_module

SRC = str(Path(__file__).resolve().parents[1] / "src")


def src_env() -> dict:
    """This environment with src first on PYTHONPATH, for subprocesses that
    run the package (pytest's own `pythonpath` setting reaches only the
    pytest process)."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": SRC + (os.pathsep + path if path else "")}


# The two conditional selectors with a helper tail call, used across suites.
PAIR_SRC = """
func @helper(%c: i32, %a: i32) -> i32 {
bb0:
  %r = sub i32 %c, %a
  ret i32 %r
}

func @sel_a(%a: i32, %b: i32, %sum: i1) -> i32 {
bb0:
  br %sum, bb1, bb2
bb1:
  %c = add i32 %a, %b
  jmp bb3
bb2:
  %c = mul i32 %a, %b
  jmp bb3
bb3:
  %c2 = call i32 @helper(%c, %a)
  ret i32 %c2
}

func @sel_b(%a: i32, %b: i32, %d: i32, %mult: i1) -> i32 {
bb0:
  br %mult, bb1, bb2
bb1:
  %c = mul i32 %a, %b
  jmp bb3
bb2:
  %c = add i32 %d, %b
  jmp bb3
bb3:
  ret i32 %c
}
"""


@pytest.fixture(scope="session")
def pair_module():
    return parse_module(PAIR_SRC)


@pytest.fixture(scope="session")
def corpus():
    out = []
    for name, irp, hp in corpus_programs():
        m = parse_module(irp.read_text())
        img = HeapImage.parse(hp.read_text())
        out.append((name, m, img))
    return out


@pytest.fixture(scope="session")
def area_model():
    # the bundled seed-7 model, loaded from package data (no training)
    return default_model(seed=7)


@pytest.fixture(scope="session")
def trained_seed7_mlp():
    """The seed-7 MLP trained from scratch on the canonical 480-row split
    (about 20 s), and the seconds that dataset and training took."""
    t0 = time.time()
    _, X, y = synthetic_dataset(600, 7)
    split = int(0.8 * len(X))
    model = train_mlp(X[:split], y[:split], seed=7)
    return model, time.time() - t0


@pytest.fixture(scope="session")
def model_file(area_model, tmp_path_factory):
    from mergedse.cost import save_model
    path = tmp_path_factory.mktemp("model") / "area-model.txt"
    save_model(area_model, str(path))
    return str(path)

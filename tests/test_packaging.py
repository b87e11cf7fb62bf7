from pathlib import Path, PurePosixPath

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mergedse"


def test_every_data_file_is_package_data():
    # an installed wheel carries only what package-data names
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    globs = config["tool"]["setuptools"]["package-data"]["mergedse"]
    data = [PurePosixPath(p.relative_to(PACKAGE).as_posix())
            for p in PACKAGE.rglob("*")
            if p.is_file() and p.suffix not in (".py", ".pyc")]
    assert data
    unlisted = [str(p) for p in data if not any(p.match(g) for g in globs)]
    assert unlisted == []

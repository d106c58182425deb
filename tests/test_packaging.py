"""What an installed package needs beside its Python modules."""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def test_every_kernel_source_is_package_data():
    # an installed package builds its kernel from these sources on first use
    with open(ROOT / "pyproject.toml", "rb") as fh:
        config = tomllib.load(fh)
    data = config["tool"]["setuptools"]["package-data"]["sawenum"]
    sources = sorted(p.name for p in (ROOT / "src" / "sawenum").glob("*.c"))
    assert "ckernel_module.c" in sources
    assert set(sources) <= set(data)

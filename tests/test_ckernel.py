"""The compiled kernel's library cache."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sawenum import ckernel

pytestmark = pytest.mark.skipif(
    not ckernel.available(), reason="no C compiler to build the kernel")


def test_cached_library_follows_the_source():
    src = ckernel.SOURCE.read_bytes()
    path = ckernel._lib_path(src)
    assert ckernel._lib_path(bytes(bytearray(src))) == path
    # an edit of any one byte builds a new library, never loads the old one
    for pos in (0, len(src) // 2, len(src) - 1):
        edited = bytearray(src)
        edited[pos] = (edited[pos] + 1) % 256
        assert ckernel._lib_path(bytes(edited)) != path


def test_a_build_removes_the_libraries_of_other_sources(tmp_path):
    stale = tmp_path / "ckernel-deadbeef-1.so"
    stale.write_bytes(b"")
    lib_path = tmp_path / ckernel._lib_path(ckernel.SOURCE.read_bytes()).name
    ckernel._build(lib_path)
    assert [p.name for p in tmp_path.iterdir()] == [lib_path.name]


def test_the_kernel_compiles_without_warnings(tmp_path):
    proc = subprocess.run(
        [ckernel._compiler(), "-O3", "-Wall", "-Wextra", "-Werror", "-c",
         "-o", str(tmp_path / "ckernel.o"), str(ckernel.SOURCE)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_a_sweep_does_not_load_openssl():
    ckernel._load()  # built here, so that the child only loads it
    code = (
        "import sys\n"
        "from sawenum import flm\n"
        "_, stats = flm._sweep(3, 5, 9)\n"
        "print(stats['kernel'], '_hashlib' in sys.modules)\n"
    )
    src_dir = Path(ckernel.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src_dir)})
    assert out.stdout.split() == ["c", "False"]


def test_the_set_up_import_loads_only_what_a_command_runs():
    ckernel._load()  # built here, so that the child only loads it
    code = (
        "import json, sys\n"
        "from sawenum import cli\n"
        "cli_only = sorted(sys.modules)\n"
        "from sawenum import analysis\n"
        "startup = sorted(sys.modules)\n"
        "from sawenum import flm\n"
        "_, stats = flm._sweep(3, 5, 9)\n"
        "print(json.dumps([cli_only, startup, stats['kernel'],\n"
        "                  sorted(sys.modules)]))\n"
    )
    src_dir = Path(ckernel.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src_dir)})
    cli_only, startup, kernel, after_sweep = json.loads(out.stdout)
    # only analyze, fit and ratios import analysis, which needs no mpmath
    assert "sawenum.analysis" not in cli_only
    assert "mpmath" not in startup
    # the Python engine is the fallback, the oracle serves two commands, and
    # dataclasses brings inspect, ast, dis and tokenize with it
    unused = {"dataclasses", "inspect", "sawenum.engine", "sawenum.pruning",
              "sawenum.signatures", "sawenum.oracle"}
    assert unused.isdisjoint(startup)
    assert kernel == "c"
    assert "sawenum.engine" not in after_sweep

"""The compiled kernel: its library cache, its build, and its kink move and
prune bound compared with the Python engine's key by key."""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sawenum import ckernel, engine
from sawenum.pruning import additional_steps_mid

from keys import valid_keys

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


MAX_TARGETS = 32  # ckernel.c's bound on the targets of one kink move


@pytest.fixture(scope="module")
def lib():
    lib = ckernel._load()
    lib.sawenum_targets.restype = ctypes.c_int
    lib.sawenum_targets.argtypes = [
        ctypes.c_int, ctypes.c_int, ctypes.c_int, ctypes.c_uint64,
        ctypes.POINTER(ctypes.c_uint64), ctypes.POINTER(ctypes.c_int),
        ctypes.POINTER(ctypes.c_int),
    ]
    lib.sawenum_steps_mid.restype = ctypes.c_int
    lib.sawenum_steps_mid.argtypes = [ctypes.c_uint64] + [ctypes.c_int] * 5
    return lib


def kernel_targets(lib, key, r, width, first_col):
    """The kernel's ``(targets, completes)``, or its error code, -1 or -2."""
    keys = (ctypes.c_uint64 * MAX_TARGETS)()
    ks = (ctypes.c_int * MAX_TARGETS)()
    completes = ctypes.c_int()
    n = lib.sawenum_targets(width, r, first_col, key, keys, ks,
                            ctypes.byref(completes))
    if n < 0:
        return n
    return tuple(zip(keys[:n], ks[:n])), bool(completes.value)


def engine_targets(key, r, width, first_col):
    """``engine.transitions``, unmemoised, with its faults as the kernel's
    error codes."""
    try:
        targets, completes = engine.transitions(key, r, width, first_col)
    except engine.EngineFault as fault:
        return -1 if "forbidden kink" in str(fault) else -2
    return targets, bool(completes)


@pytest.mark.parametrize("width", range(6))
def test_kink_moves_match_the_engine_key_by_key(lib, width):
    # every target in order, with its weight, the completion and the faults,
    # on every key of the width, at every row and in both column modes; the
    # top row's targets are the next column's canonical keys in both
    faults = 0
    for key in valid_keys(width + 2):
        for r in range(width + 1):
            for first_col in (False, True):
                want = engine_targets(key, r, width, first_col)
                got = kernel_targets(lib, key, r, width, first_col)
                assert got == want, (hex(key), r, first_col)
                faults += want in (-1, -2)
    assert faults  # forbidden kinks are among the keys


@pytest.mark.parametrize("width", range(6))
def test_prune_bounds_match_the_engine_key_by_key(lib, width):
    fb = 2 * (width + 2)
    for key in valid_keys(width + 2):
        bottom, top = (key >> fb) & 1, (key >> (fb + 1)) & 1
        for r in range(-1, width):
            for column in range(width + 2):
                want = additional_steps_mid(key, r, width, bool(bottom),
                                            bool(top), column)
                got = lib.sawenum_steps_mid(key, r, width, bottom, top,
                                            column)
                assert got == want, (hex(key), r, column)

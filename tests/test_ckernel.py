"""The compiled kernel: its library cache, its build, and its kink move and
prune bound compared with the Python engine's key by key."""

import ctypes
import json
import os
import random
import subprocess
import sys
import sysconfig
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import pytest

from sawenum import ckernel, engine
from sawenum.pruning import additional_steps_mid

from keys import valid_keys

pytestmark = pytest.mark.skipif(
    not ckernel.available(), reason="no C compiler to build the kernel")


SOURCES = (ckernel.SOURCE.read_bytes(), ckernel.MODULE_SOURCE.read_bytes())


def test_cached_library_follows_the_source():
    path = ckernel._lib_path(*SOURCES)
    assert ckernel._lib_path(*map(bytes, map(bytearray, SOURCES))) == path
    assert path.name.endswith(EXTENSION_SUFFIXES[0])
    # an edit of any one byte of either source builds a new library, never
    # loads the old one
    for i, src in enumerate(SOURCES):
        for pos in (0, len(src) // 2, len(src) - 1):
            edited = list(SOURCES)
            edited[i] = bytearray(src)
            edited[i][pos] = (edited[i][pos] + 1) % 256
            assert ckernel._lib_path(*map(bytes, edited)) != path
    # a byte moved from one source to the other
    kernel, module = SOURCES
    assert ckernel._lib_path(kernel[:-1], kernel[-1:] + module) != path


def test_a_build_removes_the_libraries_of_other_sources(tmp_path):
    # one of this interpreter's, and one from before the module had a suffix
    for name in ("ckernel-deadbeef-1-2" + EXTENSION_SUFFIXES[0],
                 "ckernel-deadbeef-1.so"):
        (tmp_path / name).write_bytes(b"")
    lib_path = tmp_path / ckernel._lib_path(*SOURCES).name
    ckernel._build(lib_path)
    assert [p.name for p in tmp_path.iterdir()] == [lib_path.name]


def test_a_build_keeps_the_libraries_of_other_interpreters(tmp_path):
    other = tmp_path / "ckernel-deadbeef-1-2.cpython-39-x86_64-linux-gnu.so"
    assert not other.name.endswith(EXTENSION_SUFFIXES[0])
    other.write_bytes(b"")
    lib_path = tmp_path / ckernel._lib_path(*SOURCES).name
    ckernel._build(lib_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [lib_path.name, other.name])


def test_the_kernel_compiles_without_warnings(tmp_path):
    # the kernel alone, and the module that wraps it for the interpreter
    include = sysconfig.get_path("include")
    for source, flags in ((ckernel.SOURCE, []),
                          (ckernel.MODULE_SOURCE, [f"-I{include}"])):
        proc = subprocess.run(
            [ckernel._compiler(), "-O3", "-Wall", "-Wextra", "-Werror", "-c",
             *flags, "-o", str(tmp_path / "ckernel.o"), str(source)],
            capture_output=True, text=True)
        assert proc.returncode == 0, (source.name, proc.stderr)


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
    # nor, with the library cached, the sweep's foreign-function interface
    # or the build's header lookup
    assert {"sawenum.engine", "ctypes", "sysconfig"}.isdisjoint(after_sweep)


MAX_TARGETS = 32  # ckernel.c's bound on the targets of one kink move


@pytest.fixture(scope="module")
def lib():
    # the kernel's test entry points, from the library that sweeps
    lib = ctypes.CDLL(ckernel._load().__file__)
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
    """The kernel's ``(targets, completes)``, or -1 on a forbidden kink."""
    keys = (ctypes.c_uint64 * MAX_TARGETS)()
    ks = (ctypes.c_int * MAX_TARGETS)()
    completes = ctypes.c_int()
    n = lib.sawenum_targets(width, r, first_col, key, keys, ks,
                            ctypes.byref(completes))
    if n < 0:
        return n
    return tuple(zip(keys[:n], ks[:n])), bool(completes.value)


def engine_targets(key, r, width, first_col):
    """``engine.transitions``, unmemoised, with its forbidden-kink fault as
    the kernel's -1."""
    try:
        targets, completes = engine.transitions(key, r, width, first_col)
    except engine.EngineFault:
        return -1
    return targets, bool(completes)


@pytest.mark.parametrize("width", range(6))
def test_kink_moves_match_the_engine_key_by_key(lib, width):
    # every target in order, with its weight, the completion and the fault,
    # on every key of the width, at every row and in both column modes; the
    # top row's targets are the next column's canonical keys in both
    faults = 0
    for key in valid_keys(width + 2):
        for r in range(width + 1):
            for first_col in (False, True):
                want = engine_targets(key, r, width, first_col)
                got = kernel_targets(lib, key, r, width, first_col)
                assert got == want, (hex(key), r, first_col)
                faults += want == -1
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


@pytest.mark.parametrize("width,l_max,n_max", [
    # box --width 6 --length 10, and two sweeps of enumerate --wmax 9
    (6, 10, 36), (7, 12, 19), (8, 11, 19)])
def test_kink_moves_and_bounds_match_on_keys_real_sweeps_carry(
        lib, monkeypatch, width, l_max, n_max):
    # a seeded sample of up to 200 (key, column) pairs per row, from the
    # states entering each kink move of engine.sweep; such a key was last
    # bounded after the move at row r - 1 (-1: the column boundary)
    kink_update = engine.kink_update
    carried = [set() for _ in range(width + 1)]
    moves = []

    def sampled(states, width, r, *args):
        carried[r].update((key, len(moves) // (width + 1)) for key in states)
        moves.append(r)
        return kink_update(states, width, r, *args)

    monkeypatch.setattr(engine, "kink_update", sampled)
    engine.sweep(width, l_max, n_max)
    assert len(moves) == (l_max + 1) * (width + 1)
    rng = random.Random(width)
    fb = 2 * (width + 2)
    for r, pairs in enumerate(carried):
        pairs = sorted(pairs)
        for key, c in rng.sample(pairs, min(200, len(pairs))):
            want = engine_targets(key, r, width, c == 0)
            assert kernel_targets(lib, key, r, width, c == 0) == want, (
                hex(key), r, c)
            bottom, top = (key >> fb) & 1, (key >> (fb + 1)) & 1
            assert lib.sawenum_steps_mid(key, r - 1, width, bottom, top, c) \
                == additional_steps_mid(key, r - 1, width, bool(bottom),
                                        bool(top), c), (hex(key), r, c)


SANITIZED_MAIN = r"""
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

int sawenum_sweep(int, int, int, int, void *, uint64_t *);
int sawenum_targets(int, int, int, uint64_t, uint64_t *, int *, int *);
int sawenum_steps_mid(uint64_t, int, int, int, int, int);

/* One command a line on stdin, one result line on stdout:
 *   sweep W L N PRUNE -> the error, the six stats, then the ledger's
 *                        counts in hex (none on an error)
 *   targets W R FIRST_COL KEY -> the count or error, completes, then each
 *                                target's key and k
 *   steps KEY R W BOTTOM TOP COLUMN -> the bound */
int main(void)
{
    char cmd[16];
    while (scanf("%15s", cmd) == 1) {
        if (!strcmp(cmd, "sweep")) {
            int w, l, n, prune;
            if (scanf("%d %d %d %d", &w, &l, &n, &prune) != 4)
                return 2;
            size_t counts = (size_t)(l + 1) * (n + 1);
            unsigned char *out = malloc(16 * counts);
            uint64_t stats[6];
            int err = sawenum_sweep(w, l, n, prune, out, stats);
            printf("%d", err);
            for (int i = 0; i < 6; i++)
                printf(" %llu", (unsigned long long)stats[i]);
            for (size_t i = 0; !err && i < counts; i++) {
                unsigned __int128 v;
                memcpy(&v, out + 16 * i, 16);
                printf(" 0x%016llx%016llx", (unsigned long long)(v >> 64),
                       (unsigned long long)v);
            }
            free(out);
        } else if (!strcmp(cmd, "targets")) {
            int w, r, first_col, ks[32], completes = 0;
            unsigned long long key;
            uint64_t keys[32];
            if (scanf("%d %d %d %llu", &w, &r, &first_col, &key) != 4)
                return 2;
            int t = sawenum_targets(w, r, first_col, key, keys, ks,
                                    &completes);
            printf("%d %d", t, completes);
            for (int i = 0; i < t; i++)
                printf(" %llu %d", (unsigned long long)keys[i], ks[i]);
        } else if (!strcmp(cmd, "steps")) {
            unsigned long long key;
            int r, w, bottom, top, column;
            if (scanf("%llu %d %d %d %d %d", &key, &r, &w, &bottom, &top,
                      &column) != 6)
                return 2;
            printf("%d", sawenum_steps_mid(key, r, w, bottom, top, column));
        } else {
            return 2;
        }
        printf("\n");
    }
    return 0;
}
"""

def test_the_kernel_runs_clean_under_the_sanitizers(tmp_path):
    # the arena, its blocks, the widening to 128 bits and the test entry
    # points under AddressSanitizer (with its leak check) and UBSan: any
    # finding aborts the program
    cc = ckernel._compiler()
    flags = ["-O1", "-g", "-fsanitize=address,undefined",
             "-fno-sanitize-recover=all"]
    probe = tmp_path / "probe.c"
    probe.write_text("int main(void) { return 0; }\n")
    if subprocess.run([cc, *flags, "-o", str(tmp_path / "probe"), str(probe)],
                      capture_output=True).returncode \
            or subprocess.run([str(tmp_path / "probe")]).returncode:
        pytest.skip("the compiler cannot link the sanitizers")
    main = tmp_path / "main.c"
    main.write_text(SANITIZED_MAIN)
    exe = tmp_path / "kernel"
    proc = subprocess.run([cc, *flags, "-o", str(exe), str(main),
                           str(ckernel.SOURCE)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

    sweeps = [
        (6, 10, 36, True),
        # 25 rows with 128-bit counts
        (3, 30, 100, False),
        # its counts pass 2**128: error 5
        (2, 74, 222, False),
        (0, 5, 5, True)]
    keys = [(width, key) for width in (3, 5)
            for key in valid_keys(width + 2)[::97]]
    moves = [(width, r, first_col, key) for width, key in keys
             for r in range(width + 1) for first_col in (0, 1)]
    bounds = [(key, r, width, (key >> 2 * (width + 2)) & 1,
               key >> 2 * (width + 2) + 1, column) for width, key in keys
              for r in range(-1, width) for column in (0, width + 1)]
    commands = ([f"sweep {w} {l} {n} {int(p)}" for w, l, n, p in sweeps]
                + [f"targets {w} {r} {f} {key}" for w, r, f, key in moves]
                + ["steps " + " ".join(map(str, b)) for b in bounds])
    proc = subprocess.run([str(exe)], input="\n".join(commands) + "\n",
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-4000:]
    lines = proc.stdout.splitlines()
    assert len(lines) == len(commands)

    names = ("peak_states", "state_rows", "peak_bytes", "regrows", "merged",
             "wide_rows")
    for (width, l_max, n_max, prune), line in zip(sweeps, lines):
        err, *rest = (int(v, 0) for v in line.split())
        if (width, l_max) == (2, 74):
            assert err == ckernel.OVERFLOW
            continue
        ledger, stats = ckernel.sweep(width, l_max, n_max, prune)
        assert err == 0
        assert dict(zip(names, rest[:6])) == stats
        assert rest[6:] == [v for column in ledger for v in column]
    assert lines[1].split()[6] == "25"  # wide_rows of (3, 30, 100)
    lines = lines[len(sweeps):]
    for (width, r, first_col, key), line in zip(moves, lines):
        n, completes, *flat = map(int, line.split())
        got = n if n < 0 else (tuple(zip(flat[::2], flat[1::2])),
                               bool(completes))
        assert got == engine_targets(key, r, width, first_col), (
            hex(key), r, first_col)
    for (key, r, width, bottom, top, column), line in zip(
            bounds, lines[len(moves):]):
        assert int(line) == additional_steps_mid(
            key, r, width, bool(bottom), bool(top), column)

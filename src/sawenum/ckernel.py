"""Compiled sweep kernel: ``engine.sweep`` for one width, written in C.

``ckernel.c`` ports the engine's kink move, prune bound and mirror merge,
and returns ``engine.sweep``'s exact ledger; in both sweeps the top row
writes each state under the next column's shifted key, so no pass over the
states shifts keys at a column boundary.  It counts each degree of a
generating function in one 64-bit word.  The first sum of a state that
passes 2**64 widens every count to an unsigned 128-bit integer and is
finished there, and the rest of the sweep keeps 128 bits, so no row is
swept twice; the ledger always has 128 bits.  A sweep whose counts would
pass 2**128 raises instead (c_79, the longest published walk
count, is about 2**113).  Like the engine it sums each state and its mirror
image under one key at column boundaries, which about halves the states it
carries, and with pruning on it leaves columns < W of the ledger empty.
Its work per state follows the state's occupied slots rather than the
width.  Each state stores only the span of degrees its counts occupy, in a
block of a per-row arena that is replaced by a wider one when a sum outgrows
it, so every width is swept exactly once whatever its degrees' spread.  The
row loop expands each state one step ahead of applying it and prefetches
where its targets' hash probes will land, which hides most cache misses of
the large maps.
``flm`` runs every sweep on it (``enumerate``, ``box`` and
``scripts/generate_series.py`` alike) when a C compiler is found.  The
Python engine stays the reference the kernel is tested against, and the
fallback where no compiler is found.  Every command imports this module
through ``flm``, so it imports what a sweep needs (``ctypes``, ``zlib``, the
build's ``subprocess``) inside the functions that use it, and ``engine``
only to raise its ``EngineFault`` when a sweep fails: a run on the kernel
never loads the Python engine.

The shared library is built on first use with the C compiler named by ``CC``
(default ``cc``; it must accept GCC builtins such as ``__builtin_ctzll`` and
``__builtin_prefetch``, as GCC and Clang do) and cached next to this
module's bytecode, keyed by the CRC-32 and length of the source (see
:func:`_lib_path`); a build removes the libraries of other sources there.
:func:`available` reports whether a compiler is there to build it; a build
that fails raises an ``OSError`` with the compiler's stderr.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

SOURCE = Path(__file__).with_name("ckernel.c")

_ERRORS = {
    1: "forbidden kink state",
    2: "occupied vertical edge above the lattice",
    3: "out of memory",
    4: "bad arguments (width too large)",
}
OVERFLOW = 5  # the error code of a count that carried out of 128 bits

_lib = None


def _compiler() -> str | None:
    import shutil

    return shutil.which(os.environ.get("CC", "cc"))


def available() -> bool:
    """True when a C compiler is found to build the kernel (or it is loaded)."""
    return _lib is not None or _compiler() is not None


def _lib_path(src: bytes) -> Path:
    """Where the library built from the kernel source ``src`` is cached.

    The key is the source's CRC-32 and length.  CRC-32 catches every change
    of up to 32 consecutive bits, so an edit never loads a stale library,
    and unlike ``hashlib`` it does not load OpenSSL into every process.
    """
    import zlib

    tag = f"{zlib.crc32(src):08x}-{len(src)}"
    return Path(__file__).with_name("__pycache__") / f"ckernel-{tag}.so"


def _load():
    global _lib
    if _lib is not None:
        return _lib
    # imported here, not at module level, so that importing the CLI stays cheap
    import ctypes

    lib_path = _lib_path(SOURCE.read_bytes())
    if not lib_path.exists():
        _build(lib_path)
    lib = ctypes.CDLL(str(lib_path))
    lib.sawenum_sweep.restype = ctypes.c_int
    lib.sawenum_sweep.argtypes = [
        ctypes.c_int, ctypes.c_int, ctypes.c_int, ctypes.c_int,
        ctypes.c_void_p, ctypes.POINTER(ctypes.c_uint64),
    ]
    _lib = lib
    return lib


def _build(lib_path: Path) -> None:
    import subprocess
    import tempfile

    cc = _compiler()
    if cc is None:
        raise OSError("no C compiler found (set CC)")
    lib_path.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=lib_path.parent)
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, "-O3", "-shared", "-fPIC", "-o", tmp, str(SOURCE)],
            capture_output=True, text=True, errors="replace",
        )
        if proc.returncode:
            raise OSError(f"{cc} failed to build the kernel (exit status "
                          f"{proc.returncode}): {proc.stderr.strip()}")
        os.replace(tmp, lib_path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    # a process that loaded an older library keeps it mapped when unlinked
    for old in set(lib_path.parent.glob("ckernel-*.so")) - {lib_path}:
        old.unlink(missing_ok=True)


def sweep(width: int, l_max: int, n_max: int,
          prune: bool = True) -> tuple[list[list[int]], dict]:
    """``engine.sweep(width, l_max, n_max, prune)``, compiled, with stats.

    Returns ``(ledger, stats)``: ``ledger[c][d]`` is the exact count of
    column ``c``, degree ``d``, equal to ``engine.sweep``'s.  ``stats`` holds
    ``peak_states`` (most live states entering one row), ``state_rows``
    (live states summed over all rows), ``peak_bytes`` (most bytes the
    kernel's two state maps had in use at the end of a row: 32 per entry,
    8 per degree handed out by the arenas (16 once the counts widened),
    plus both hash indexes; allocated but unused capacity is not counted),
    ``regrows`` (how often a state's counts outgrew their block and
    moved to a wider one), ``wide_rows`` (the rows swept with 128-bit
    counts, from the first row in which a state's count passed 2**64 to
    the last; 0 when every count of the sweep fit 64 bits) and
    ``merged`` (states at column boundaries that a state and its distinct
    mirror image were summed into, see ``signatures.mirror``).  Raises
    OverflowError when a count of the sweep does not fit 128 bits.
    """
    import ctypes

    lib = _load()
    n = n_max + 1
    out = ctypes.create_string_buffer(16 * (l_max + 1) * n)
    stats = (ctypes.c_uint64 * 6)()
    err = lib.sawenum_sweep(width, l_max, n_max, int(prune), out, stats)
    if err == OVERFLOW:
        raise OverflowError(
            f"a count of the width-{width} sweep to column {l_max} and "
            f"degree {n_max} does not fit the kernel's 128 bits")
    if err:
        from .engine import EngineFault

        raise EngineFault(f"compiled sweep failed: {_ERRORS.get(err, err)}")
    raw = out.raw
    counts = [int.from_bytes(raw[i:i + 16], sys.byteorder)
              for i in range(0, len(raw), 16)]
    ledger = [counts[c * n:(c + 1) * n] for c in range(l_max + 1)]
    return ledger, {"peak_states": stats[0], "state_rows": stats[1],
                    "peak_bytes": stats[2], "regrows": stats[3],
                    "merged": stats[4], "wide_rows": stats[5]}

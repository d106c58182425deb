#!/usr/bin/env python3
"""Generate the walk series for a large cut-off width, one width per process.

Each width's sweep runs in a fresh child process whose memory is returned to
the OS when it exits.  The child writes the width's completion ledger as a
text file into a cache directory, so an interrupted run resumes where it
stopped.  One child runs per CPU this process may use, so peak memory is up
to that many times one width's peak (about 115 MB of RSS for width 14 or 15
at wmax 21 on the compiled kernel, far more on the Python engine); to hold it
lower, compute widths one at a time with ``--width``.  When every width is
cached the ledgers are assembled into the final series file.

Each width is swept by ``flm``'s sweep, which runs the compiled kernel
(``sawenum.ckernel``) when a C compiler is found, else the Python engine;
both return the same exact ledger, so both write the same ledger bytes.

A ledger file holds '#'-prefixed headers, then one ``column<TAB>degree<TAB>
count`` line per nonzero exact count (columns < width have no lines, since
the pruned sweeps leave them empty).  The headers are ``algorithm-version``,
``width``, ``l_max``, ``n_max`` and ``sha256``, the digest of everything
after the header lines.  A cached ledger whose headers do not match the run
or whose body does not match its digest is refused.  Each
child also writes ``<ledger>.stats.json`` (seconds and peak RSS, and from
the kernel peak live states, state rows, the most bytes its state maps had
in use, how many states moved to a wider block, how many rows it swept
with 128-bit counts and how many states a state and its mirror image were
summed into); the assembly ignores it.

Usage:
    python3 scripts/generate_series.py --wmax 21 -o data/saw_counts_n43.series
    python3 scripts/generate_series.py --wmax 21 -o ... --width 15  # one width
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sawenum import flm  # noqa: E402
from sawenum.modseries import write_series  # noqa: E402


def ledger_path(cache: Path, wmax: int, width: int) -> Path:
    return cache / f"wmax{wmax}_w{width}.ledger"


def ledger_header(wmax: int, width: int) -> dict:
    l_max, n_max = flm.RunPlan(wmax).sweep_size(width)
    return {
        "algorithm-version": flm.ALGORITHM_VERSION,
        "width": str(width),
        "l_max": str(l_max),
        "n_max": str(n_max),
    }


def _digest(body: str) -> str:
    return hashlib.sha256(body.encode("ascii")).hexdigest()


def write_ledger(path: Path, header: dict, ledger) -> None:
    """Write the exact counts ``ledger[c][d]`` (column c, degree d)."""
    body = "".join(f"{c}\t{d}\t{v}\n"
                   for c, col in enumerate(ledger)
                   for d, v in enumerate(col) if v)
    head = "".join(f"# {k}: {v}\n" for k, v in header.items())
    tmp = path.with_suffix(".tmp")
    tmp.write_text(f"{head}# sha256: {_digest(body)}\n{body}", encoding="ascii")
    tmp.rename(path)


def read_ledger(path: Path, header: dict) -> list[list[int]]:
    """Load a ledger as exact counts ``[column][degree]``, refusing it unless
    its headers equal ``header`` and its body matches the recorded digest
    (ValueError)."""
    text = path.read_text(encoding="ascii")
    meta = {}
    body_at = 0
    for line in text.splitlines(keepends=True):
        if not line.startswith("#"):
            break
        k, _, v = line[1:].partition(":")
        meta[k.strip()] = v.strip()
        body_at += len(line)
    body = text[body_at:]
    digest = meta.pop("sha256", None)
    if meta != header:
        raise ValueError(
            f"{path}: ledger headers {meta} do not match this run's {header}; "
            "delete the file to recompute it"
        )
    if digest != _digest(body):
        raise ValueError(f"{path}: ledger body does not match its sha256 header")
    ledger = [[0] * (int(header["n_max"]) + 1)
              for _ in range(int(header["l_max"]) + 1)]
    for line in body.splitlines():
        c, d, v = line.split("\t")
        ledger[int(c)][int(d)] = int(v)
    return ledger


def run_width(wmax: int, width: int, cache: Path) -> None:
    # the Python engine's sweep holds one huge dict, which cycle collection
    # only stalls; the compiled kernel allocates nothing the collector tracks
    gc.disable()
    t0 = time.time()
    ledger, stats = flm._sweep(width, *flm.RunPlan(wmax).sweep_size(width))
    stats = {
        "kernel": stats.pop("kernel"),
        "seconds": round(time.time() - t0, 1),
        **stats,
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    out = ledger_path(cache, wmax, width)
    write_ledger(out, ledger_header(wmax, width), ledger)
    Path(f"{out}.stats.json").write_text(json.dumps(stats) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--wmax", type=int, required=True)
    ap.add_argument("-o", "--output", required=True)
    ap.add_argument("--cache", default=None,
                    help="ledger cache directory (default: OUTPUT dir /ledgers)")
    ap.add_argument("--width", type=int, default=None,
                    help="compute only this width's ledger and exit")
    args = ap.parse_args()
    try:
        plan = flm.RunPlan(args.wmax)
    except ValueError as exc:
        ap.error(str(exc))
    if args.width is not None and not 0 <= args.width <= args.wmax:
        ap.error(f"--width {args.width} is outside 0..{args.wmax}")

    cache = Path(args.cache) if args.cache else Path(args.output).parent / "ledgers"
    cache.mkdir(parents=True, exist_ok=True)

    if args.width is not None:
        run_width(args.wmax, args.width, cache)
        return 0

    ledgers = {}
    for w in range(args.wmax + 1):
        path = ledger_path(cache, args.wmax, w)
        if path.exists():
            try:
                ledgers[w] = read_ledger(path, ledger_header(args.wmax, w))
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            print(f"width {w:2d}: cached", flush=True)

    # the cost peaks near w = 0.8 * wmax and falls off fastest above it:
    # start the costly widths first so the cheap ones fill in around them
    todo = sorted((w for w in range(args.wmax + 1) if w not in ledgers),
                  key=lambda w: -min(w, 4 * (args.wmax - w) + 4))
    jobs = len(os.sched_getaffinity(0))
    running: dict[int, tuple[subprocess.Popen, float]] = {}
    while todo or running:
        while todo and len(running) < jobs:
            w = todo.pop(0)
            cmd = [sys.executable, __file__, "--wmax", str(args.wmax),
                   "-o", args.output, "--cache", str(cache), "--width", str(w)]
            running[w] = (subprocess.Popen(cmd), time.time())
        for w, (proc, t0) in list(running.items()):
            if proc.poll() is None:
                continue
            del running[w]
            if proc.returncode:
                print(f"width {w:2d}: child failed ({proc.returncode})",
                      file=sys.stderr)
                for other, _ in running.values():
                    other.terminate()
                    other.wait()
                return 1
            path = ledger_path(cache, args.wmax, w)
            ledgers[w] = read_ledger(path, ledger_header(args.wmax, w))
            stats = json.loads(Path(f"{path}.stats.json").read_text())
            print(f"width {w:2d}: {time.time() - t0:9.1f}s  "
                  f"{json.dumps(stats)}", flush=True)
        if running:
            time.sleep(0.2)

    table = flm.assemble([ledgers[w] for w in range(args.wmax + 1)], plan)
    write_series(table, args.output)
    print(f"wrote {args.output}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

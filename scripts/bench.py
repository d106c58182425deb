#!/usr/bin/env python3
"""End-to-end timings of one or more checkouts, written as a BENCH_<n>.json.

Measures, for each checkout, in fresh interpreters:

- ``da_scan_2_s``, ``da_scan_2_3_s``: ``analysis.da_scan`` with orders (2,)
  and (2, 3) on the checkout's 44-term ``data/saw_counts_n43.series``
  (the call alone, not the import);
- ``run_analysis_s``: ``scripts/run_analysis.py`` on a copy of that series;
- ``enumerate_w13_s`` and ``enumerate_w13_rss_mb``: wall time and peak
  RSS of ``sawenum enumerate --wmax 13`` (the first call of a checkout also
  builds the compiled kernel, so one warm-up call runs before timing);
- ``box_3x40_s``: wall time of ``sawenum box --width 3 --length 40``,
  whose states spread over many degrees (n_max 123);
- ``enumerate_w15_s`` and ``enumerate_w15_rss_mb``: the same for
  ``sawenum enumerate --wmax 15``;
- ``kernel_w12_wmax16_s``: ``ckernel.sweep_residues(12, 21, 33)`` alone
  (width 12 of ``enumerate --wmax 16``, after the warm-up build), a
  production-scale width that the small runs above do not reach, with the
  sweep's exact work counts ``kernel_w12_wmax16_peak_states``,
  ``_state_rows``, ``_regrows`` and ``_peak_bytes`` (see
  ``ckernel.sweep_residues``);
- ``tier1_s``: the tier-1 suite, with its summary line, timed once per
  checkout after the rounds: no perf change targets it, and it would take
  most of every round.

The host's speed for one process drifts, so checkouts are interleaved,
alternating which goes first, and each timed metric is reported as the
median over ``ROUNDS`` rounds with every run kept; counts are listed round
by round.

Usage:
    python3 scripts/bench.py --out BENCH_10.json
    python3 scripts/bench.py --checkout parent=../parent --checkout change=. \\
        --out BENCH_10.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SERIES = Path("data") / "saw_counts_n43.series"
#: the enumerate runs timed, the first also warming up the kernel build
WMAXES = (13, 15)
#: interleaved rounds per checkout; ten pairs before a median is quoted
ROUNDS = 10

#: run in the measured checkout: time one da_scan call, print the seconds
DA_SCAN = """
import sys, time
from sawenum import analysis
from sawenum.modseries import read_series
coeffs = read_series(sys.argv[1]).values
orders = tuple(int(x) for x in sys.argv[2].split(","))
t0 = time.perf_counter()
analysis.da_scan(coeffs, orders=orders)
print(time.perf_counter() - t0)
"""

#: run in the measured checkout: time one kernel sweep, print the seconds
#: and the sweep's stats as JSON
KERNEL = """
import json, time
from sawenum import ckernel
t0 = time.perf_counter()
_, stats = ckernel.sweep_residues(12, 21, 33)
print(json.dumps({"s": time.perf_counter() - t0, **stats}))
"""

#: run a command as a child; print its wall time, peak RSS (MB) and status
TIMED = """
import json, resource, subprocess, sys, time
t0 = time.perf_counter()
proc = subprocess.run(sys.argv[1:], stdout=subprocess.PIPE,
                      stderr=subprocess.STDOUT, text=True)
wall = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
lines = proc.stdout.strip().splitlines()
print(json.dumps({"wall_s": wall, "peak_rss_mb": rss,
                  "returncode": proc.returncode,
                  "last_line": lines[-1] if lines else ""}))
"""


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"platform": platform.platform(), "machine": platform.machine(),
            "cpu_model": model, "cpus": os.cpu_count(),
            "python": platform.python_version()}


def describe(checkout: Path) -> str:
    """The checkout's commit, marked ``-dirty`` with uncommitted changes."""
    out = subprocess.run(["git", "describe", "--always", "--dirty"],
                         cwd=checkout, capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def timed(cmd, cwd: Path, env) -> dict:
    out = subprocess.run([sys.executable, "-c", TIMED, *cmd], cwd=cwd,
                         env=env, check=True, capture_output=True, text=True)
    result = json.loads(out.stdout)
    if result["returncode"] != 0:
        raise RuntimeError(f"{cmd} failed in {cwd}: {result['last_line']}")
    return result


def measure(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    py = sys.executable
    series = str(checkout / SERIES)
    row = {}
    for key, orders in (("da_scan_2_s", "2"), ("da_scan_2_3_s", "2,3")):
        out = subprocess.run([py, "-c", DA_SCAN, series, orders],
                             cwd=checkout, env=env, check=True,
                             capture_output=True, text=True)
        row[key] = float(out.stdout)
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / SERIES.name
        copy.write_bytes((checkout / SERIES).read_bytes())
        row["run_analysis_s"] = timed(
            [py, "scripts/run_analysis.py", str(copy)], checkout,
            env)["wall_s"]
        cli = [py, "-m", "sawenum.cli"]
        dest = ["-o", str(Path(tmp) / "out.series")]
        timed(cli + ["enumerate", "--wmax", str(WMAXES[0])] + dest, checkout,
              env)  # warm-up: builds the kernel if needed
        for wmax in WMAXES:
            result = timed(cli + ["enumerate", "--wmax", str(wmax)] + dest,
                           checkout, env)
            row[f"enumerate_w{wmax}_s"] = result["wall_s"]
            row[f"enumerate_w{wmax}_rss_mb"] = result["peak_rss_mb"]
        out = subprocess.run([py, "-c", KERNEL], cwd=checkout, env=env,
                             check=True, capture_output=True, text=True)
        for key, value in json.loads(out.stdout).items():
            row[f"kernel_w12_wmax16_{key}"] = value
        row["box_3x40_s"] = timed(
            cli + ["box", "--width", "3", "--length", "40"] + dest, checkout,
            env)["wall_s"]
    return row


def tier1(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    result = timed([sys.executable, "-m", "pytest", "-q", "-p",
                    "no:cacheprovider", "--continue-on-collection-errors"],
                   checkout, env)
    return {"tier1_s": result["wall_s"], "tier1_summary": result["last_line"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--checkout", action="append", metavar="LABEL=DIR",
                    help="a checkout to measure (default: change=<repo>)")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    checkouts = {}
    for item in args.checkout or [f"change={ROOT}"]:
        label, _, path = item.partition("=")
        checkouts[label] = Path(path).resolve()
    runs = {label: [] for label in checkouts}
    for i in range(ROUNDS):
        order = list(checkouts) if i % 2 == 0 else list(checkouts)[::-1]
        for label in order:
            row = measure(checkouts[label])
            runs[label].append(row)
            print(label, i, json.dumps(row), file=sys.stderr, flush=True)
    results = {}
    for label, rows in runs.items():
        results[label] = {"commit": describe(checkouts[label])}
        for key in rows[0]:
            values = [r[key] for r in rows]
            if isinstance(values[0], float):
                results[label][key] = {"median": statistics.median(values),
                                       "runs": values}
            else:
                results[label][key] = values
        results[label].update(tier1(checkouts[label]))
    report = {"machine": machine(), "rounds": ROUNDS,
              "results": results}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end timings of one or more checkouts, written as a BENCH_<n>.json.

Measures, for each checkout, in fresh interpreters:

- ``da_scan_2_s``, ``da_scan_2_3_s``: ``analysis.da_scan`` with orders (2,)
  and (2, 3) on the checkout's 44-term ``data/saw_counts_n43.series``
  (the call alone, not the import), and ``da_scan_1_s``, with order 1 and
  ``pdegrees=(-1, 0, 2, 4, 6, 8, 10)``, whose Q_1 has degree about 20;
- ``run_analysis_s``: ``scripts/run_analysis.py`` on a copy of that series;
- ``enumerate_w13_s`` and ``enumerate_w13_rss_mb``: wall time and peak
  RSS of ``sawenum enumerate --wmax 13`` (the first call of a checkout also
  builds the compiled kernel, so one warm-up call runs before timing);
- ``box_3x40_s``: wall time of ``sawenum box --width 3 --length 40``,
  whose states spread over many degrees (n_max 123);
- ``enumerate_w15_s`` and ``enumerate_w15_rss_mb``: the same for
  ``sawenum enumerate --wmax 15``;
- ``enumerate_w9_engine_s``: wall time of ``sawenum enumerate --wmax 9``
  with ``CC`` naming no compiler, so on the Python engine (about a second),
  the fallback sweep and the tests' reference;
- ``kernel_w12_wmax16_s``: ``ckernel.sweep(12, 21, 33)`` alone
  (width 12 of ``enumerate --wmax 16``, after the warm-up build), a
  production-scale width that the small runs above do not reach, with the
  sweep's exact work counts ``kernel_w12_wmax16_peak_states``,
  ``_state_rows``, ``_regrows``, ``_merged``, ``_peak_bytes`` and
  ``_wide_rows`` (see ``ckernel.sweep``);
- ``kernel_widen_s``: ``ckernel.sweep(3, 30, 100, prune=False)`` alone,
  with the same work counts (``kernel_widen_peak_states`` and so on).  Its
  counts pass 2**64, so its last 25 rows run with 128-bit counts
  (``kernel_widen_wide_rows``): no other row times the widening;
- ``tier1_s``: the tier-1 suite, with its summary line, timed once per
  checkout after the rounds: no perf change targets it, and it would take
  most of every round.  ``tier1_slowest`` holds pytest's ``--durations``
  lines for its ten slowest test phases, which show where that time goes;
- ``enumerate_w13_state_rows`` and ``enumerate_w13_peak_states``, recorded
  once per checkout beside ``tier1_s`` and not timed: the sum of
  ``state_rows`` and the maximum of ``peak_states`` of
  ``ckernel.sweep`` over the widths that ``enumerate --wmax 13``
  sweeps.  They are exact, so they still compare checkouts where the
  multi-second timings spread too widely;
- ``prune_work_ratio_w10``, also once per checkout and untimed: the
  ``state_rows`` of the unpruned sweeps over those of the pruned sweeps,
  each summed over the widths of ``enumerate --wmax 10`` (about 2 s).  It
  is the pruning's gain in work, exact, the paper's headline claim;
- ``enumerate_w13_sha256`` and ``enumerate_w9_engine_sha256``, also once
  per checkout and untimed: the SHA-256 of the series file that
  ``sawenum enumerate --wmax 13`` writes on the compiled kernel, and of the
  one that ``--wmax 9`` writes with ``CC`` naming no compiler, so on the
  Python engine (about a second).  Equal digests mean both sweeps still
  write the same bytes;
- ``da_scan_2_estimates``, ``_digest`` and ``_elimination`` (and the same
  for ``da_scan_2_3``, ``da_scan_1`` and ``da_scan_2_3_homogeneous``, the
  (2, 3) scan with ``pdegrees=(-1,)``, where each window from x^0 holds a
  zero in its unique solution), also recorded once per checkout and
  untimed: the
  number of estimates of each ``da_scan`` row, the SHA-256 of their reprs
  (one per line), and the elimination size, the sum of n^3 over every
  elimination of the scan on an n x n system, with ``_solves``, the number
  of those eliminations.  The child wraps ``analysis._bareiss``, which every
  elimination runs (one per approximant family, and one per approximant
  fitted on its own).  Equal digests mean the same estimates, and the
  elimination size follows the work of the exact solves, the larger part
  of a scan;
- ``fit_count_3_1_digest``, also once per checkout and untimed: the SHA-256
  of the reprs (one per line) of the 16 fits that
  ``analysis.amplitude_trajectory`` makes on that series with the count
  model, mu = 1/0.379052277752, k = 3 and m = 1.  An equal digest means
  the amplitude fits still give the same bytes;
- ``src_py_lines`` and ``ckernel_c_lines``, also once per checkout: the
  totals of ``wc -l src/sawenum/*.py`` and of ``wc -l src/sawenum/*.c``
  (the kernel and the module that wraps it; 0 where there is none), so a
  change that shrinks the code records by how much;
- ``setup_modules``, also once per checkout: how many modules the set-up
  import that ``bench/child.py`` times (``from sawenum import analysis,
  cli`` after ``import mpmath``) adds to ``sys.modules``.  It is exact, so
  an import that lengthens every command's start-up shows without the
  noise of ``setup_s``.

The host's speed for one process drifts by tens of percent over minutes,
so every timed call is scaled as ``bench/run.py`` scales its calls: the
child that times it pins itself to its CPU and times the fixed reference
workload of ``bench/calibrate.py`` there just before and just after the
call (a CLI run inherits the pinned CPU), and the call's time is multiplied
by ``REFERENCE_S`` (from ``bench/run.py``) over the geometric mean of the
two.  Each timed metric ``X_s`` is therefore written three times: the
scaled ``X_norm_s``, the raw ``X_s`` and the reference time ``X_ref_s``.
Checkouts are interleaved, alternating which goes first, and each timed
metric is reported as the median over ``ROUNDS`` rounds with every run
kept; counts are listed round by round.  ``tier1_s`` is raw and unpinned:
the suite runs some sweeps on every CPU.

Usage:
    python3 scripts/bench.py --out BENCH_13.json
    python3 scripts/bench.py --checkout parent=../parent --checkout change=. \\
        --out BENCH_13.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: ``calibrate.py`` and ``run.py``; both checkouts are scaled by this one
BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))
from run import scaled  # noqa: E402

SERIES = Path("data") / "saw_counts_n43.series"
#: the da_scan rows: metric prefix and the ``orders`` argument, followed by
#: ``:`` and a ``pdegrees`` argument where the default is not used
DA_SCANS = (("da_scan_2", "2"), ("da_scan_2_3", "2,3"),
            ("da_scan_1", "1:-1,0,2,4,6,8,10"))
#: the untimed da_scan count rows: those of DA_SCANS, and the homogeneous
#: windows alone as ``orders:pdegrees``, where each window from x^0 holds a
#: zero in q (its c_0 row forces q_{0,0} = 0)
DA_COUNT_SCANS = DA_SCANS + (("da_scan_2_3_homogeneous", "2,3:-1"),)
#: the enumerate runs timed, the first also warming up the kernel build
WMAXES = (13, 15)
#: interleaved rounds per checkout; ten pairs before a median is quoted
ROUNDS = 10
#: how many of the tier-1 suite's slowest test phases are recorded
SLOWEST = 10
#: a line of pytest's durations section: "<seconds>s <phase> <test id>"
DURATION = re.compile(r"\d+\.\d+s (setup|call|teardown) ")
#: the enumerate run timed and digested on the Python engine, and a ``CC``
#: that names no compiler, which makes ``flm`` fall back to that engine
ENGINE_WMAX = 9
NO_COMPILER = "sawenum-no-such-compiler"
#: the enumerate run whose sweeps are counted with and without pruning
PRUNE_WMAX = 10

#: every timed child starts with IMPORTS; just before the call, BEGIN pins
#: it to its CPU and times the reference there, and END prints the call's
#: seconds ``s``, the geometric mean ``ref_s`` of the reference's times
#: before and after it, and ``result``
IMPORTS = """
import json, math, sys, time
import calibrate
"""
BEGIN = """
calibrate.pin_to_current_cpu()
ref = calibrate.reference_s()
t0 = time.perf_counter()
"""
END = """
s = time.perf_counter() - t0
print(json.dumps({"s": s, "ref_s": math.sqrt(ref * calibrate.reference_s()),
                  **result}))
"""

#: the ``da_scan`` arguments of a DA_SCANS row ``sys.argv[2]``
SCAN_ARGS = """
def scan_args(arg):
    orders, _, pdegrees = arg.partition(":")
    args = {"orders": tuple(int(x) for x in orders.split(","))}
    if pdegrees:
        args["pdegrees"] = tuple(int(x) for x in pdegrees.split(","))
    return args
"""

#: run in the measured checkout: time one da_scan call
DA_SCAN = IMPORTS + SCAN_ARGS + """
from sawenum import analysis
from sawenum.modseries import read_series
coeffs = read_series(sys.argv[1]).values
args = scan_args(sys.argv[2])
""" + BEGIN + """
analysis.da_scan(coeffs, **args)
result = {}
""" + END

#: run in the measured checkout: time one kernel sweep, with its stats; its
#: arguments ``sys.argv[1:]`` are width, l_max, n_max and prune (0 or 1)
KERNEL = IMPORTS + """
from sawenum import ckernel
width, l_max, n_max, prune = map(int, sys.argv[1:])
""" + BEGIN + """
_, result = ckernel.sweep(width, l_max, n_max, bool(prune))
""" + END
#: the timed kernel sweeps: metric prefix and KERNEL's arguments
KERNELS = (("kernel_w12_wmax16", ("12", "21", "33", "1")),
           ("kernel_widen", ("3", "30", "100", "0")))

#: run in the measured checkout: the work counts of the enumerate --wmax
#: ``sys.argv[1]`` sweeps, pruned when ``sys.argv[2]`` is 1, untimed
COUNTS = """
import json, sys
from sawenum import ckernel
wmax, prune = map(int, sys.argv[1:])
stats = [ckernel.sweep(w, 2 * wmax - w + 1, 2 * wmax + 1, bool(prune))[1]
         for w in range(wmax + 1)]
print(json.dumps({"state_rows": sum(s["state_rows"] for s in stats),
                  "peak_states": max(s["peak_states"] for s in stats)}))
"""

#: run in the measured checkout: the estimates and the elimination size of
#: ``da_scan`` on the series ``sys.argv[1]`` with each ``orders`` argument
#: ``sys.argv[2:]``, followed by ``:`` and a ``pdegrees`` argument where
#: the default is not used, untimed
DA_COUNTS = SCAN_ARGS + """
import hashlib, json, sys
from sawenum import analysis
from sawenum.modseries import read_series
coeffs = read_series(sys.argv[1]).values
eliminate = analysis._bareiss
calls = []
def counted(rows, *args):
    calls.append(len(rows))
    return eliminate(rows, *args)
analysis._bareiss = counted
out = []
for arg in sys.argv[2:]:
    calls.clear()
    estimates = analysis.da_scan(coeffs, **scan_args(arg))
    text = "\\n".join(map(repr, estimates))
    out.append({"estimates": len(estimates),
                "digest": hashlib.sha256(text.encode()).hexdigest(),
                "elimination": sum(n**3 for n in calls),
                "solves": len(calls)})
print(json.dumps(out))
"""

#: run in the measured checkout: the digest of the count-model amplitude
#: trajectory (k = 3, m = 1) on the series ``sys.argv[1]``, untimed
FIT_DIGEST = """
import hashlib, json, sys
from sawenum import analysis
from sawenum.modseries import read_series
coeffs = read_series(sys.argv[1]).values
e1, e2 = analysis.MODEL_EXPONENTS["count"]
fits = analysis.amplitude_trajectory(coeffs, 1 / 0.379052277752, e1, e2, 3, 1)
text = "\\n".join(map(repr, fits))
print(json.dumps(hashlib.sha256(text.encode()).hexdigest()))
"""

#: run in the measured checkout: the number of modules that the set-up
#: import of ``bench/child.py`` adds to those of ``import mpmath``, untimed
SETUP_MODULES = """
import sys
import mpmath
before = set(sys.modules)
from sawenum import analysis, cli
print(len(set(sys.modules) - before))
"""

#: run a command as a child; with its time, its peak RSS (MB) and status
TIMED = IMPORTS + """
import resource, subprocess
""" + BEGIN + """
proc = subprocess.run(sys.argv[1:], stdout=subprocess.PIPE,
                      stderr=subprocess.STDOUT, text=True)
lines = proc.stdout.strip().splitlines()
result = {"returncode": proc.returncode,
          "last_line": lines[-1] if lines else "",
          "peak_rss_mb":
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}
""" + END


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


def child(code: str, args, cwd: Path, env) -> dict:
    """Run ``code`` (built from BEGIN and END) in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                         env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def timed(cmd, cwd: Path, env) -> dict:
    result = child(TIMED, cmd, cwd, env)
    if result["returncode"] != 0:
        raise RuntimeError(f"{cmd} failed in {cwd}: {result['last_line']}")
    return result


def put(row: dict, key: str, result: dict) -> None:
    """Record a timed call as ``key``_s, ``key``_norm_s and ``key``_ref_s."""
    row[f"{key}_s"] = result["s"]
    row[f"{key}_norm_s"] = scaled(result["s"], result["ref_s"])
    row[f"{key}_ref_s"] = result["ref_s"]


def measure(checkout: Path) -> dict:
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join((str(checkout / "src"), str(BENCH))))
    py = sys.executable
    series = str(checkout / SERIES)
    row = {}
    for key, orders in DA_SCANS:
        put(row, key, child(DA_SCAN, [series, orders], checkout, env))
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / SERIES.name
        copy.write_bytes((checkout / SERIES).read_bytes())
        put(row, "run_analysis",
            timed([py, "scripts/run_analysis.py", str(copy)], checkout, env))
        cli = [py, "-m", "sawenum.cli"]
        dest = ["-o", str(Path(tmp) / "out.series")]
        timed(cli + ["enumerate", "--wmax", str(WMAXES[0])] + dest, checkout,
              env)  # warm-up: builds the kernel if needed
        for wmax in WMAXES:
            result = timed(cli + ["enumerate", "--wmax", str(wmax)] + dest,
                           checkout, env)
            put(row, f"enumerate_w{wmax}", result)
            row[f"enumerate_w{wmax}_rss_mb"] = result["peak_rss_mb"]
        put(row, f"enumerate_w{ENGINE_WMAX}_engine",
            timed(cli + ["enumerate", "--wmax", str(ENGINE_WMAX)] + dest,
                  checkout, dict(env, CC=NO_COMPILER)))
        for name, args in KERNELS:
            result = child(KERNEL, args, checkout, env)
            put(row, name, result)
            for key, value in result.items():
                if key not in ("s", "ref_s"):
                    row[f"{name}_{key}"] = value
        put(row, "box_3x40",
            timed(cli + ["box", "--width", "3", "--length", "40"] + dest,
                  checkout, env))
    return row


def output_digest(wmax: int, cwd: Path, env) -> str:
    """SHA-256 of the series file ``sawenum enumerate --wmax`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.series"
        subprocess.run([sys.executable, "-m", "sawenum.cli", "enumerate",
                        "--wmax", str(wmax), "-o", str(out)],
                       cwd=cwd, env=env, check=True, capture_output=True)
        return hashlib.sha256(out.read_bytes()).hexdigest()


def counts(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    wmax = WMAXES[0]
    result = child(COUNTS, [str(wmax), "1"], checkout, env)
    row = {f"enumerate_w{wmax}_{key}": value
           for key, value in result.items()}
    pruned, unpruned = (
        child(COUNTS, [str(PRUNE_WMAX), prune], checkout, env)["state_rows"]
        for prune in ("1", "0"))
    row[f"prune_work_ratio_w{PRUNE_WMAX}"] = unpruned / pruned
    row[f"enumerate_w{wmax}_sha256"] = output_digest(wmax, checkout, env)
    row[f"enumerate_w{ENGINE_WMAX}_engine_sha256"] = output_digest(
        ENGINE_WMAX, checkout, dict(env, CC=NO_COMPILER))
    scans = child(DA_COUNTS, [str(checkout / SERIES)]
                  + [orders for _, orders in DA_COUNT_SCANS], checkout, env)
    for (prefix, _), scan in zip(DA_COUNT_SCANS, scans):
        row.update({f"{prefix}_{key}": value for key, value in scan.items()})
    row["fit_count_3_1_digest"] = child(FIT_DIGEST, [str(checkout / SERIES)],
                                        checkout, env)
    package = checkout / "src" / "sawenum"
    for name, pattern in (("src_py_lines", "*.py"),
                          ("ckernel_c_lines", "*.c")):
        row[name] = sum(p.read_bytes().count(b"\n")
                        for p in package.glob(pattern))
    row["setup_modules"] = child(SETUP_MODULES, [], checkout, env)
    return row


def tier1(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p",
                           "no:cacheprovider",
                           "--continue-on-collection-errors",
                           f"--durations={SLOWEST}"],
                          cwd=checkout, env=env, capture_output=True,
                          text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    if proc.returncode != 0:
        raise RuntimeError(f"tier-1 failed in {checkout}: {last}")
    slowest = [line for line in lines if DURATION.match(line)]
    return {"tier1_s": wall, "tier1_summary": last, "tier1_slowest": slowest}


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
        results[label].update(counts(checkouts[label]))
        results[label].update(tier1(checkouts[label]))
    report = {"machine": machine(), "rounds": ROUNDS,
              "results": results}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

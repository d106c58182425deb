"""The sawenum benchmark: one workload, timed end to end or traced per layer.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads (``--smoke`` shrinks each to a size that runs in well under a
second, to check the harness itself):

    enumerate-w9   sawenum enumerate --wmax 9 --workers 1    (smoke: wmax 3)
    box-w6l10      sawenum box --width 6 --length 10         (smoke: 2 x 3)
    analyze-n28    analysis.da_scan(coeffs, orders=(2,)) on a seeded
                   28-term SAW-like series                   (smoke: 12 terms)

Each call takes one to three seconds, so that a run holds ten or more of
them and reports their medians.

Every call runs in a fresh interpreter (``child.py``), because the engine's
transition memo lives for the whole process and a CLI user pays for filling
it on every run.  With ``--trace 0`` the benchmark repeats the call while the
next one still fits in ``--seconds`` and reports medians: ``wall_norm_s`` (the
call after set-up), ``setup_s`` (interpreter launch until sawenum and mpmath
are imported) and ``peak_rss_mb``.  With ``--trace 1`` it makes one untraced
and one traced call and reports the per-layer metrics of the traced one (see
``tracer.py``), plus ``trace.overhead_s``, the traced minus the untraced
``wall_norm_s``.

Both times are scaled to a fixed host speed: a time is multiplied by
``REFERENCE_S / ref``, where ``ref`` is the time of the reference workload in
``calibrate.py``, run in the same interpreter on the same CPU (after set-up,
and for ``wall_norm_s`` also after the call).  The host's speed drifts by
tens of percent over minutes, so raw medians of 44 s runs of the same code
spread by 20-30% between runs; scaled ones by 3-6%.  The raw medians are
printed to standard error.

Every call's output is checked against ``expected.json`` (recorded by
``record.py``) and, for ``enumerate``, against the brute-force oracle; a call
that exits non-zero or fails its check counts in ``failed``.  The last line
of standard output is the JSON result.  Scratch files go to ``.bench_out/``
and are removed at the end, except the traced run's spans file.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED = HERE / "expected.json"
SPEC = ROOT / "BENCHMARK.json"

#: a run must end well inside 180 s; no call may start past this point
HARD_LIMIT_S = 165.0
#: analyze-n28 inputs: the seed picks one of this many recorded series
SERIES_VARIANTS = 16
#: oracle prefix length for the enumerate check
ORACLE_NMAX = 13
#: host speed that times are scaled to, as the time of
#: ``calibrate.reference_s()``; about its time on an unshared core of a
#: 2-core x86-64 container with Python 3.11
REFERENCE_S = 0.1

WORKLOADS = {
    "enumerate-w9": ("enumerate", {"wmax": 9}, {"wmax": 3}),
    "box-w6l10": ("box", {"width": 6, "length": 10},
                  {"width": 2, "length": 3}),
    "analyze-n28": ("analyze", {"terms": 28}, {"terms": 12}),
}

class BenchError(Exception):
    """The benchmark cannot produce a result."""


def saw_like_series(variant: int, terms: int) -> list[int]:
    """Integer coefficients with the SAW asymptotic form.

    c_n = A mu^n n^(11/32) (1 + a1/n + a2/n^(3/2) + a3/n^2)
          + B (-mu)^n n^(-3/2), rounded, with c_0 = 1; the amplitudes and
    corrections are drawn from ``variant``.
    """
    import mpmath

    rng = random.Random(variant)
    with mpmath.workdps(60):
        mu = mpmath.mpf("2.63815853")
        g = mpmath.mpf(11) / 32
        amp = mpmath.mpf("1.1771") * (1 + mpmath.mpf(rng.uniform(-0.01, 0.01)))
        alt = mpmath.mpf("-0.1") * (1 + mpmath.mpf(rng.uniform(-0.1, 0.1)))
        a1, a2, a3 = (mpmath.mpf(rng.uniform(-0.3, 0.3)) for _ in range(3))
        out = [1]
        for n in range(1, terms):
            x = mpmath.mpf(n)
            lead = amp * mu**n * x**g * (1 + a1 / x + a2 / x**1.5 + a3 / x**2)
            out.append(int(mpmath.nint(lead + alt * (-mu) ** n * x ** -1.5)))
    return out


class Runner:
    """Launches child calls for one workload and checks their outputs."""

    def __init__(self, workload: str, seed: int, smoke: bool, started: float,
                 expected: bool = True):
        self.kind, full, small = WORKLOADS[workload]
        self.params = small if smoke else full
        self.started = started
        self.workdir = OUT / f"run-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.spans_path = OUT / f"spans-{workload}-seed{seed}.json"
        self.expected = None
        if expected:
            recorded = json.loads(EXPECTED.read_text(encoding="utf-8"))
            self.expected = recorded["smoke" if smoke else "full"][workload]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]]
                          if self.env.get("PYTHONPATH") else []))
        self.attempted = 0
        self.failed = 0
        self.oracle = None
        if self.kind == "analyze":
            variant = seed % SERIES_VARIANTS
            if expected:
                self.expected = self.expected[str(variant)]
            series = saw_like_series(variant, self.params["terms"])
            (self.workdir / "series.json").write_text(
                json.dumps(series), encoding="utf-8")
        elif self.kind == "enumerate":
            from sawenum import oracle
            nmax = min(ORACLE_NMAX, 2 * self.params["wmax"] + 1)
            self.oracle = oracle.count_walks(nmax).values

    def launch(self, trace: bool = False) -> dict | None:
        """Start one child; its result dict, or None if it failed."""
        remaining = HARD_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before a call could start")
        result_path = self.workdir / "result.json"
        result_path.unlink(missing_ok=True)
        job = dict(self.params, kind=self.kind, trace=trace,
                   workdir=str(self.workdir), spans_path=str(self.spans_path))
        job["launch_ns"] = time.monotonic_ns()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(job)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=remaining)
        except subprocess.TimeoutExpired:
            print(f"{self.kind}: timed out", file=sys.stderr)
            return None
        if proc.returncode != 0 or not result_path.exists():
            print(f"{self.kind}: exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            return None
        return json.loads(result_path.read_text(encoding="utf-8"))

    def call(self, trace: bool = False) -> dict | None:
        """One checked workload call; counts it in attempted/failed."""
        self.attempted += 1
        result = self.launch(trace)
        if result is None or not self.check(result):
            self.failed += 1
        return result

    def output(self, result: dict) -> list:
        """What a call produced: series coefficients or estimate reprs."""
        if self.kind == "analyze":
            return result["estimates"]
        from sawenum.modseries import read_series
        path = self.workdir / f"{self.kind}.series"
        values = read_series(path).values
        path.unlink()
        return values

    def check(self, result: dict) -> bool:
        got = self.output(result)
        if got != self.expected:
            print(f"{self.kind}: output differs from expected.json",
                  file=sys.stderr)
            return False
        if self.oracle is not None and got[: len(self.oracle)] != self.oracle:
            print(f"{self.kind}: output differs from the oracle",
                  file=sys.stderr)
            return False
        return True

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def scaled(seconds: float, ref_s: float) -> float:
    """A time measured next to a reference of ``ref_s``, at ``REFERENCE_S``."""
    return seconds * REFERENCE_S / ref_s


def wall_norm_s(result: dict) -> float:
    return scaled(result["wall_s"], result["ref_s"])


def measure(runner: Runner, seconds: float, trace: bool) -> dict[str, float]:
    if trace:
        plain = runner.call()
        traced = runner.call(trace=True)
        if plain is None or traced is None:
            raise BenchError("a traced-run call failed")
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = wall_norm_s(traced) - wall_norm_s(plain)
        return metrics
    # repeat while the next call, if as slow as the slowest so far, still
    # ends within the run's time
    results = []
    t_begin = time.monotonic()
    slowest = 0.0
    while True:
        t0 = time.monotonic()
        result = runner.call()
        if result is not None:
            results.append(result)
        slowest = max(slowest, time.monotonic() - t0)
        if time.monotonic() - t_begin + slowest > seconds:
            break
    if not results:
        raise BenchError("no call succeeded")
    print(f"{len(results)} calls: wall_s "
          f"{[round(r['wall_s'], 3) for r in results]}, ref_s "
          f"{[round(r['ref_s'], 3) for r in results]}; raw medians: wall_s "
          f"{statistics.median(r['wall_s'] for r in results):.4f}, setup_s "
          f"{statistics.median(r['setup_s'] for r in results):.4f}",
          file=sys.stderr)
    return {
        "wall_norm_s": statistics.median(wall_norm_s(r) for r in results),
        "setup_s": statistics.median(
            scaled(r["setup_s"], r["setup_ref_s"]) for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, to check the harness in seconds")
    args = parser.parse_args(argv)
    if not (SRC / "sawenum" / "__init__.py").is_file():
        print(f"error: no sawenum sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))
    runner = Runner(args.workload, args.seed, args.smoke, started)
    try:
        values = measure(runner, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()
    if set(values) != set(units):
        print(f"error: measured {sorted(values)}, but {SPEC.name} declares "
              f"{sorted(units)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

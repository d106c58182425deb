"""The benchmark harness under ``bench/`` still runs against this tree.

``bench/tracer.py`` patches engine attributes by name, so renaming one of
them breaks every traced benchmark run; these smoke runs catch that.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sawenum.engine import sweep

from slot_reads import slot_reads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_smoke_run(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "5", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


TRACED_ENGINE = """
import json, sys
sys.path[:0] = ["bench", "src"]
import tracer
t = tracer.install()
from sawenum import engine
engine.sweep(3, 5, 9)
print(json.dumps(t.metrics(1.0)))
"""


def test_tracer_counts_each_prune_site_once():
    """On the Python engine the traced boundary and mid calls add up to the
    bound's own call count: a boundary call is not also counted as mid."""
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_ENGINE], cwd=ROOT, capture_output=True,
        text=True, timeout=120, env={**os.environ, "PYTHONPATH": ""},
    )
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(proc.stdout)
    # every call event on the bound's code object is one evaluation
    _, evaluations = slot_reads(sweep, 3, 5, 9)
    assert layers["pruning.boundary_calls"] > 0
    assert layers["pruning.mid_calls"] > 0
    assert (layers["pruning.boundary_calls"] + layers["pruning.mid_calls"]
            == len(evaluations))
    assert layers["engine.kink_update_calls"] == 4 * 6

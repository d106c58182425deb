"""One timed call into sawenum, in a fresh interpreter.

Usage: python3 bench/child.py JOB_JSON

``JOB_JSON`` holds ``kind`` (enumerate, box or analyze), the kind's
parameters, ``trace``, ``workdir`` (where outputs and the result go) and
``launch_ns``, the parent's ``time.monotonic_ns()`` just before it started
this interpreter.  The result JSON in ``workdir`` gives ``setup_s`` (launch
until sawenum and its imports are ready), ``wall_s`` (the call itself),
``peak_rss_mb`` and, for a traced call, the per-layer ``layers``.  It also
gives the time of the reference workload in ``calibrate.py``, run on the
same CPU: ``setup_ref_s`` just after set-up, and ``ref_s`` the geometric mean
of that and a second run just after the call.
"""

import json
import math
import os
import resource
import sys
import time

import calibrate


def main() -> int:
    job = json.loads(sys.argv[1])
    import mpmath  # noqa: F401  (part of set-up: analysis needs it)
    from sawenum import analysis, cli
    setup_s = (time.monotonic_ns() - job["launch_ns"]) / 1e9
    calibrate.pin_to_current_cpu()
    ref_before = calibrate.reference_s()
    result = {"setup_s": setup_s, "setup_ref_s": ref_before}
    workdir = job["workdir"]
    kind = job["kind"]
    tracer = None
    if job["trace"]:
        import tracer as tracing
        tracer = tracing.install()
    coeffs = None
    if kind == "analyze":
        with open(os.path.join(workdir, "series.json"),
                  encoding="utf-8") as fh:
            coeffs = json.load(fh)
    out = os.path.join(workdir, f"{kind}.series")
    t0 = time.perf_counter()
    if kind == "enumerate":
        rc = cli.main(["enumerate", "--wmax", str(job["wmax"]),
                       "--workers", "1", "-o", out])
    elif kind == "box":
        rc = cli.main(["box", "--width", str(job["width"]),
                       "--length", str(job["length"]), "-o", out])
    else:
        estimates = analysis.da_scan(coeffs, orders=(2,))
        rc = 0
    wall_s = time.perf_counter() - t0
    if rc != 0:
        return rc
    result["wall_s"] = wall_s
    result["ref_s"] = math.sqrt(ref_before * calibrate.reference_s())
    if kind == "analyze":
        result["estimates"] = [
            repr((e.x, e.exponent, e.spec, e.last_n)) for e in estimates]
    if tracer is not None:
        result["layers"] = tracer.metrics(wall_s)
        tracer.dump(job["spans_path"])
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    with open(os.path.join(workdir, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

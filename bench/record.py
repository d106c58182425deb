"""Record the reference outputs that ``run.py`` checks every call against.

Usage (from the repository root): python3 bench/record.py

Runs each workload once at full and at smoke size (``analyze-n28`` once per
seeded series variant) with the sawenum sources in ``src/`` and writes what
they produced to ``bench/expected.json``.  Re-record only when a change is
meant to alter the outputs; the enumerate outputs are also checked against
the brute-force oracle on every call.
"""

import json
import sys
import time

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    recorded = {}
    for mode, smoke in (("full", False), ("smoke", True)):
        recorded[mode] = {}
        for workload, (kind, _full, _small) in run.WORKLOADS.items():
            seeds = range(run.SERIES_VARIANTS) if kind == "analyze" else [0]
            outputs = {}
            for seed in seeds:
                runner = run.Runner(workload, seed, smoke, time.monotonic(),
                                    expected=False)
                try:
                    result = runner.launch()
                    if result is None:
                        raise SystemExit(f"{workload} (seed {seed}) failed")
                    outputs[str(seed)] = runner.output(result)
                finally:
                    runner.close()
                print(f"{mode} {workload} seed {seed}: "
                      f"{result['wall_s']:.2f} s", file=sys.stderr)
            recorded[mode][workload] = (
                outputs if kind == "analyze" else outputs["0"])
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point for the mica forecaster.

    python3 benchmark/run.py --workload leadlag --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` of the checkout that holds this file, never from an installed
copy.  BLAS is pinned to one thread before numpy loads and the pin is
verified through numpy's bundled OpenBLAS; a run that cannot verify it
refuses to time.  Output: a run record line (machine, versions, source
identity, samples, checks) and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# must precede the first numpy import anywhere in this process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "mica" / "__init__.py").is_file():
        print(f"error: no mica sources under {src}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]

    import numpy
    import sysinfo

    try:
        blas = sysinfo.require_single_thread(numpy)
    except sysinfo.BlasError as err:
        print(f"error: refusing to time: {err}", file=sys.stderr)
        return 3
    import mica
    if Path(mica.__file__).resolve().parent != src / "mica":
        print(f"error: mica imported from {mica.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import harness

    tally, metrics, info = harness.run(args.workload, args.seed,
                                       args.seconds, bool(args.trace), ROOT)
    record = sysinfo.run_record(ROOT, numpy, blas)
    record.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  loc=sysinfo.line_counts(src / "mica"))
    if args.trace:
        metrics.update({k: (v, "lines") for k, v in record["loc"].items()})
    print(json.dumps({"record": record, "samples": info,
                      "phases": {k: {"attempted": a, "failed": f}
                                 for k, (a, f) in tally.phases.items()},
                      "checks": tally.checks, "errors": tally.errors}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": _number(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def _number(value):
    """Finite floats as measured; a missing measurement prints as null."""
    value = float(value)
    return value if math.isfinite(value) else None


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate reference.json, the stored outputs of the fixed-seed probe.

    python3 benchmark/make_reference.py

Only for a change that alters the program's numbers on purpose; the
benchmark compares every run's probe against this file.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402


def main() -> int:
    base = HERE.parent / ".bench_work"
    base.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=base) as work:
        values = harness.probe_values(Path(work))
    if values["eval_exit"] != 0:
        print("error: probe eval failed", file=sys.stderr)
        return 1
    ref = {"probe_seed": harness.PROBE_SEED,
           "train_losses": values["train_losses"],
           "eval_forecasts": values["eval_forecasts"]}
    harness.REFERENCE_PATH.write_text(json.dumps(ref) + "\n")
    print(f"wrote {harness.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

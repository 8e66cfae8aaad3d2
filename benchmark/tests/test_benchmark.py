"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest benchmark/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# a child process: run.py's entry point with the plan swapped for a tiny
# one (and, optionally, another reference file)
CHILD = """
import sys
from dataclasses import replace
sys.path[:0] = [{bench!r}, {src!r}]
import run  # pins BLAS threads before numpy loads
import harness
from mica.attention import MicaConfig
from mica.backbone import ModelConfig

m = ModelConfig(horizon=4, input_size=16, n_layers=2, d_model=8, n_heads=2,
                d_k=4, d_v=4, ff_hidden=16, patch_len=4, stride=4,
                mica=MicaConfig(n_heads=2, d_k=4, d_v=4))
tiny = replace(harness.Plan(), model=m, wide=m, channels=3, panel_steps=400,
               val_size=40, test_size=64, eval_test_size=32, batch=8,
               wide_channels=16, concat_channels=8, sweep_grid=(2, 4, 8, 16),
               setup_repeats=2,
               train_steps=4, val_every=2, rounds=2, b1_between=1,
               traced_steps=2, micro_reps=1)
harness.full_plan = lambda seconds: tiny
if {reference!r}:
    harness.REFERENCE_PATH = harness.Path({reference!r})
sys.exit(run.main(["--workload", {workload!r}, "--seed", "3",
                   "--seconds", "2", "--trace", {trace!r}]))
"""


def run_tiny(workload: str, trace: int, reference: str = ""):
    code = CHILD.format(bench=str(BENCH), src=str(ROOT / "src"),
                        workload=workload, trace=str(trace),
                        reference=reference)
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    record, result = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, record["checks"]
    assert result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_perturbed_reference_counts_as_failure(tmp_path):
    ref = json.loads((BENCH / "reference.json").read_text())
    ref["train_losses"][0] *= 1 + 1e-8
    ref["eval_forecasts"][5] += 1e-6
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    record, result = run_tiny("leadlag", 0, reference=str(path))
    failed = {c["check"] for c in record["checks"] if not c["ok"]}
    assert failed == {"train.step1_loss_matches_reference",
                      "eval.forecasts_match_reference"}
    assert result["correct"] is False
    assert result["failed"] == 2


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(SPEC["command"] + [
        "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
        "--seconds", "1", "--trace", "0"], cwd=tmp_path,
        capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_tail_percentile_keeps_ten_samples_beyond():
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    import harness
    assert harness.tail(list(range(40)))[0] == 75
    assert harness.tail(list(range(39)))[0] == 50
    assert harness.tail(list(range(200)))[0] == 95
    assert harness.tail(list(range(5))) == (100, 4.0)

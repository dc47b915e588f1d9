"""Smoke tests of the benchmark itself, at tiny sizes."""

import json
import shutil
import subprocess
import sys

import harness
from harness import Workload

TINY_TRAIN = Workload("tiny-train", "train", 1, 4, 16, 1e-3, 32, 32, 2, 20.0)
TINY_EVAL = Workload("tiny-eval", "eval", 1, 4, 0, 0.0, 64, 96, 2, 1.0)


def test_traced_train_run_reports_every_per_layer_metric(tmp_path):
    spans_path = tmp_path / "spans.json"
    out = harness.run(TINY_TRAIN, seed=3, seconds=1, trace=True,
                      workdir=tmp_path / "work", spans_path=spans_path)
    result = out["result"]
    assert result["correct"], out["report"]["check"]
    assert (result["attempted"], result["failed"]) == (21, 0)
    names = [name for name, _ in harness.declared_metrics("per_layer")]
    assert list(result["metrics"]) == names
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    assert layers["tensor.conv2d.fwd_s"] > 0 and layers["tensor.conv2d.bwd_s"] > 0
    assert layers["tensor.tape_nodes"] > 0
    assert 0.5 < layers["trace.coverage"] <= 1.0
    spans = json.loads(spans_path.read_text())
    assert spans["fields"][0] == "name" and spans["traced_ops"] == list(range(2, 21, 2))
    assert {"tensor.backward", "optim.adam_step", "checkpoint.save"} <= {
        s[0] for s in spans["spans"]}


def test_corrupted_input_counts_as_failed_op(tmp_path):
    # ops alternate between the two pairs; every op on pair 1 fails to decode
    out = harness.run(TINY_EVAL, seed=3, seconds=3, trace=False, workdir=tmp_path, corrupt=1)
    result = out["result"]
    assert (result["attempted"], result["failed"]) == (4, 2)
    assert result["correct"]
    assert out["report"]["failed_ratio"] == 0.5
    assert "ImageParseError" in out["report"]["errors"][0]
    assert list(result["metrics"]) == [n for n, _ in harness.declared_metrics("end_to_end")]
    assert len(out["report"]["setup_samples_s"]) == harness.SETUP_REPEATS
    assert all(n > 0 for n in out["report"]["inputs"]["filter_rows"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

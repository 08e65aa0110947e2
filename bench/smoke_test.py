"""Smoke test of the benchmark itself, at a tiny input size.

    python3 -m pytest -q bench/smoke_test.py

Each workload must emit every metric BENCHMARK.json names, with its
unit, in both modes; an injected wrong label, and an accuracy below the
floor, must show up as a failed check; and the command must refuse to
run without the library.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from gestrec.classifiers import RidgeClassifier  # noqa: E402

TINY = workloads.Sizes(
    users=3,
    gestures=3,
    short_range=(16, 24),
    long_range=(40, 60),
    train_trials=3,
    serve_trials=4,
    batch_trials=2,
    batches=2,
    setup_reps=2,
    accuracy_requests=6,
    checked_per_batch=4,
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def root(tmp_path, monkeypatch):
    # Three users and gestures with three training trials classify far
    # worse than the benchmark's sizes; the floors do not apply to them.
    monkeypatch.setattr(workloads, "ACCURACY_FLOOR",
                        dict.fromkeys(workloads.ACCURACY_FLOOR, 0.0))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    return tmp_path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(root, workload, trace):
    result, record = run.run(workload, 3, 0.3, bool(trace), TINY, root)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert record["seed"] == 3 and len(record["inputs_sha256"]) == 64
    if trace:
        metrics = result["metrics"]
        assert metrics["dsp.calls_per_gesture"]["value"] == 36.0
        # Each model runs traced in the measured loop: every serve request
        # kind and every batch-long batch labels through all three.
        per_kind = {"serve": "predict_one_us", "batch-long": "predict_batch_ms"}
        if workload in per_kind:
            for kind in workloads.KINDS:
                name = f"classifiers.{kind}.{per_kind[workload]}"
                assert metrics[name]["value"] > 0, name
        trace_file = root / record["trace_file"]
        assert json.loads(trace_file.read_text())["spans"]
    else:
        assert result["metrics"]["success_rate"]["value"] == 1.0


def _wrong(model, label):
    i = int(np.flatnonzero(model.classes_ == label)[0])
    return model.classes_[(i + 1) % len(model.classes_)]


# Where each workload's own checks must catch a wrong ridge label:
# serve compares single-vector labels with the batch path, batch-long
# compares batch labels with single-vector ones, and train compares a
# cycle with an untimed re-run of its first ridge job.
INJECT = {
    "serve": lambda calls, X: np.ndim(X) == 1,
    "batch-long": lambda calls, X: np.ndim(X) == 2,
    "train": lambda calls, X: calls == 0,
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_wrong_label_is_counted(root, workload, monkeypatch):
    original = RidgeClassifier.predict
    calls = []

    def predict(self, X):
        out = original(self, X)
        if INJECT[workload](len(calls), X):
            if np.ndim(X) == 1:
                out = _wrong(self, out)
            else:
                out = out.copy()
                out[0] = _wrong(self, out[0])
        calls.append(1)
        return out

    monkeypatch.setattr(RidgeClassifier, "predict", predict)
    result, _ = run.run(workload, 3, 0.3, False, TINY, root)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["success_rate"]["value"] < 1.0


def test_accuracy_below_the_floor_is_counted(root, monkeypatch):
    monkeypatch.setattr(workloads, "ACCURACY_FLOOR",
                        dict.fromkeys(workloads.ACCURACY_FLOOR, 100.1))
    result, _ = run.run("serve", 3, 0.3, False, TINY, root)
    assert not result["correct"]
    assert result["failed"] == 1


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "serve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

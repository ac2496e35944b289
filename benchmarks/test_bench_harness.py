"""Tests of the benchmark's own code: result schema, names, tracing, smoke runs.

Run with `python -m pytest -q benchmarks` from the repository root.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_program()

import spans  # noqa: E402
import workloads  # noqa: E402
from rcfvis import instance_head, matching, training  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
# smallest inputs that still run every layer of each workload
TINY = {
    "stream_small": ("gen_frames=3",),
    "stream_hires": ("gen_frames=3",),
    "train_crowded": ("gen_frames=4", "train_clips=2", "iter_max=2"),
}


def test_benchmark_json_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.LAYER_UNITS


def test_benchmark_json_follows_its_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "benchmarks/run.py"] and SPEC["paths"] == ["benchmarks"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in SPEC[group]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 for w in SPEC["workloads"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    assert all(m["better"] in ("higher", "lower") for m in SPEC["end_to_end"] + SPEC["per_layer"])


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer(spans=[["a", 0, 100, -1], ["b", 10, 40, 0], ["c", 20, 30, 1], ["b", 50, 60, 0]])
    assert tracer.self_times_ns() == {"a": 60, "b": 30, "c": 10}


def test_installed_wraps_name_bound_imports_and_restores_them():
    original = matching.hungarian_assign
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert training.hungarian_assign is not original
        training.hungarian_assign(np.eye(2))
        matching.dice_coeff(np.ones(3), np.ones(3))
    assert training.hungarian_assign is original and matching.hungarian_assign is original
    assert tracer.counts["matching.hungarian"] == 1 and tracer.counts["matching.dice"] == 1
    assert [s[0] for s in tracer.spans] == ["matching.hungarian"]


def test_a_vanished_callable_is_reported_absent_not_fatal():
    gone = spans.Target("rcfvis.stream", "no_such_function", "stream.mask_iou", kind="count")
    targets = tuple(t for t in spans.TARGETS if t.span != "stream.mask_iou") + (gone,)
    assert spans.absent_metrics(targets) == {"stream.mask_iou_calls"}
    with spans.installed(spans.Tracer(), (gone,)):
        pass
    assert spans.absent_metrics() == set()


def test_reference_tolerance():
    want = {"x": [1.0, 2.0], "n": [3]}
    assert workloads.matches({"x": [1.0 + 1e-12, 2.0], "n": [3]}, want)
    assert not workloads.matches({"x": [1.0 + 1e-5, 2.0], "n": [3]}, want)
    assert not workloads.matches({"x": [1.0, 2.0], "n": [4]}, want)
    assert not workloads.matches({"x": [1.0], "n": [3]}, want)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_prints_a_valid_result(name, trace, tmp_path):
    out = workloads.run_workload(
        name, 1, 0.01, bool(trace), tmp_path, run.ROOT, TINY[name], setup_repeats=1, min_steps=1
    )
    line = run.result_line(out, bool(trace))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1, out.report
    group = "per_layer" if trace else "end_to_end"
    assert list(line["metrics"]) == [m["name"] for m in SPEC[group]]
    for m in line["metrics"].values():
        assert set(m) == {"value", "unit"} and isinstance(m["value"], float)
    json.dumps(line)
    env = out.report["environment"]
    assert env["seed"] == 1 and env["thread_vars"]["OPENBLAS_NUM_THREADS"] == "1"


def test_wrong_probabilities_fail_the_run(tmp_path, monkeypatch):
    original = instance_head.InstanceHead.predict_class
    monkeypatch.setattr(instance_head.InstanceHead, "predict_class", lambda self, code: original(self, code) * 1.01)
    out = workloads.run_workload(
        "stream_small", 1, 0.01, False, tmp_path, run.ROOT, TINY["stream_small"], setup_repeats=1, min_steps=1
    )
    assert not out.correct and out.failed > 0
    assert out.checks["matches_reference_summary"] is False

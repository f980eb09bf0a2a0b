"""Small-n smoke test of the benchmark harness; each case runs in well under a second."""

import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from functools import partial

import pytest

import run
import speed
import workloads
from neumannlab import cli, dual

SMALL = {
    "dual-cold": partial(workloads.dual_cold, n=300),
    "sweep-warm": partial(workloads.sweep_warm, n=300, samples=6),
    "sign-solve": partial(workloads.sign_solve, sizes=(300,)),
    "genus-bounds": partial(workloads.genus_bounds, n=300, k_max=2),
}


@pytest.fixture(autouse=True)
def small_workloads(tmp_path, monkeypatch):
    """Small grids, outputs under tmp_path, and no set-up subprocesses."""
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(workloads, "WORKLOADS", SMALL)
    monkeypatch.setattr(run, "measure_setup", lambda name, seed: 0.25)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(SMALL)


@pytest.mark.parametrize("name", ["sweep-warm", "sign-solve", "genus-bounds"])
def test_untraced_run_reports_end_to_end_metrics(name):
    result = run.measure(name, 3, 0.0, trace=False)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == list(run.END_TO_END)
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["value"] > 0


def test_traced_self_times_add_up_and_patches_are_removed(tmp_path):
    main, compute_dual = cli.main, dual.compute_dual
    result = run.measure("sweep-warm", 3, 0.0, trace=True)
    assert cli.main is main and dual.compute_dual is compute_dual
    assert list(result["metrics"]) == list(run.PER_LAYER)
    layers = {key: metric["value"] for key, metric in result["metrics"].items()}
    assert layers["dual.sweeps"] > 0 and layers["grid.integrate_values.calls"] > 0
    assert layers["experiments.run_sweep.self_ms"] > 0

    spans = json.loads((tmp_path / "spans-sweep-warm.json").read_text())["ops"]
    roots = [s for s in spans if s["name"] == "op"]
    assert roots
    for root in roots:
        members = [s for s in spans if s["op"] == root["op"]]
        children = {}
        for s in members:
            children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
        self_total = sum(s["end"] - s["start"] - children.get(s["id"], 0.0) for s in members)
        assert self_total == pytest.approx(root["end"] - root["start"], rel=1e-9)


def test_wrong_answer_counts_as_reference_miss(monkeypatch):
    monkeypatch.setattr(dual, "compute_lambda", lambda e, grid: 1.0)
    result = run.measure("dual-cold", 3, 0.0, trace=False)
    assert result["correct"] is False
    assert result["failed"] >= 3  # the three linear ops, besides the solver's own failures


def test_meter_ticks_during_ops_and_scales_by_the_window_median():
    meter = speed.Meter()
    meter.probe()
    with meter.ticking():
        end = time.perf_counter() + 4 * speed.TICK_S
        while time.perf_counter() < end:
            pass
    assert len(meter.window) > speed.PROBE_REPEATS and meter.spent > 0.0
    meter.probe()
    median = statistics.median(meter.window)
    assert meter.scale(2.0) == pytest.approx(2.0 * speed.REFERENCE_S / median)
    assert len(meter.window) == speed.PROBE_REPEATS and meter.spent == 0.0


def test_reference_root_and_tail_percentile():
    assert workloads.first_root_tan_k_equals_k() == pytest.approx(4.493409457909064, rel=1e-15)
    assert run.tail([float(i) for i in range(30)]) == (19.0, 100.0 * 20 / 30, 30)
    assert run.tail([2.0, 1.0]) == (2.0, 100.0, 2)


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-warm", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""

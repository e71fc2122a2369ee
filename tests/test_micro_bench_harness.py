"""Smoke test for the micro-benchmark harness: it must run end to end and
emit schema-conforming, machine-readable JSON (the perf trajectory across PRs
depends on this file format staying parseable)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
HARNESS = REPO_ROOT / "benchmarks" / "micro" / "run_micro.py"


def test_micro_harness_smoke(tmp_path):
    output = tmp_path / "BENCH_micro.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable,
            str(HARNESS),
            "--benchmarks",
            "dense",
            "--repeats",
            "1",
            "--output",
            str(output),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(output.read_text())
    assert payload["schema"] == "repro.bench.micro/v1"
    entry = payload["benchmarks"]["dense"]
    assert entry["reference_seconds"] > 0
    assert entry["fast_seconds"] > 0
    assert entry["speedup"] == entry["reference_seconds"] / entry["fast_seconds"]


def test_micro_harness_rejects_unknown_benchmark(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(HARNESS), "--benchmarks", "nope", "--output", str(tmp_path / "x.json")],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "unknown benchmarks" in proc.stderr


def test_checked_in_metrics_overhead_under_two_percent():
    """The committed metrics_overhead benchmark must document that enabling
    the repro.obs registry costs < 2% on a real VGG training run (the
    observability subsystem's acceptance criterion)."""
    payload = json.loads((REPO_ROOT / "benchmarks" / "micro" / "BENCH_micro.json").read_text())
    entry = payload["benchmarks"]["metrics_overhead"]
    assert entry["reference_seconds"] > 0 and entry["fast_seconds"] > 0
    assert entry["overhead_fraction"] == pytest.approx(
        entry["fast_seconds"] / entry["reference_seconds"] - 1.0
    )
    assert entry["overhead_fraction"] < 0.02


def test_checked_in_hot_swap_benchmark():
    """Guard on the committed hot-swap benchmark (ISSUE 10).

    The entry documents what a zero-downtime generation swap costs the
    client: p99 inside the swap window vs steady state (the harness's
    ``speedup`` is that degradation factor) plus the swap makespan.
    Absolute latency is machine-dependent, so the guard is structural —
    the measurement exists, is positive, and records the core count that
    produced it — not a latency budget.
    """
    payload = json.loads((REPO_ROOT / "benchmarks" / "micro" / "BENCH_micro.json").read_text())
    entry = payload["benchmarks"]["hot_swap"]
    assert entry["params"]["cpu_count"] >= 1
    assert entry["params"]["workers"] == 2
    assert entry["swap_makespan_seconds"] > 0
    assert entry["swap_samples"] > 0
    for key in ("steady_p50_seconds", "steady_p99_seconds",
                "swap_p50_seconds", "swap_p99_seconds"):
        assert entry[key] > 0
    assert entry["steady_p99_seconds"] >= entry["steady_p50_seconds"]
    assert entry["swap_p99_seconds"] >= entry["swap_p50_seconds"]
    assert entry["reference_seconds"] == entry["swap_p99_seconds"]
    assert entry["fast_seconds"] == entry["steady_p99_seconds"]

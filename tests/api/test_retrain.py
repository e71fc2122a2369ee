"""Retrain loop: shadow-evaluation gate, promotion/rejection bookkeeping,
lineage provenance (hatched members), and the CLI verb."""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from repro.api import retrain_cycle, retrain_loop, save_ensemble_run
from repro.core.artifact_store import ArtifactStore


@pytest.fixture()
def store(tiny_result, tmp_path):
    root = tmp_path / "store"
    save_ensemble_run(tiny_result.run, root)
    return ArtifactStore.open(root)


def test_cycle_promotes_under_loose_gate(store, tiny_spec):
    report = retrain_cycle(
        store, tiny_spec, data_seed=11, max_error_delta=100.0, method="average"
    )
    assert report.promoted is True
    assert report.generation == 1
    assert report.parent_generation == 0
    assert store.current_generation() == 1

    lineage = store.lineage(1)
    assert lineage["parent_generation"] == 0
    assert lineage["promotion"]["status"] == "promoted"
    gate = lineage["gate"]
    assert gate["max_error_delta"] == 100.0
    assert gate["baseline_generation"] == 0
    assert gate["data_seed"] == 11
    # MotherNets runs hatch their members — the paper's cheap-refresh story.
    origins = {row["origin"] for row in lineage["members"]}
    assert origins == {"hatched"}
    assert report.members_hatched == report.members_total > 0


def test_cycle_rejects_under_impossible_gate(store, tiny_spec):
    # Error rates live in [0, 100]; a -200 delta can never pass.
    report = retrain_cycle(
        store, tiny_spec, data_seed=12, max_error_delta=-200.0, method="average"
    )
    assert report.promoted is False
    assert report.generation == 1
    assert store.current_generation() == 0  # pointer untouched
    promotion = store.lineage(1)["promotion"]
    assert promotion["status"] == "rejected"
    assert "shadow evaluation failed" in promotion["reason"]
    # The rejected generation stays on disk for forensics.
    assert store.generations() == [0, 1]


def test_loop_runs_deterministic_distinct_seeds(store, tiny_spec):
    reports = retrain_loop(
        store, tiny_spec, max_cycles=2, max_error_delta=100.0, interval=0.0
    )
    assert [report.generation for report in reports] == [1, 2]
    assert [report.parent_generation for report in reports] == [0, 1]
    base_seed = dict(tiny_spec.dataset)["seed"]
    assert [report.data_seed for report in reports] == [base_seed + 1, base_seed + 2]
    assert store.current_generation() == 2


def test_loops_in_turn_draw_the_next_seed(store, tiny_spec, tiny_result):
    """Each call is a fresh loop, as each ``repro retrain --once`` is a fresh
    process: its seed follows the generation it writes, so the second call
    does not redraw the first call's data and rewrite its generation."""
    from repro.api import EnsemblePredictor

    for _ in range(2):
        retrain_loop(store, tiny_spec, max_cycles=1, max_error_delta=100.0)
    base_seed = dict(tiny_spec.dataset)["seed"]
    assert [store.lineage(g)["gate"]["data_seed"] for g in (1, 2)] == [
        base_seed + 1,
        base_seed + 2,
    ]
    x = tiny_result.dataset.x_test
    first, second = (
        EnsemblePredictor.load(store.generation_path(g)).predict_proba(x) for g in (1, 2)
    )
    assert not np.array_equal(first, second)


def test_cli_retrain_once(tiny_result, tmp_path, experiment_dict):
    root = tmp_path / "store"
    save_ensemble_run(tiny_result.run, root)
    config = tmp_path / "exp.json"
    config.write_text(json.dumps(experiment_dict()))
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "retrain",
            "--store",
            str(root),
            "--config",
            str(config),
            "--once",
            "--max-error-delta",
            "100",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["current_generation"] == 1
    assert len(report["cycles"]) == 1
    assert report["cycles"][0]["promoted"] is True

    # Store-aware inspect: generation ledger with lineage + promotion.
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "inspect", "--artifact", str(root)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    inspected = json.loads(proc.stdout)
    assert inspected["generation"] == 1
    ledger = inspected["store"]
    assert ledger["current_generation"] == 1
    rows = {row["generation"]: row for row in ledger["generations"]}
    assert rows[0]["promotion"] == "promoted"
    assert rows[1]["current"] is True
    assert rows[1]["parent_generation"] == 0
    assert {m["origin"] for m in rows[1]["members"]} == {"hatched"}

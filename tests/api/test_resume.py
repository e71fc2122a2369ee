"""In-process checkpoint/resume integration: every trainer restores bitwise.

These tests drive ``run_experiment(..., checkpoint_dir=...)`` twice: the
first run journals every finished network (and deliberately keeps the
journal), the second resumes with ``resume=True`` and must restore the whole
ensemble bitwise — zero retraining — for the mothernets pipeline (serial and
parallel, including members that alias their cluster's MotherNet), the
scratch baselines, and the snapshot-cycle chain.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro.api import ExperimentSpec, run_experiment
from repro.arch.zoo import mlp_family
from repro.core import MotherNetsTrainer
from repro.core.trainer import critical_path, runnable
from repro.obs.metrics import get_registry


def _experiment(approach="mothernets", workers=1, **overrides):
    base = {
        "name": "resume-tiny",
        "dataset": {
            "name": "tabular",
            "train_samples": 192,
            "test_samples": 48,
            "num_classes": 3,
            "num_features": 10,
            "seed": 11,
        },
        "members": {
            "family": "mlp",
            "count": 3,
            "input_features": 10,
            "num_classes": 3,
            "base_width": 8,
            "seed": 2,
        },
        "approach": approach,
        "training": {"max_epochs": 2, "batch_size": 64, "workers": workers},
        "trainer": {"tau": 0.3} if approach == "mothernets" else {},
        "seed": 4,
    }
    base.update(overrides)
    return base


def _assert_same_weights(first, second):
    assert [m.name for m in first.ensemble.members] == [
        m.name for m in second.ensemble.members
    ]
    for a, b in zip(first.ensemble.members, second.ensemble.members):
        wa, wb = a.model.get_weights(), b.model.get_weights()
        for layer in wa:
            for key in wa[layer]:
                np.testing.assert_array_equal(wa[layer][key], wb[layer][key], err_msg=a.name)


def _assert_identical_runs(first, second):
    _assert_same_weights(first, second)
    for a, b in zip(first.ensemble.members, second.ensemble.members):
        # Restored members reuse the journaled ledger facts verbatim — a
        # retrained member would book a different wall clock.
        assert a.training_seconds == b.training_seconds
    assert [(r.network, r.epochs, r.wall_clock_seconds) for r in first.ledger.records] == [
        (r.network, r.epochs, r.wall_clock_seconds) for r in second.ledger.records
    ]


@pytest.mark.parametrize("workers", [1, 2])
def test_mothernets_full_resume_is_bitwise(tmp_path, workers):
    """Resume after a completed run restores every network — MotherNets and
    members, aliased members included — without retraining anything."""
    config = _experiment(workers=workers)
    first = run_experiment(config, checkpoint_dir=tmp_path)
    resumed = run_experiment(config, checkpoint_dir=tmp_path, resume=True)

    _assert_identical_runs(first.run, resumed.run)
    expected = len(resumed.run.ensemble.members) + len(resumed.run.mothernet_models)
    assert resumed.checkpoint.restored == expected
    gauge = get_registry().get("repro_training_resume_restored_networks")
    assert gauge is not None and gauge.value == expected
    # Nothing ran on a pool in the resumed run, so it records no phase
    # makespan: the critical path is the restored networks' booked seconds.
    assert resumed.run.ledger.phase_makespans == {}
    assert resumed.run.makespan_seconds == resumed.run.total_training_seconds


def test_resume_after_a_crash_at_every_point_of_two_landing_orders(tmp_path):
    """Crash-point enumeration over the task graph: whatever prefix of the
    landing order made it into the journal — under the in-process order and
    under the pool's critical-path order — a ``workers=2`` resume retrains
    exactly the rest and ends bitwise where the uninterrupted run did.

    Two clusters; ``mlp-base`` equals cluster 0's MotherNet, so the journaled
    prefix may hold it while its dependents must still hatch from it.
    """
    config = _experiment(
        workers=2,
        members={"family": "mlp", "count": 4, "input_features": 10, "num_classes": 3,
                 "base_width": 8, "seed": 2},
    )
    complete = tmp_path / "complete"
    reference = run_experiment(config, checkpoint_dir=complete)
    spec = ExperimentSpec.from_dict(config)
    trainer = MotherNetsTrainer(spec.training, **spec.trainer)
    _, nodes, _ = trainer._graph(spec.member_specs(), reference.dataset, spec.seed)
    assert {node.phase for node in nodes} == {"mothernet", "member"}
    assert len([node for node in nodes if node.phase == "mothernet"]) == 2
    assert any(dep[0] == "member" for node in nodes for dep in node.deps)

    # Landing orders: list order (workers=1), and always the most urgent
    # runnable node next (what a pool prefers).
    priority, landed, by_priority = critical_path(nodes), set(), []
    while len(by_priority) < len(nodes):
        waiting = [node for node in nodes if node.key not in landed]
        by_priority.append(runnable(waiting, landed, priority)[0])
        landed.add(by_priority[-1].key)
    assert [node.key for node in by_priority] != [node.key for node in nodes]
    prefixes = {
        frozenset(node.key for node in order[:length])
        for order in (nodes, by_priority)
        for length in range(len(nodes) + 1)
    }

    def journal_files(root, key):
        kind, index = key
        pattern = f"c{index:04d}-*" if kind == "mothernet" else f"{index:03d}-*"
        return list((root / "checkpoint" / f"{kind}s").glob(pattern))

    for number, journaled in enumerate(sorted(prefixes, key=sorted)):
        crashed = tmp_path / f"crash-{number}"
        shutil.copytree(complete, crashed)
        for node in nodes:
            if node.key not in journaled:
                files = journal_files(crashed, node.key)
                assert len(files) == 2  # weights + done marker
                for path in files:
                    path.unlink()
        resumed = run_experiment(config, checkpoint_dir=crashed, resume=True)
        assert resumed.checkpoint.restored == len(journaled)
        _assert_same_weights(reference.run, resumed.run)
        # A makespan is booked only if a pool ran (two or more fits left).
        pooled = len(nodes) - len(journaled) >= 2
        assert bool(resumed.run.ledger.phase_makespans) == pooled, sorted(journaled)


@pytest.mark.parametrize("approach", ["full-data", "bagging"])
def test_scratch_baselines_full_resume_is_bitwise(tmp_path, approach):
    config = _experiment(approach=approach)
    first = run_experiment(config, checkpoint_dir=tmp_path)
    resumed = run_experiment(config, checkpoint_dir=tmp_path, resume=True)
    _assert_identical_runs(first.run, resumed.run)
    assert resumed.checkpoint.restored == len(resumed.run.ensemble.members)


def test_snapshot_resume_restores_cycle_prefix(tmp_path):
    """Snapshot cycles are a chain (cycle N trains from cycle N-1's weights);
    the journal restores the contiguous done prefix and the chain continues
    bitwise from the restored weights."""
    spec = mlp_family(count=1, input_features=10, num_classes=3, base_width=8, seed=2)[0]
    config = _experiment(
        approach="snapshot",
        members=[spec],
        trainer={"num_snapshots": 3, "epochs_per_cycle": 1},
    )
    first = run_experiment(config, checkpoint_dir=tmp_path)

    # Drop the *last* cycle from the journal: resume restores cycles 0-1 and
    # retrains only cycle 2 — from cycle 1's restored weights.
    members_dir = tmp_path / "checkpoint" / "members"
    markers = sorted(members_dir.glob("*.json"))
    assert len(markers) == 3
    markers[-1].unlink()
    markers[-1].with_suffix(".npz").unlink()

    resumed = run_experiment(config, checkpoint_dir=tmp_path, resume=True)
    assert resumed.checkpoint.restored == 2
    _assert_same_weights(first.run, resumed.run)


def test_resume_metrics_not_double_counted(tmp_path):
    """Restored networks keep the cost *ledger* complete but must not inflate
    the cumulative training-seconds counters a second time."""
    config = _experiment(approach="full-data")
    run_experiment(config, checkpoint_dir=tmp_path)
    counter = get_registry().get("repro_ensemble_networks_trained_total")
    assert counter is not None
    before = {values: value for values, value in counter.samples()}
    resumed = run_experiment(config, checkpoint_dir=tmp_path, resume=True)
    assert resumed.checkpoint.restored == len(resumed.run.ensemble.members)
    after = {values: value for values, value in counter.samples()}
    assert after == before

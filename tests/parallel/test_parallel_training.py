"""Serial vs parallel ensemble training equivalence.

The contract of ``TrainingConfig(workers=N)``: given the same seeds, the
parallel engine produces *bitwise* the same ensemble as the serial loop —
same member weights, same predictions, same ledger structure — while the
ledger additionally records the phase makespan (critical-path wall clock),
which can never exceed the summed per-member training seconds.
"""

import copy
import os
import sys

import numpy as np
import pytest

from repro.api import run_experiment
from repro.nn.training import TrainingConfig
from tests.procs import worker_processes


def with_workers(config_dict, workers):
    """A deep copy of an experiment dict with ``training.workers`` set."""
    out = copy.deepcopy(config_dict)
    out["training"] = dict(out["training"], workers=workers)
    return out


def _assert_same_ensembles(reference, candidate, x):
    assert [m.name for m in reference.ensemble.members] == [
        m.name for m in candidate.ensemble.members
    ]
    for ref_member, cand_member in zip(
        reference.ensemble.members, candidate.ensemble.members
    ):
        ref_weights = ref_member.model.get_weights()
        cand_weights = cand_member.model.get_weights()
        assert ref_weights.keys() == cand_weights.keys()
        for layer in ref_weights:
            assert ref_weights[layer].keys() == cand_weights[layer].keys()
            for key in ref_weights[layer]:
                np.testing.assert_array_equal(
                    cand_weights[layer][key],
                    ref_weights[layer][key],
                    err_msg=f"{ref_member.name}/{layer}/{key}",
                )
    np.testing.assert_array_equal(
        candidate.ensemble.predict_proba_all(x), reference.ensemble.predict_proba_all(x)
    )


def _assert_no_parallel_residue():
    if sys.platform.startswith("linux"):
        leftovers = [f for f in os.listdir("/dev/shm") if f.startswith("repro-shm")]
        assert leftovers == [], f"leaked shared-memory segments: {leftovers}"
    assert worker_processes() == {}


def test_mothernets_parallel_matches_serial_bitwise(serial_result, experiment_dict):
    """workers=4 vs workers=1: same weights, predictions, and SL fit.

    The member family deliberately contains members whose hatching plan is
    empty (they equal their cluster's MotherNet) — the sequential-dependency
    edge the parallel path must replicate faithfully.
    """
    parallel = run_experiment(with_workers(experiment_dict(), 4))
    x = serial_result.dataset.x_test
    _assert_same_ensembles(serial_result.run, parallel.run, x)
    np.testing.assert_array_equal(
        parallel.ensemble.super_learner_weights,
        serial_result.ensemble.super_learner_weights,
    )
    _assert_no_parallel_residue()


def test_mothernets_parallel_ledger(serial_result, experiment_dict):
    parallel = run_experiment(with_workers(experiment_dict(), 2)).run
    serial = serial_result.run
    assert [r.network for r in parallel.ledger.records] == [
        r.network for r in serial.ledger.records
    ]
    assert [r.epochs for r in parallel.ledger.records] == [
        r.epochs for r in serial.ledger.records
    ]
    assert [r.samples_per_epoch for r in parallel.ledger.records] == [
        r.samples_per_epoch for r in serial.ledger.records
    ]
    # The parallel run recorded a makespan for the member phase; the serial
    # run reports makespan == total by construction.
    assert "member" in parallel.ledger.phase_makespans
    assert serial.ledger.phase_makespans == {}
    assert serial.makespan_seconds == pytest.approx(serial.total_training_seconds)
    _assert_no_parallel_residue()


def test_pooled_mothernets_run_is_one_pool_scheduled_critical_path_first(
    experiment_dict, train_events, on_event
):
    """One pool serves MotherNets and members alike, and the schedule reads
    off the event log: who booted when, what went where, what waited.

    The conftest family has two clusters; ``mlp-base`` equals cluster 0's
    MotherNet (empty hatching plan), so ``mlp-var-002`` / ``mlp-var-003``
    hatch from its fine-tuned weights.

    Same family on a longer run (~0.1 s a fit instead of ~7 ms): on the
    conftest run the caller's lane fits all six networks in ~60 ms, so the
    one spawned worker, booting that much longer, never gets to say ready.
    """
    config = with_workers(experiment_dict(), 2)
    config["dataset"]["train_samples"] = 4096
    config["training"]["max_epochs"] = 10
    processes = []
    with on_event(
        "train.task_dispatched",
        lambda fields: processes.append(sorted(worker_processes())),
    ):
        run = run_experiment(config).run

    def of(kind):
        return [fields for event, fields in train_events if event == kind]

    # `workers` lanes for the whole run — not a pool per phase — of which
    # lane 0 is this process (nothing to boot) and the other ONE spawned.
    assert len(processes) == 6 and all(names == ["repro-train-1"] for names in processes)
    ready = of("train.worker_ready")
    assert (ready[0]["worker"], ready[0]["boot_seconds"]) == (0, 0.0)
    # (On a starved machine lane 0 may be through before the worker says so.)
    assert [e["worker"] for e in ready[1:]] in ([], [1])
    assert all(e["boot_seconds"] > 0 for e in ready[1:])
    # Every network ran on the pool exactly once, the aliased members too.
    networks = ["mothernet-0", "mothernet-1", "mlp-base", "mlp-var-001", "mlp-var-002",
                "mlp-var-003"]
    dispatched = [e["member"] for e in of("train.task_dispatched")]
    assert sorted(dispatched) == sorted(networks)
    assert sorted(e["member"] for e in of("train.task_finished")) == sorted(networks)
    assert all(e["attempt"] == 0 and e["waited_seconds"] >= 0 for e in of("train.task_dispatched"))
    # Critical path first: mothernet-1 (larger, and as long a chain) leads,
    # on the lane that is up at once — it never waits for an interpreter.
    first = of("train.task_dispatched")[0]
    assert (first["member"], first["worker"]) == ("mothernet-1", 0)
    assert first["waited_seconds"] < 0.01
    # The edges hold in time: nothing starts before what it hatches from landed.
    order = [
        (event.split(".")[1], fields["member"])
        for event, fields in train_events
        if event in ("train.task_dispatched", "train.task_finished")
    ]
    for child, parent in [
        ("mlp-base", "mothernet-0"),
        ("mlp-var-001", "mothernet-1"),
        ("mlp-var-002", "mlp-base"),
        ("mlp-var-003", "mlp-base"),
    ]:
        assert order.index(("task_finished", parent)) < order.index(("task_dispatched", child))
    # The two makespans partition the pooled window where the last MotherNet
    # landed, so they sum to the time actually waited.
    makespans = run.ledger.phase_makespans
    assert set(makespans) == {"mothernet", "member"}
    assert run.makespan_seconds == pytest.approx(sum(makespans.values()))
    _assert_no_parallel_residue()


def test_conv_family_identical_at_any_worker_count():
    """The small-VGG family of the end-to-end benchmark (two clusters, an
    aliased member with a dependent): the same member weights and the same
    ledger sequence at workers = 1, 2 and 3."""
    config = {
        "name": "conv-tiny",
        "dataset": {"name": "cifar10", "image_shape": [3, 8, 8], "train_samples": 128,
                    "test_samples": 32, "seed": 3},
        "members": {"family": "small_vgg", "input_shape": [3, 8, 8], "width_scale": 0.0625},
        "approach": "mothernets",
        "trainer": {"tau": 0.5},
        "training": {"max_epochs": 1, "batch_size": 64, "learning_rate": 0.05},
        "seed": 3,
    }
    runs = {workers: run_experiment(with_workers(config, workers)) for workers in (1, 2, 3)}
    x = runs[1].dataset.x_test
    facts = [(r.network, r.phase, r.epochs, r.samples_per_epoch) for r in runs[1].run.ledger.records]
    assert len(runs[1].run.clusters) == 2
    for workers in (2, 3):
        _assert_same_ensembles(runs[1].run, runs[workers].run, x)
        assert facts == [
            (r.network, r.phase, r.epochs, r.samples_per_epoch)
            for r in runs[workers].run.ledger.records
        ]
    _assert_no_parallel_residue()


def test_first_task_deadline_does_not_cover_worker_boot(lane0_parked):
    """A task's deadline starts when it is handed to a worker that is up,
    not when the pool is spawned: with a deadline shorter than an
    interpreter boot (spawn + numpy import) a millisecond fit still succeeds
    on its first attempt chain instead of being evicted while booting.
    (``workers=2`` with lane 0 parked: the one lane is a process.)"""
    from repro.arch.serialization import spec_to_json
    from repro.arch.zoo import mlp_family
    from repro.parallel.executor import MemberTask, ParallelExecutor

    spec = mlp_family(count=1, input_features=4, num_classes=2, base_width=4, seed=1)[0]
    rng = np.random.default_rng(0)
    data = {"x": rng.normal(size=(32, 4)).astype(np.float32), "y": rng.integers(0, 2, size=32)}
    task = MemberTask(
        name="tiny",
        spec_json=spec_to_json(spec),
        config=TrainingConfig(max_epochs=1, batch_size=32),
        train_seed=0,
    )
    with ParallelExecutor(data, workers=2, task_timeout=0.2) as pool:
        outcomes, _ = pool.train([task])
    assert [net.name for net in outcomes] == ["tiny"]
    _assert_no_parallel_residue()


@pytest.mark.parametrize("approach", ["full-data", "bagging"])
def test_scratch_baselines_parallel_match_serial(experiment_dict, approach):
    config = experiment_dict(approach=approach)
    config.pop("trainer")
    config.pop("super_learner")
    serial = run_experiment(config)
    parallel = run_experiment(with_workers(config, 2))
    _assert_same_ensembles(serial.run, parallel.run, serial.dataset.x_test)
    assert "scratch" in parallel.run.ledger.phase_makespans
    _assert_no_parallel_residue()


def test_parallel_makespan_bounded_by_member_seconds(experiment_dict):
    """Makespan (critical path) <= sum of per-member training seconds.

    Sized so training compute dominates worker start-up: each member's
    in-worker wall clock covers the whole execution window on a loaded
    machine, so the sum across members bounds the window from above.
    """
    config = experiment_dict(
        approach="full-data",
        dataset={
            "name": "tabular",
            "train_samples": 1536,
            "test_samples": 32,
            "num_classes": 4,
            "num_features": 12,
            "seed": 5,
        },
        members={
            "family": "mlp",
            "count": 4,
            "input_features": 12,
            "num_classes": 4,
            "base_width": 192,
            "seed": 1,
        },
        training={
            "max_epochs": 8,
            "min_epochs": 8,
            "convergence_patience": 8,
            "batch_size": 32,
            "learning_rate": 0.05,
            "workers": 4,
        },
    )
    config.pop("trainer")
    config.pop("super_learner")
    run = run_experiment(config).run
    member_seconds = sum(r.wall_clock_seconds for r in run.ledger.records)
    assert run.ledger.makespan_seconds <= member_seconds
    assert run.makespan_seconds == run.ledger.makespan_seconds
    _assert_no_parallel_residue()


def test_snapshot_ignores_workers(experiment_dict):
    """Snapshot cycles are sequential; workers>1 must not change results."""
    from repro.arch.zoo import mlp_family

    spec = mlp_family(count=1, input_features=12, num_classes=4, base_width=10, seed=1)[0]
    config = experiment_dict(
        approach="snapshot",
        members=[spec],
        trainer={"num_snapshots": 2, "epochs_per_cycle": 2},
    )
    config.pop("super_learner")
    serial = run_experiment(config)
    parallel = run_experiment(with_workers(config, 4))
    _assert_same_ensembles(serial.run, parallel.run, serial.dataset.x_test)
    assert parallel.run.ledger.phase_makespans == {}


def test_training_config_workers_validation():
    with pytest.raises(ValueError):
        TrainingConfig(workers=0)
    assert TrainingConfig().workers == 1
    assert TrainingConfig(workers=3).scaled(0.5).workers == 3


def test_training_config_workers_round_trips_through_dict():
    from repro.api import training_config_from_dict, training_config_to_dict

    config = TrainingConfig(max_epochs=2, workers=4)
    data = training_config_to_dict(config)
    assert data["workers"] == 4
    assert training_config_from_dict(data).workers == 4
    # Pre-existing dicts without the key keep the serial default.
    data.pop("workers")
    assert training_config_from_dict(data).workers == 1

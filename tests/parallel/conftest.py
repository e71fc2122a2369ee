"""Shared fixtures for the parallel-engine tests.

One tiny tabular MLP experiment is trained serially once per session; the
individual tests retrain it with ``workers > 1`` (equivalence), save it as an
artifact (serving pool / CLI), or both.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager

import pytest

from repro.api import run_experiment, save_ensemble_run
from repro.obs.events import EVENTS_LOGGER_NAME
from tests.procs import shm_entries


@pytest.fixture
def shm_sweep():
    """Assert the test leaves no *new* ``repro-shm`` residue in ``/dev/shm``.

    Snapshot-based rather than demanding an empty directory, so a segment
    some other live fixture holds is not blamed on this test; only segments
    the test itself created and failed to clean up count as leaks.
    """
    before = shm_entries()
    yield
    leaked = shm_entries() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


@pytest.fixture
def on_event():
    """``with on_event(name, action):`` runs ``action(fields)`` at every
    ``name`` event while the block runs — for ``train.*`` events that is
    inside the executor's ``train()`` loop, at the very point of the schedule
    the event marks."""

    @contextmanager
    def hooked(name, action):
        class Hook(logging.Handler):
            def emit(self, record):
                if record.repro_event == name:
                    action(record.repro_fields)

        events, hook = logging.getLogger(EVENTS_LOGGER_NAME), Hook()
        events.addHandler(hook)
        try:
            yield
        finally:
            events.removeHandler(hook)

    return hooked


@pytest.fixture
def lane0_parked(monkeypatch):
    """Keep the calling process out of the training pool, so every task of a
    ``workers=N`` run lands on one of its ``N - 1`` worker processes — where
    ``REPRO_FAULTS`` train faults fire and signals can be sent.  Test-only:
    slot 0 is simply never filled (it stays ``down`` with nothing scheduled,
    like a retired lane); the library has no such switch."""
    from repro.parallel.executor import ParallelExecutor

    monkeypatch.setattr(ParallelExecutor, "_start_lane", lambda self: None)


@pytest.fixture
def train_events():
    """The structured events (``repro.obs.log_event``) emitted while the test
    runs, in order, as ``(event, fields)`` pairs — the same lines a
    ``--log-file`` would hold.

    On the way out it checks the invariant every pooled run must keep: a
    ``train.task_dispatched`` only ever goes to a lane that has said
    ``train.worker_ready`` since it was last (re)spawned — and not been
    evicted or retired since — so no task deadline runs while an interpreter
    is still booting.
    """
    records = []

    class _Capture(logging.Handler):
        def emit(self, record):
            records.append((record.repro_event, dict(record.repro_fields)))

    events = logging.getLogger(EVENTS_LOGGER_NAME)
    handler, level = _Capture(), events.level
    events.addHandler(handler)
    events.setLevel(logging.INFO)
    yield records
    events.removeHandler(handler)
    events.setLevel(level)

    ready = set()
    for event, fields in records:
        if event == "train.worker_ready":
            ready.add(fields["worker"])
        elif event in ("train.worker_evicted", "train.worker_respawned"):
            ready.discard(fields["worker"])
        elif event == "train.task_dispatched":
            assert fields["worker"] in ready, (fields, records)


def parallel_experiment_dict(**overrides):
    """A small declarative experiment with enough members to parallelise."""
    base = {
        "name": "parallel-tiny",
        "dataset": {
            "name": "tabular",
            "train_samples": 256,
            "test_samples": 64,
            "num_classes": 4,
            "num_features": 12,
            "class_separation": 2.0,
            "seed": 5,
        },
        "members": {
            "family": "mlp",
            "count": 4,
            "input_features": 12,
            "num_classes": 4,
            "base_width": 10,
            "seed": 1,
        },
        "approach": "mothernets",
        "training": {"max_epochs": 3, "batch_size": 64, "learning_rate": 0.1},
        "trainer": {"tau": 0.3},
        "seed": 0,
        "super_learner": True,
    }
    for key, value in overrides.items():
        base[key] = value
    return base


@pytest.fixture(scope="session")
def experiment_dict():
    return parallel_experiment_dict


@pytest.fixture(scope="session")
def serial_result():
    """The reference run, trained on the plain serial path (workers=1)."""
    return run_experiment(parallel_experiment_dict())


@pytest.fixture(scope="session")
def saved_artifact(serial_result, tmp_path_factory):
    """The serial run persisted as an artifact directory (for serving tests)."""
    path = tmp_path_factory.mktemp("parallel-artifact") / "artifact"
    save_ensemble_run(serial_result.run, path)
    return path

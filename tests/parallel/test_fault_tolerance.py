"""Chaos tests: the training engine under injected crashes, hangs and errors.

The contract under test (ISSUE 6): a worker SIGKILLed or wedged mid-member is
evicted, respawned, and its task retried — and because every seed is derived
statelessly, the finished ensemble is *bitwise* identical to a run where
nothing failed.  A parent killed with ``kill -9`` resumes from the checkpoint
journal without retraining finished members.  Faults come from the
``REPRO_FAULTS`` registry (``repro.faults``), the same mechanism the CI chaos
job uses.  Train faults only ever fire inside worker processes, so these
scenarios park the pool's lane 0 — the calling process — with the
``lane0_parked`` fixture: every task then lands on a process.  What lane 0
itself does under faults is ``test_caller_lane.py``.
"""

from __future__ import annotations

import copy
import json
import logging
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import load_ensemble_run, run_experiment
from repro.obs.events import EVENTS_LOGGER_NAME
from repro.obs.metrics import get_registry
from tests.procs import child_pids, residue, shm_entries, worker_processes

# Member names produced by the conftest mlp family (count=4, seed=1).
MEMBERS = ["mlp-base", "mlp-var-001", "mlp-var-002", "mlp-var-003"]
# In the *mothernets* conftest experiment the first two members equal their
# cluster's MotherNet (empty hatching plan); mlp-var-002 and mlp-var-003 hatch
# from mlp-base's fine-tuned weights.  On a pool every one of them — and the
# MotherNets — is a pool task; train faults fire on the process lanes only.
WORKER_TRAINED_MEMBER = "mlp-var-002"


def _counter(name: str, *labels: str) -> float:
    metric = get_registry().get(name)
    if metric is None:
        return 0.0
    if labels:
        metric = metric.labels(*labels)
    return metric.value


def _scratch_config(experiment_dict, **training_overrides):
    config = experiment_dict(approach="full-data")
    config.pop("trainer")
    config.pop("super_learner")
    config["training"] = dict(config["training"], **training_overrides)
    return config


def _assert_same_members(reference, candidate):
    assert [m.name for m in reference.ensemble.members] == [
        m.name for m in candidate.ensemble.members
    ]
    for ref, cand in zip(reference.ensemble.members, candidate.ensemble.members):
        ref_weights = ref.model.get_weights()
        cand_weights = cand.model.get_weights()
        assert ref_weights.keys() == cand_weights.keys()
        for layer in ref_weights:
            for key in ref_weights[layer]:
                np.testing.assert_array_equal(
                    cand_weights[layer][key],
                    ref_weights[layer][key],
                    err_msg=f"{ref.name}/{layer}/{key}",
                )


@pytest.fixture(scope="module")
def scratch_serial(experiment_dict):
    """Fault-free serial reference for the full-data (scratch) approach."""
    return run_experiment(_scratch_config(experiment_dict)).run


def test_sigkill_mid_member_retries_bitwise(
    experiment_dict, scratch_serial, monkeypatch, train_events, lane0_parked
):
    """A worker SIGKILLed mid-fit is evicted; the retried member is bitwise
    identical to the fault-free run (``attempt=0`` scopes the fault to the
    first attempt, so the retry survives).  Its respawn waits the first step
    of the backoff schedule every supervised child shares."""
    from repro.parallel.supervision import backoff_delay

    monkeypatch.setenv("REPRO_FAULTS", "train_crash:member=mlp-var-001:attempt=0")
    retries_before = _counter("repro_training_task_retries_total")
    evictions_before = _counter("repro_training_worker_evictions_total", "died")

    chaos = run_experiment(_scratch_config(experiment_dict, workers=2)).run

    _assert_same_members(scratch_serial, chaos)
    assert _counter("repro_training_task_retries_total") >= retries_before + 1
    assert _counter("repro_training_worker_evictions_total", "died") >= evictions_before + 1
    evictions = [fields for event, fields in train_events if event == "train.worker_evicted"]
    assert [(e["reason"], e["restart_in_seconds"]) for e in evictions] == [
        ("died", backoff_delay(0))
    ]


def test_hang_past_deadline_evicts_and_retries_bitwise(
    experiment_dict, scratch_serial, monkeypatch, lane0_parked
):
    """A worker wedged past ``task_timeout`` is SIGKILLed by the deadline
    check (its heartbeat thread keeps beating, so only the per-task deadline
    can catch it) and the member retrains bitwise."""
    monkeypatch.setenv(
        "REPRO_FAULTS", "train_hang:member=mlp-var-002:attempt=0:seconds=60"
    )
    retries_before = _counter("repro_training_task_retries_total")
    deadline_before = _counter("repro_training_worker_evictions_total", "deadline")

    chaos = run_experiment(
        _scratch_config(experiment_dict, workers=2, task_timeout=3.0)
    ).run

    _assert_same_members(scratch_serial, chaos)
    assert _counter("repro_training_task_retries_total") >= retries_before + 1
    assert (
        _counter("repro_training_worker_evictions_total", "deadline")
        >= deadline_before + 1
    )


def test_silent_worker_is_evicted_on_heartbeat_loss_and_retried_bitwise(
    experiment_dict, scratch_serial, monkeypatch, train_events, lane0_parked
):
    """SIGSTOP a worker the moment it is handed a task: the process stays
    alive and far inside its task deadline, only its heartbeat goes silent.
    The executor evicts it for exactly that (``reason="heartbeat"``), retries
    the task on its successor, and the ensemble is bitwise the fault-free run.

    A fit takes milliseconds, so the worker could answer before the signal
    lands: a short first-attempt hang on the first task dispatched (the
    highest-priority member) holds it inside that task until it does."""
    from repro.parallel import executor

    monkeypatch.setattr(executor, "HEARTBEAT_INTERVAL", 0.2)
    monkeypatch.setattr(executor, "HEARTBEAT_TIMEOUT", 4.0)  # still covers a worker boot
    monkeypatch.setenv("REPRO_FAULTS", "train_hang:member=mlp-var-001:attempt=0:seconds=1")
    misses_before = _counter("repro_training_heartbeat_misses_total")
    stopped = []

    class StopOnDispatch(logging.Handler):
        def emit(self, record):
            fields = record.repro_fields
            if record.repro_event == "train.task_dispatched" and not stopped:
                stopped.append((fields["worker"], fields["member"]))
                os.kill(worker_processes()[f"repro-train-{fields['worker']}"], signal.SIGSTOP)

    events = logging.getLogger(EVENTS_LOGGER_NAME)
    handler = StopOnDispatch()
    events.addHandler(handler)
    try:
        chaos = run_experiment(_scratch_config(experiment_dict, workers=2)).run
    finally:
        events.removeHandler(handler)

    _assert_same_members(scratch_serial, chaos)
    (worker, member), = stopped
    evictions = [fields for event, fields in train_events if event == "train.worker_evicted"]
    assert [(e["worker"], e["reason"], e["member"]) for e in evictions] == [
        (worker, "heartbeat", member)
    ]
    retried = [fields for event, fields in train_events if event == "train.task_retried"]
    assert [(r["member"], r["attempt"]) for r in retried] == [(member, 1)]
    assert _counter("repro_training_heartbeat_misses_total") == misses_before + 1


def test_mothernets_chaos_crash_matches_serial(
    experiment_dict, serial_result, monkeypatch, lane0_parked
):
    """The full MotherNets pipeline (cluster -> train -> hatch -> fine-tune)
    survives a crashed member worker bitwise, super-learner fit included."""
    monkeypatch.setenv(
        "REPRO_FAULTS", f"train_crash:member={WORKER_TRAINED_MEMBER}:attempt=0"
    )
    retries_before = _counter("repro_training_task_retries_total")

    config = copy.deepcopy(experiment_dict())
    config["training"] = dict(config["training"], workers=2)
    chaos = run_experiment(config)

    _assert_same_members(serial_result.run, chaos.run)
    np.testing.assert_array_equal(
        chaos.ensemble.super_learner_weights,
        serial_result.ensemble.super_learner_weights,
    )
    assert _counter("repro_training_task_retries_total") >= retries_before + 1


@pytest.mark.parametrize("victim", ["mothernet-0", "mlp-base"])
def test_crash_upstream_of_dependents_retries_bitwise(
    experiment_dict, serial_result, monkeypatch, train_events, victim, lane0_parked
):
    """MotherNets and aliased members are pool citizens too: crash the first
    attempt of a network other members hatch from (cluster 0's MotherNet, or
    ``mlp-base``, which equals it and feeds ``mlp-var-002`` / ``-003``).  The
    retry is bitwise the fault-free fit, so everything hatched from it is
    bitwise the serial run as well."""
    monkeypatch.setenv("REPRO_FAULTS", f"train_crash:member={victim}:attempt=0")
    retries_before = _counter("repro_training_task_retries_total")

    config = copy.deepcopy(experiment_dict())
    config["training"] = dict(config["training"], workers=2)
    chaos = run_experiment(config)

    _assert_same_members(serial_result.run, chaos.run)
    assert _counter("repro_training_task_retries_total") >= retries_before + 1
    attempts = [
        (fields["member"], fields["attempt"])
        for event, fields in train_events
        if event == "train.task_dispatched"
    ]
    assert (victim, 0) in attempts and (victim, 1) in attempts
    # Nothing downstream started from the crashed attempt: dependents were
    # only dispatched after the retry had landed.
    events = [(event, fields.get("member")) for event, fields in train_events]
    landed = events.index(("train.task_finished", victim))
    for dependent in ("mlp-var-002", "mlp-var-003"):
        assert events.index(("train.task_dispatched", dependent)) > landed


def test_retries_exhausted_raises_naming_member(experiment_dict, monkeypatch, lane0_parked):
    """A member that fails on every attempt surfaces a clear error naming it
    (no hang, no silent truncation of the ensemble)."""
    monkeypatch.setenv("REPRO_FAULTS", "train_error:member=mlp-var-003")
    config = _scratch_config(experiment_dict, workers=2, max_task_retries=1)
    with pytest.raises(RuntimeError, match="mlp-var-003") as excinfo:
        run_experiment(config)
    assert "2 times" in str(excinfo.value)  # 1 attempt + 1 retry


def test_in_process_fits_carry_no_train_fault_point(
    experiment_dict, scratch_serial, monkeypatch
):
    """The ``train`` injection point belongs to the worker loop, not to the
    fit function workers share with in-process runs: at ``workers=1`` every
    task fits in this process, where a train fault must never fire (it would
    take down the run's own parent instead of a replaceable worker)."""
    monkeypatch.setenv("REPRO_FAULTS", "train_error")
    run = run_experiment(_scratch_config(experiment_dict)).run
    _assert_same_members(scratch_serial, run)


def test_worker_metrics_merge_into_parent(experiment_dict, lane0_parked):
    """Satellite (a): per-member metrics recorded inside worker processes
    (e.g. epoch counters) ship back with each trained network and accumulate in
    the parent registry."""
    epochs_before = _counter("repro_training_epochs_total")
    run = run_experiment(_scratch_config(experiment_dict, workers=2)).run
    trained_epochs = sum(r.epochs for r in run.ledger.records)
    assert trained_epochs > 0
    assert _counter("repro_training_epochs_total") >= epochs_before + trained_epochs


# --------------------------------------------------------------------------
# kill -9 the parent, then `repro train --resume`
# --------------------------------------------------------------------------


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="procfs + /dev/shm")
def test_parent_kill9_then_resume_skips_journaled_members(experiment_dict, tmp_path):
    """kill -9 the training CLI mid-run: its one child, the worker — wedged
    in a fit — notices and leaves by itself, and with it goes the last
    descriptor of the data set's anonymous file (nothing to unlink, no
    ``/dev/shm`` entry); ``--resume`` then restores the journaled members
    bitwise and only trains the remainder (acceptance criterion)."""
    shm_before = shm_entries()
    # Fits of ~0.6 s: the CLI's lane 0 cannot be parked from here, and on the
    # conftest run it would fit all four members before the worker is up.
    config = _scratch_config(
        experiment_dict, max_epochs=40, min_epochs=40, convergence_patience=40, task_timeout=600.0
    )
    config["dataset"] = dict(config["dataset"], train_samples=8192)
    serial = run_experiment(config).run
    config["training"]["workers"] = 2
    spec_path = tmp_path / "exp.json"
    spec_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "artifact"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    # Whichever member reaches the worker hangs far beyond the point where we
    # kill the parent (train faults fire in workers only), so the run is still
    # alive once lane 0 has journaled the others.
    env["REPRO_FAULTS"] = "train_hang:seconds=600"

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "train", "--config", str(spec_path),
         "--output", str(out), "--no-eval"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    member_markers = out / "checkpoint" / "members"
    try:
        deadline = time.monotonic() + 120
        while len(list(member_markers.glob("*.json"))) < 2:
            if proc.poll() is not None:
                pytest.fail(
                    "training exited before it could be killed:\n"
                    + (proc.stderr.read() or "")
                )
            if time.monotonic() > deadline:
                pytest.fail("no members journaled within 120s")
            time.sleep(0.05)
        children = child_pids(proc.pid)
        assert len(children) == 1  # the one worker: no resource tracker
        proc.kill()  # SIGKILL: no cleanup of any kind runs
        proc.wait(timeout=30)
        assert residue(children, shm_before, timeout=5.0) == ([], [])
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.stderr.close()

    journaled = len(list(member_markers.glob("*.json")))
    assert journaled >= 2
    assert not (out / "manifest.json").exists()

    metrics_path = tmp_path / "metrics.prom"
    resume = subprocess.run(
        [sys.executable, "-m", "repro", "train", "--config", str(spec_path),
         "--output", str(out), "--resume", "--no-eval",
         "--metrics-file", str(metrics_path)],
        env=dict(env, REPRO_FAULTS=""),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert resume.returncode == 0, resume.stderr

    # The resumed process restored every journaled member instead of
    # retraining it...
    metrics_text = metrics_path.read_text(encoding="utf-8")
    restored = 0.0
    for line in metrics_text.splitlines():
        if line.startswith("repro_training_resume_restored_networks"):
            restored = float(line.split()[-1])
    assert restored >= journaled

    # ...and the finished artifact is bitwise the fault-free ensemble, with
    # the journal discarded now that the manifest is the commit point.
    _assert_same_members(serial, load_ensemble_run(out))
    assert not (out / "checkpoint").exists()


# A trainer whose one worker wedges in its first fit: lane 0 is parked so
# the task lands on the worker, and every dispatch is printed.
_WEDGED_TRAINER = """
import logging, sys
import numpy as np
from repro.arch.serialization import spec_to_json
from repro.arch.zoo import mlp_family
from repro.nn.training import TrainingConfig
from repro.obs.events import EVENTS_LOGGER_NAME
from repro.parallel.executor import MemberTask, ParallelExecutor

class Dispatched(logging.Handler):
    def emit(self, record):
        if record.repro_event == "train.task_dispatched":
            print(record.repro_fields["worker"], flush=True)

events = logging.getLogger(EVENTS_LOGGER_NAME)
events.addHandler(Dispatched())
events.setLevel(logging.INFO)
ParallelExecutor._start_lane = lambda self: None
rng = np.random.default_rng(0)
data = {"x": rng.normal(size=(64, 6)).astype(np.float32), "y": rng.integers(0, 3, size=64)}
(spec,) = mlp_family(count=1, input_features=6, num_classes=3, base_width=5, seed=2)
task = MemberTask(name="t0", spec_json=spec_to_json(spec),
                  config=TrainingConfig(max_epochs=2, batch_size=16), train_seed=0, init_seed=0)
ParallelExecutor(data, workers=2).train([task])
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="procfs + /dev/shm")
def test_a_sigkilled_trainer_leaves_no_process_while_its_worker_is_wedged():
    """kill -9 a ``ParallelExecutor``'s process while its worker is wedged
    inside a fit: the worker — the process's only child — reads EOF on its
    lifeline and leaves, and within 5 s nothing of the run is left.  The data
    set is an anonymous memory file: no ``/dev/shm`` entry exists at any
    point."""
    shm_before = shm_entries()
    env = dict(os.environ, REPRO_FAULTS="train_hang:seconds=600")
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-c", _WEDGED_TRAINER],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        assert proc.stdout.readline().strip() == "1"  # the task went to the worker
        time.sleep(0.3)  # into the fault's sleep, mid-fit
        children = child_pids(proc.pid)
        workers = worker_processes(proc.pid)
        assert list(workers) == ["repro-train-1"] and len(children) == 1  # no tracker
        assert len(shm_entries() - shm_before) == 0
        proc.kill()
        proc.wait(timeout=30)
        assert residue(children, shm_before, timeout=5.0) == ([], [])
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.stdout.close()


def test_resume_refused_without_flag(experiment_dict, tmp_path):
    """An existing journal is never silently overwritten: the CLI-facing
    entrypoint demands an explicit --resume."""
    config = _scratch_config(experiment_dict)
    spec = run_experiment(config, checkpoint_dir=tmp_path)  # leaves a journal
    assert (tmp_path / "checkpoint" / "checkpoint.json").is_file()
    with pytest.raises(FileExistsError, match="--resume"):
        run_experiment(config, checkpoint_dir=tmp_path)
    del spec


# --------------------------------------------------------------------------
# serving pool: a worker crashed or wedged with a dispatch in flight
# --------------------------------------------------------------------------


def _wait_until_ok(pool, timeout=60.0):
    deadline = time.monotonic() + timeout
    while pool.healthz()["status"] != "ok":
        if time.monotonic() > deadline:
            pytest.fail(f"pool never recovered: {pool.healthz()}")
        time.sleep(0.1)


def test_serving_pool_evicts_hung_worker(saved_artifact, serial_result, monkeypatch, shm_sweep):
    """A serving worker wedged past ``DISPATCH_TIMEOUT`` is SIGKILLed, its
    in-flight request fails promptly (not after the full request timeout),
    and the respawned worker answers bitwise what a single-process predictor
    answers."""
    from repro.api import EnsemblePredictor
    from repro.parallel import serving, supervision
    from repro.parallel.serving import PoolPredictor

    monkeypatch.setenv("REPRO_FAULTS", "serve_hang:times=1:seconds=60")
    monkeypatch.setattr(serving, "DISPATCH_TIMEOUT", 1.0)
    monkeypatch.setattr(supervision, "RESTART_BACKOFF", 1.0)
    monkeypatch.setattr(PoolPredictor, "REQUEST_TIMEOUT", 120.0)
    hangs_before = _counter("repro_serve_worker_hangs_total")
    x = serial_result.dataset.x_test[:8]
    expected = EnsemblePredictor.load(saved_artifact).predict_proba(x)

    with PoolPredictor(saved_artifact, workers=1) as pool:
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="worker 0 died"):
            pool.predict(x)
        # Failed via the dispatch deadline, far below the request timeout.
        assert time.monotonic() - start < 30
        # The respawned worker must not inherit the fault.
        monkeypatch.delenv("REPRO_FAULTS")
        assert _counter("repro_serve_worker_hangs_total") >= hangs_before + 1

        _wait_until_ok(pool)
        np.testing.assert_array_equal(pool.predict_proba(x), expected)
        assert pool.healthz()["restarts"] >= 1


def test_serving_worker_crash_mid_dispatch_recovers(
    saved_artifact, serial_result, monkeypatch, shm_sweep
):
    """SIGKILL the worker while it holds a dispatch: the pool must fail the
    request promptly, respawn the worker and serve answers bitwise equal to
    a single-process predictor's from the respawn."""
    from repro.api import EnsemblePredictor
    from repro.parallel import serving, supervision
    from repro.parallel.serving import PoolPredictor

    monkeypatch.setenv("REPRO_FAULTS", "serve_crash:times=1")
    monkeypatch.setattr(supervision, "RESTART_BACKOFF", 0.5)
    monkeypatch.setattr(serving, "SUPERVISE_INTERVAL", 0.05)
    monkeypatch.setattr(PoolPredictor, "REQUEST_TIMEOUT", 120.0)
    x = serial_result.dataset.x_test[:8]
    expected = EnsemblePredictor.load(saved_artifact).predict_proba(x)

    with PoolPredictor(saved_artifact, workers=1) as pool:
        first = pool._slots[0].process
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="worker 0"):
            pool.predict_proba(x)
        assert time.monotonic() - start < 30  # failed at death, not timeout
        monkeypatch.delenv("REPRO_FAULTS")

        _wait_until_ok(pool)
        assert pool._slots[0].process is not first
        with pool._lock:
            assert pool._requests == {} and pool._slots[0].load == 0
        np.testing.assert_array_equal(pool.predict_proba(x), expected)
        assert pool.healthz()["restarts"] >= 1


def test_a_serving_worker_wedged_holding_a_dispatch_is_evicted(
    saved_artifact, serial_result, monkeypatch, shm_sweep
):
    """A worker wedged past ``DISPATCH_TIMEOUT`` while it holds a dispatch
    (its rows travel inline in the queue entry; no shared-memory slot is
    involved) is SIGKILLed by a fast supervisor and replaced: the request
    fails promptly, the pool keeps no trace of it and the respawn answers
    bitwise like a single-process predictor."""
    from repro.api import EnsemblePredictor
    from repro.parallel import serving, supervision
    from repro.parallel.serving import PoolPredictor

    monkeypatch.setenv("REPRO_FAULTS", "serve_hang:times=1:seconds=60")
    monkeypatch.setattr(serving, "DISPATCH_TIMEOUT", 1.0)
    monkeypatch.setattr(supervision, "RESTART_BACKOFF", 0.5)
    monkeypatch.setattr(serving, "SUPERVISE_INTERVAL", 0.05)
    monkeypatch.setattr(PoolPredictor, "REQUEST_TIMEOUT", 120.0)
    hangs_before = _counter("repro_serve_worker_hangs_total")
    x = serial_result.dataset.x_test[:8]
    expected = EnsemblePredictor.load(saved_artifact).predict_proba(x)

    with PoolPredictor(saved_artifact, workers=1) as pool:
        first = pool._slots[0].process
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="worker 0 died"):
            pool.predict_proba(x)
        assert time.monotonic() - start < 30
        monkeypatch.delenv("REPRO_FAULTS")
        assert _counter("repro_serve_worker_hangs_total") >= hangs_before + 1

        _wait_until_ok(pool)
        assert pool._slots[0].process is not first
        with pool._lock:
            assert pool._requests == {} and pool._slots[0].load == 0
        np.testing.assert_array_equal(pool.predict_proba(x), expected)
        assert pool.healthz()["restarts"] >= 1

"""Chaos tests for the queue tier: a fleet consumer is crash-injected
(SIGKILL, no cleanup) mid-stream, or wedged mid-job; the broker must
redeliver its jobs to the surviving consumer and every request must be
answered bitwise identically to the single-process predictor — zero dropped
requests.

The consumers run as real processes — ``repro fleet-worker`` ones attached
from outside, or the front's own supervision-table children — because the
``crash`` fault action kills its whole process, exactly like an OOM kill —
which is also why every fault here names its consumer: an unqualified crash
would fire in the front's own consumer, ``front-0``, and kill the front.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import EnsemblePredictor
from repro.fleet import FleetConsumer, FleetFront
from repro.fleet import front as front_module
from repro.fleet.broker import _JOBS
from tests.procs import child_pids, is_running, residue, shm_entries

REPO_ROOT = Path(__file__).resolve().parents[2]


def _spawn_worker(broker_address, artifact, consumer_id, faults=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["OMP_NUM_THREADS"] = "1"
    env.pop("REPRO_FAULTS", None)
    if faults is not None:
        env["REPRO_FAULTS"] = faults
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "fleet-worker",
            "--broker",
            f"{broker_address[0]}:{broker_address[1]}",
            "--artifact",
            str(artifact),
            "--consumer-id",
            consumer_id,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    banner = json.loads(proc.stdout.readline())
    assert banner["event"] == "fleet-worker"
    assert banner["consumer"] == consumer_id
    return proc


def test_consumer_crash_redelivers_with_zero_dropped_requests(
    saved_artifact, serial_result
):
    reference = EnsemblePredictor.load(saved_artifact)
    x = serial_result.dataset.x_test

    front = FleetFront(
        saved_artifact,
        visibility_timeout=1.5,
        spawn_local=False,
        min_consumers=1,
        max_consumers=2,
    )
    chaos = survivor = None
    try:
        # The chaos consumer answers 3 jobs, then SIGKILLs itself on its 4th
        # lease — while holding that lease, the worst moment to die.
        chaos = _spawn_worker(
            front.broker_address,
            saved_artifact,
            "chaos",
            faults="fleet_consume_crash:consumer=chaos:after=3",
        )
        survivor = _spawn_worker(front.broker_address, saved_artifact, "survivor")
        deadline = time.monotonic() + 60
        while front.broker.consumer_count() < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert front.broker.consumer_count() == 2
        # A consumer is one process: no pool worker, no arena, no tracker.
        assert child_pids(chaos.pid) == [] and child_pids(survivor.pid) == []
        shm_before = shm_entries()

        # 16 jobs on one queue both consumers lease from: the chaos consumer
        # sees ~8 of them, so it cannot survive the stream.
        batches = [x[i * 4 : i * 4 + 4] for i in range(16)]
        job_ids = [front.submit(batch) for batch in batches]
        results = [front.result(job_id, timeout=120) for job_id in job_ids]

        # Zero dropped requests, all bitwise identical.
        for batch, proba in zip(batches, results):
            assert np.array_equal(proba, reference.predict_proba(batch))

        # The crash actually happened and the broker actually redelivered.
        assert chaos.wait(timeout=30) == -signal.SIGKILL
        assert front.broker.redeliveries() >= 1
        # The crashed consumer ran no cleanup and had nothing to clean.
        assert not shm_entries() - shm_before
        stats = front.broker.stats()
        assert stats["depth"] == 0 and stats["inflight"] == 0
    finally:
        for proc in (chaos, survivor):
            if proc is not None and proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in (chaos, survivor):
            if proc is not None:
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=10)
        front.close()


def test_fleet_worker_drains_cleanly_on_sigterm(saved_artifact, serial_result):
    front = FleetFront(saved_artifact, spawn_local=False)
    worker = None
    try:
        worker = _spawn_worker(front.broker_address, saved_artifact, "drainer")
        proba = front.predict_proba(serial_result.dataset.x_test[:4], timeout=60)
        assert proba.shape == (4, 4)
        worker.send_signal(signal.SIGTERM)
        out, _ = worker.communicate(timeout=60)
        assert worker.returncode == 0
        assert json.loads(out.strip().splitlines()[-1]) == {
            "event": "stopped",
            "consumer": "drainer",
        }
        # A clean drain detaches from the broker.
        assert front.broker.consumer_count() == 0
    finally:
        if worker is not None and worker.poll() is None:
            worker.kill()
            worker.wait(timeout=10)
        front.close()


def test_a_wedged_local_consumer_is_killed_and_replaced(
    saved_artifact, serial_result, monkeypatch
):
    """A local consumer hung mid-job holds no child to time out: the broker
    detaches it once it misses its consumer deadline, the survivors answer
    the redelivered job bitwise — once — and the front SIGKILLs the wedged
    process and relaunches a successor in its place.  Three consumers:
    ``front-0`` in the front's process and two subprocesses."""
    # Inherited by the consumers the front spawns; local-0 wedges.  Every
    # other consumer (front-0 too: it reads this process's plan) holds each
    # job 0.3 s, so the in-process front-0 cannot drain the queue before
    # local-0 leases a job — with 8 jobs and 3 consumers, local-0 gets one.
    monkeypatch.setenv(
        "REPRO_FAULTS",
        "fleet_consume_hang:consumer=local-0:seconds=600,fleet_consume_hang:seconds=0.3",
    )
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    reference = EnsemblePredictor.load(saved_artifact)
    x = serial_result.dataset.x_test
    completed = _JOBS.labels("completed").value
    duplicates = _JOBS.labels("duplicate_ack").value
    shm_before = shm_entries()
    monkeypatch.setattr(front_module, "RECONCILE_INTERVAL", 0.1)
    front = FleetFront(
        saved_artifact,
        visibility_timeout=1.0,
        min_consumers=3,
        max_consumers=3,
    )
    pids = []
    try:
        front.wait_ready(timeout=120)
        local = {slot.consumer_id: slot.process.pid for slot in front._table.slots}
        wedged = local["local-0"]
        pids = list(local.values())
        assert [child_pids(pid) for pid in pids] == [[], []]

        # All consumers lease from the one queue: local-0 takes a job and hangs.
        batches = [x[i * 4 : i * 4 + 4] for i in range(8)]
        job_ids = [front.submit(batch) for batch in batches]
        results = [front.result(job_id, timeout=120) for job_id in job_ids]
        for batch, proba in zip(batches, results):
            assert np.array_equal(proba, reference.predict_proba(batch))
        assert front.broker.redeliveries() >= 1
        assert _JOBS.labels("completed").value - completed == len(batches)
        assert _JOBS.labels("duplicate_ack").value == duplicates

        deadline = time.monotonic() + 60
        while True:
            fleet = front.local_consumers()
            if (
                wedged not in fleet["pids"]
                and fleet["running"] == 3
                and front.broker.consumer_count() == 3
            ):
                break
            assert time.monotonic() < deadline, fleet
            time.sleep(0.1)
        assert not is_running(wedged)
        pids += fleet["pids"]
    finally:
        front.close()
    assert residue(pids, shm_before, timeout=5.0) == ([], [])


def test_a_wedged_front_consumer_is_retired_and_replaced(
    saved_artifact, serial_result, monkeypatch
):
    """``front-0`` hung mid-job is a thread, not a process to SIGKILL: once
    the broker detaches it for silence the front retires it (no more
    leases) and launches a subprocess in its place, while the survivor
    answers the redelivered job bitwise — once."""
    # front-0 (this process) wedges; the spawned consumers hold each job
    # 0.3 s, so they cannot drain the queue before front-0 leases a job.
    monkeypatch.setenv(
        "REPRO_FAULTS",
        "fleet_consume_hang:consumer=front-0:seconds=600,fleet_consume_hang:seconds=0.3",
    )
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    reference = EnsemblePredictor.load(saved_artifact)
    x = serial_result.dataset.x_test
    completed = _JOBS.labels("completed").value
    duplicates = _JOBS.labels("duplicate_ack").value
    shm_before = shm_entries()
    monkeypatch.setattr(front_module, "RECONCILE_INTERVAL", 0.1)
    front = FleetFront(
        saved_artifact,
        visibility_timeout=1.0,
        min_consumers=2,
        max_consumers=2,
    )
    pids = []
    try:
        front.wait_ready(timeout=120)
        pids = front.local_consumers()["pids"]
        batches = [x[i * 4 : i * 4 + 4] for i in range(8)]
        job_ids = [front.submit(batch) for batch in batches]
        results = [front.result(job_id, timeout=120) for job_id in job_ids]
        for batch, proba in zip(batches, results):
            assert np.array_equal(proba, reference.predict_proba(batch))
        assert front.broker.redeliveries() >= 1
        assert _JOBS.labels("completed").value - completed == len(batches)
        assert _JOBS.labels("duplicate_ack").value == duplicates

        deadline = time.monotonic() + 60
        while True:
            fleet = front.local_consumers()
            # Two subprocesses and nothing else running: front-0 is retired.
            if fleet["running"] == len(fleet["pids"]) == 2 and front.broker.consumer_count() == 2:
                break
            assert time.monotonic() < deadline, fleet
            time.sleep(0.1)
        assert "front-0" not in front.broker.stats()["consumers"]
        pids = fleet["pids"]
        assert [child_pids(pid) for pid in pids] == [[], []]
        # The fleet keeps answering without consumer 0.
        assert np.array_equal(front.predict_proba(x[:4], timeout=60), reference.predict_proba(x[:4]))
    finally:
        front.close()
    assert residue(pids, shm_before, timeout=5.0) == ([], [])


def test_a_sync_call_wedged_on_its_own_thread_returns_while_the_lane_is_replaced(
    saved_artifact, serial_result, monkeypatch
):
    """What inline answering gives up: a sync call that ``front-0``'s idle
    lane answers on the caller's thread is not redelivered *to that caller*
    if its forward wedges — it returns, bitwise, when its own forward does.
    Meanwhile nothing else waits on it: ``front-0``'s thread stops calling
    in (it waits for the lane), the broker reaps the lane and redelivers the
    job, the front retires ``front-0`` and a subprocess takes its place, and
    requests queued meanwhile are answered by it."""
    hang = 8.0
    monkeypatch.setenv("REPRO_FAULTS", f"fleet_consume_hang:consumer=front-0:seconds={hang}")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    answered = []
    real_answer = FleetConsumer.answer

    def recording_answer(self, job, deliver=True):
        answered.append((self.consumer_id, threading.current_thread().name))
        return real_answer(self, job, deliver=deliver)

    monkeypatch.setattr(FleetConsumer, "answer", recording_answer)
    reference = EnsemblePredictor.load(saved_artifact)
    x = serial_result.dataset.x_test
    inline = _JOBS.labels("inline").value
    shm_before = shm_entries()
    monkeypatch.setattr(front_module, "RECONCILE_INTERVAL", 0.1)
    front = FleetFront(
        saved_artifact,
        visibility_timeout=1.0,
        min_consumers=1,
        max_consumers=1,
    )
    pids = []
    try:
        front.wait_ready(timeout=10)
        outcome = {}

        def call():
            outcome["proba"] = front.predict_proba(x[:4], timeout=60)

        caller = threading.Thread(target=call, name="wedged-caller")
        started = time.monotonic()
        caller.start()
        deadline = started + 60
        while "front-0" in front.broker.stats()["consumers"] or front._front_consumer is not None:
            assert time.monotonic() < deadline, front.broker.stats()
            time.sleep(0.05)
        # Retired while the call is still in its own forward.
        assert caller.is_alive() and time.monotonic() - started < hang
        assert answered == [("front-0", "wedged-caller")]
        assert _JOBS.labels("inline").value == inline + 1
        # Queued meanwhile: answered by the replacement, not by front-0.
        batches = [x[4 + i : 6 + i] for i in range(3)]
        job_ids = [front.submit(batch) for batch in batches]
        for batch, job_id in zip(batches, job_ids):
            assert np.array_equal(front.result(job_id, timeout=120), reference.predict_proba(batch))
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert np.array_equal(outcome["proba"], reference.predict_proba(x[:4]))
        assert front.broker.redeliveries() >= 1
        fleet = front.local_consumers()
        assert fleet["running"] == len(fleet["pids"]) == 1
        pids = fleet["pids"]
        # No front-0 any more: sync calls queue for the subprocess.
        proba = front.predict_proba(x[:4], timeout=60)
        assert np.array_equal(proba, reference.predict_proba(x[:4]))
        assert _JOBS.labels("inline").value == inline + 1
        assert answered == [("front-0", "wedged-caller")]
    finally:
        front.close()
    assert residue(pids, shm_before, timeout=5.0) == ([], [])

"""The supervision core by itself (slot table, backoff), then the self-healing
serving pool on top of it: worker death detection, respawn with bounded
backoff, health degradation and recovery, and no process / shared-memory
leaks across a crash-and-recover cycle."""

import multiprocessing as mp
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.api import EnsemblePredictor
from repro.parallel import ParallelExecutor, PoolPredictor
from repro.parallel.supervision import Slot, SlotTable, backoff_delay
from tests.procs import echo_worker, shm_entries


def _wait_for(predicate, timeout, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _assert_no_residue(processes):
    assert not set(processes) & set(mp.active_children())
    if sys.platform.startswith("linux"):
        assert [f for f in os.listdir("/dev/shm") if f.startswith("repro-shm")] == []


def test_sigkilled_worker_is_respawned_and_capacity_restored(
    saved_artifact, serial_result
):
    """SIGKILL one of two workers: healthz must degrade during the gap, the
    supervisor must respawn the worker, and full capacity must return — with
    predictions still bitwise identical to the single-process facade."""
    pool = PoolPredictor(
        saved_artifact,
        workers=2,
        max_wait_ms=1.0,
        restart_backoff=0.1,
        supervise_interval=0.05,
    )
    reference = EnsemblePredictor.load(saved_artifact)
    x = serial_result.dataset.x_test
    try:
        assert pool.healthz()["status"] == "ok"
        np.testing.assert_array_equal(pool.predict_proba(x), reference.predict_proba(x))

        victim = pool._slots[0].process
        victim.kill()
        victim.join(timeout=10)

        # The gap: below capacity until the respawned worker is warm.
        assert _wait_for(lambda: pool.healthz()["status"] == "degraded", timeout=10.0)
        degraded = pool.healthz()
        assert degraded["alive_workers"] == 1
        assert degraded["workers"] == 2

        # Recovery: supervisor respawns from the artifact dir and healthz
        # returns to ok once the new predictor is loaded.
        assert _wait_for(lambda: pool.healthz()["status"] == "ok", timeout=60.0)
        recovered = pool.healthz()
        assert recovered["alive_workers"] == 2
        assert recovered["restarts"] >= 1
        assert pool.info()["restarts"] >= 1
        new_pid = pool._slots[0].process.pid
        assert new_pid is not None and new_pid != victim.pid

        # The restored pool serves, and answers stay bitwise identical.
        np.testing.assert_array_equal(
            pool.predict_proba(x[:16]), reference.predict_proba(x[:16])
        )
    finally:
        processes = [slot.process for slot in pool._slots]
        pool.close()
    assert all(not p.is_alive() for p in processes)
    _assert_no_residue(processes)


def test_single_worker_pool_survives_kill_and_serves_during_recovery(
    saved_artifact, serial_result
):
    """workers=1: the kill takes the pool to 'down'; a predict issued during
    the gap waits for the respawn (worker_wait) instead of failing, and the
    pool comes back to 'ok'."""
    pool = PoolPredictor(
        saved_artifact,
        workers=1,
        max_wait_ms=0.0,
        restart_backoff=0.1,
        supervise_interval=0.05,
        worker_wait=120.0,
    )
    reference = EnsemblePredictor.load(saved_artifact)
    x = serial_result.dataset.x_test[:8]
    try:
        pool._slots[0].process.kill()
        pool._slots[0].process.join(timeout=10)
        assert _wait_for(lambda: pool.healthz()["status"] == "down", timeout=10.0)
        # Dispatch during the outage: held until the respawned worker loads.
        np.testing.assert_array_equal(pool.predict_proba(x), reference.predict_proba(x))
        assert _wait_for(lambda: pool.healthz()["status"] == "ok", timeout=60.0)
        assert pool.healthz()["restarts"] >= 1
    finally:
        processes = [slot.process for slot in pool._slots]
        pool.close()
    _assert_no_residue(processes)


def test_repeated_kills_bounded_backoff_and_recovery(saved_artifact, serial_result):
    """Kill the same worker twice: the supervisor keeps respawning (backoff
    grows but stays bounded) and the pool ends at full capacity."""
    pool = PoolPredictor(
        saved_artifact,
        workers=2,
        max_wait_ms=1.0,
        restart_backoff=0.05,
        restart_backoff_max=0.2,
        supervise_interval=0.05,
    )
    try:
        for _ in range(2):
            pool._slots[0].process.kill()
            pool._slots[0].process.join(timeout=10)
            assert _wait_for(lambda: pool.healthz()["status"] == "ok", timeout=60.0)
        assert pool.healthz()["restarts"] >= 2
        x = serial_result.dataset.x_test[:4]
        assert pool.predict(x).shape == (4,)
    finally:
        processes = [slot.process for slot in pool._slots]
        pool.close()
    _assert_no_residue(processes)


def test_backoff_schedule_is_bounded():
    """The per-attempt backoff doubles from restart_backoff and saturates at
    restart_backoff_max (the 'bounded restart backoff' contract)."""
    base, cap = 0.5, 30.0
    delays = [backoff_delay(failures, base, cap) for failures in range(12)]
    assert delays[:3] == [base, 2 * base, 4 * base]
    assert all(later >= earlier for earlier, later in zip(delays, delays[1:]))
    assert delays[-1] == cap
    assert max(delays) <= cap
    assert backoff_delay(10**6, base, cap) == cap  # a streak of days cannot overflow


def test_slot_table_life_cycle_without_a_pool():
    """spawn -> ready -> evict -> not due before / due after the backoff ->
    respawn on *different* queue objects -> healthy starts the delay over;
    stop is graceful, close leaves no queue."""
    table = SlotTable(
        mp.get_context("spawn"), [Slot(0)], echo_worker, "test-slot", backoff=0.2, backoff_max=0.5
    )
    (slot,) = table.slots
    assert (slot.state, slot.process, table.due(time.monotonic())) == ("down", None, [])

    def next_message():
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            messages = table.poll(0.5)
            if messages:
                return messages
        raise AssertionError("worker never answered")

    try:
        table.spawn(slot, "hello")
        assert slot.state == "starting" and slot.process.name == "test-slot-0"
        assert next_message() == [("ready", 0, "hello")]
        slot.state = "ready"  # the owner's move, on the handshake
        slot.request_queue.put("ping")
        assert next_message() == [("result", 0, "ping")]

        # Evicting a live (wedged) worker kills it; the first delay is the base.
        first = slot.process, slot.request_queue, slot.result_queue
        exitcode, backoff = table.evict(slot)
        assert (exitcode, backoff) == (-signal.SIGKILL, 0.2)
        assert (slot.state, slot.failures) == ("down", 1)
        assert table.due(slot.down_until - 0.01) == []
        assert table.due(slot.down_until) == [slot]

        # The successor never touches the predecessor's (possibly poisoned) queues.
        table.spawn(slot, "again")
        assert slot.process is not first[0] and slot.down_until is None
        assert slot.request_queue is not first[1] and slot.result_queue is not first[2]
        assert first[1]._closed and first[2]._closed
        assert next_message() == [("ready", 0, "again")]

        # Consecutive failures double the delay up to the cap ...
        assert table.evict(slot)[1] == 0.4
        assert table.evict(slot)[1] == 0.5
        # ... and a worker that proved itself starts it over.
        table.mark_healthy(slot)
        assert table.evict(slot)[1] == 0.2

        table.spawn(slot, "last")
        assert next_message() == [("ready", 0, "last")]
        slot.state = "ready"
        slot.request_queue.put("pending work is finished before the sentinel")
    finally:
        table.stop(table.slots)
        answered = table.poll(0)
        table.close()
    assert answered == [("result", 0, "pending work is finished before the sentinel")]
    assert slot.process.exitcode == 0 and slot.state == "down"
    assert slot.request_queue is None and slot.result_queue is None


class _FakeProcess:
    """What ``SlotTable.stop`` uses of a process, recording what it was told."""

    def __init__(self):
        self.calls = []
        self.exitcode = None

    def is_alive(self):
        return self.exitcode is None

    def kill(self):
        self.calls.append("kill")
        self.exitcode = -signal.SIGKILL

    def join(self, timeout=None):
        self.calls.append("join")
        if "sentinel" in self.calls:
            self.exitcode = 0


class _FakeQueue:
    def __init__(self, process):
        self.process = process

    def put(self, item):
        assert item is None
        self.process.calls.append("sentinel")

    def close(self):
        pass

    join_thread = close


@pytest.mark.parametrize(
    "state, graceful, told",
    [
        ("ready", True, ["sentinel", "join"]),
        ("draining", True, ["sentinel", "join"]),
        # Owners dispatch to ready slots only: a booting worker holds no work,
        # and the sentinel would wait out the rest of its boot.
        ("starting", True, ["kill", "join"]),
        ("starting", False, ["kill", "join"]),
        ("ready", False, ["kill", "join"]),
    ],
)
def test_stop_kills_a_worker_that_is_still_starting(state, graceful, told):
    process = _FakeProcess()
    slot = Slot(0, process=process, request_queue=_FakeQueue(process), state=state,
                down_until=123.0)
    owner_filled = Slot(1, state="ready")  # no process: not the table's to stop
    table = SlotTable(None, [slot, owner_filled], echo_worker, "fake")
    table.stop(table.slots, graceful=graceful)
    assert process.calls == told
    assert (slot.state, slot.down_until) == ("down", None)
    assert owner_filled.state == "ready"
    table.close()
    assert slot.request_queue is None


def test_a_worker_that_cannot_start_raises_its_own_error(saved_artifact, monkeypatch):
    """``Process.start`` failing (a script without a ``__main__`` guard, no
    fork left) must reach the caller as itself — not as the ``can only join a
    started process`` of a cleanup that trips over the unstarted process —
    and leave no thread, process or ``/dev/shm`` entry behind, from either
    owner of a slot table."""
    from multiprocessing.context import SpawnProcess

    def refuse(self):
        raise OSError("cannot start a worker here")

    threads_before = set(threading.enumerate())
    shm_before = shm_entries()
    monkeypatch.setattr(SpawnProcess, "start", refuse)
    with pytest.raises(OSError, match="cannot start a worker here"):
        PoolPredictor(saved_artifact, workers=2)
    data = {"x": np.zeros((8, 3), dtype=np.float32), "y": np.zeros(8, dtype=np.int64)}
    with pytest.raises(OSError, match="cannot start a worker here"):
        ParallelExecutor(data, workers=2).train([])
    assert mp.active_children() == []
    assert _wait_for(lambda: set(threading.enumerate()) <= threads_before, timeout=10.0), (
        set(threading.enumerate()) - threads_before
    )
    assert shm_entries() == shm_before


def test_pool_validation_of_supervisor_parameters(saved_artifact):
    with pytest.raises(ValueError):
        PoolPredictor(saved_artifact, restart_backoff=0.0)
    with pytest.raises(ValueError):
        PoolPredictor(saved_artifact, restart_backoff=2.0, restart_backoff_max=1.0)
    with pytest.raises(ValueError):
        PoolPredictor(saved_artifact, supervise_interval=0.0)

"""The supervision core by itself (slot table, backoff), then the self-healing
serving pool on top of it: worker death detection, respawn with bounded
backoff, health degradation and recovery, and no process / shared-memory
leaks across a crash-and-recover cycle."""

import logging
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.api import EnsemblePredictor
from repro.parallel import ParallelExecutor, PoolPredictor, serving, supervision
from repro.parallel.supervision import Slot, SlotTable, backoff_delay
from tests.procs import echo_worker, shm_entries, worker_processes


def _wait_for(predicate, timeout, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _assert_no_residue(processes):
    assert not {p.pid for p in processes} & set(worker_processes().values())
    if sys.platform.startswith("linux"):
        assert [f for f in os.listdir("/dev/shm") if f.startswith("repro-shm")] == []


def test_sigkilled_worker_is_respawned_and_capacity_restored(
    saved_artifact, serial_result, monkeypatch, train_events
):
    """SIGKILL one of two workers: healthz must degrade during the gap, the
    supervisor must respawn the worker, and full capacity must return — with
    predictions still bitwise identical to the single-process facade.  The
    death is one record on the ``repro`` loggers, the event, at level error,
    and its respawn waits the first step of the one backoff schedule."""
    monkeypatch.setattr(supervision, "RESTART_BACKOFF", 0.1)
    monkeypatch.setattr(serving, "SUPERVISE_INTERVAL", 0.05)
    pool = PoolPredictor(saved_artifact, workers=2, max_wait_ms=1.0)
    reference = EnsemblePredictor.load(saved_artifact)
    x = serial_result.dataset.x_test
    records = []

    class Capture(logging.Handler):
        def emit(self, record):
            records.append(record)

    repro_root, capture = logging.getLogger("repro"), Capture()
    try:
        assert pool.healthz()["status"] == "ok"
        np.testing.assert_array_equal(pool.predict_proba(x), reference.predict_proba(x))

        victim = pool._slots[0].process
        repro_root.addHandler(capture)
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
        died = [r for r in records if "died" in r.getMessage()]
        assert [(r.getMessage(), r.levelname) for r in died] == [("serve.worker_died", "ERROR")]
        (fields,) = [f for event, f in train_events if event == "serve.worker_died"]
        assert fields["restart_in_seconds"] == backoff_delay(0)
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
        repro_root.removeHandler(capture)
        processes = [slot.process for slot in pool._slots]
        pool.close()
    assert all(not p.is_alive() for p in processes)
    _assert_no_residue(processes)


def test_single_worker_pool_survives_kill_and_serves_during_recovery(
    saved_artifact, serial_result, monkeypatch
):
    """workers=1: the kill takes the pool to 'down'; a predict issued during
    the gap waits for the respawn (WORKER_WAIT) instead of failing, and the
    pool comes back to 'ok'."""
    monkeypatch.setattr(supervision, "RESTART_BACKOFF", 0.1)
    monkeypatch.setattr(serving, "SUPERVISE_INTERVAL", 0.05)
    monkeypatch.setattr(serving, "WORKER_WAIT", 120.0)
    pool = PoolPredictor(saved_artifact, workers=1, max_wait_ms=0.0)
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


def test_repeated_kills_bounded_backoff_and_recovery(saved_artifact, serial_result, monkeypatch):
    """Kill the same worker twice: the supervisor keeps respawning (backoff
    grows but stays bounded) and the pool ends at full capacity."""
    monkeypatch.setattr(supervision, "RESTART_BACKOFF", 0.05)
    monkeypatch.setattr(supervision, "RESTART_BACKOFF_MAX", 0.2)
    monkeypatch.setattr(serving, "SUPERVISE_INTERVAL", 0.05)
    pool = PoolPredictor(saved_artifact, workers=2, max_wait_ms=1.0)
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


def test_a_stopped_worker_holding_a_large_dispatch_is_evicted_while_healthz_answers(
    saved_artifact, serial_result, monkeypatch
):
    """SIGSTOP the only worker, then send it a dispatch over 1 MB: the loop
    leaves what the pipe does not take in the outbox instead of blocking on
    it, so ``healthz()`` keeps answering within 1 s, the wedged worker is
    evicted at ``DISPATCH_TIMEOUT`` — its client fails promptly — and the
    respawn answers bitwise."""
    monkeypatch.setattr(serving, "DISPATCH_TIMEOUT", 1.0)
    monkeypatch.setattr(supervision, "RESTART_BACKOFF", 0.1)
    monkeypatch.setattr(serving, "SUPERVISE_INTERVAL", 0.05)
    monkeypatch.setattr(PoolPredictor, "REQUEST_TIMEOUT", 60.0)
    pool = PoolPredictor(saved_artifact, workers=1)
    reference = EnsemblePredictor.load(saved_artifact)
    x = serial_result.dataset.x_test
    rows = np.tile(x, (-(-(1 << 20) // x.nbytes) + 1, 1))
    assert rows.nbytes > 1 << 20
    try:
        victim = pool._slots[0]
        os.kill(victim.process.pid, signal.SIGSTOP)
        with ThreadPoolExecutor(max_workers=1) as client:
            start = time.monotonic()
            answer = client.submit(pool.predict_proba, rows)
            assert _wait_for(lambda: victim.load > 0, timeout=10.0, interval=0.01)
            slowest = 0.0
            while not answer.done():
                asked = time.monotonic()
                pool.healthz()
                slowest = max(slowest, time.monotonic() - asked)
                time.sleep(0.02)
            with pytest.raises(RuntimeError, match="worker 0 died"):
                answer.result()
        assert 1.0 <= time.monotonic() - start < 10.0
        assert slowest < 1.0
        assert _wait_for(lambda: pool.healthz()["status"] == "ok", timeout=60.0)
        np.testing.assert_array_equal(pool.predict_proba(x[:8]), reference.predict_proba(x[:8]))
    finally:
        processes = [slot.process for slot in pool._slots]
        pool.close()
    _assert_no_residue(processes)


def test_a_worker_another_thread_reaped_reads_dead():
    """Liveness is read off the process's pidfd.  ``Process.is_alive()`` of a
    child another thread has just reaped reads *alive* (its ``waitpid`` gets
    ``ECHILD``): the pool's loop and a caller joining a killed worker raced
    so, and ``healthz()`` said "ok" before the respawn was counted.  The
    table's handle reads the death whoever reaped it, and ``join`` /
    ``exitcode`` after that reap neither hang nor raise."""
    process = supervision.Child(
        "test-reaped",
        [sys.executable, "-c", "import time; time.sleep(60)"],
        (),
        os.open(os.devnull, os.O_RDONLY),
    )
    slot = Slot(0, process=process, state="ready")
    assert slot.alive and process.is_alive()
    process.kill()
    os.waitpid(process.pid, 0)  # the other thread's reap
    assert not slot.alive and not process.is_alive()
    process.join(timeout=5)
    process.kill()  # reaped already: nothing to signal, and no error


def test_backoff_schedule_is_bounded(monkeypatch):
    """The per-attempt backoff doubles from RESTART_BACKOFF and saturates at
    RESTART_BACKOFF_MAX (the 'bounded restart backoff' contract), both read
    when a delay is asked for."""
    base, cap = 0.5, 30.0
    monkeypatch.setattr(supervision, "RESTART_BACKOFF", base)
    monkeypatch.setattr(supervision, "RESTART_BACKOFF_MAX", cap)
    delays = [backoff_delay(failures) for failures in range(12)]
    assert delays[:3] == [base, 2 * base, 4 * base]
    assert all(later >= earlier for earlier, later in zip(delays, delays[1:]))
    assert delays[-1] == cap
    assert max(delays) <= cap
    assert backoff_delay(10**6) == cap  # a streak of days cannot overflow


def test_slot_table_life_cycle_without_a_pool(monkeypatch):
    """spawn -> ready -> evict -> not due before / due after the backoff ->
    respawn on *different* pipes -> healthy starts the delay over; stop is
    graceful, close leaves no pipe."""
    monkeypatch.setattr(supervision, "RESTART_BACKOFF", 0.2)
    monkeypatch.setattr(supervision, "RESTART_BACKOFF_MAX", 0.5)
    table = SlotTable([Slot(0)], echo_worker, "test-slot")
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
        assert table.send(slot, "ping") > len("ping")  # the frame's bytes
        reply = next_message()
        assert reply == [("result", 0, "ping")]
        assert reply[0].nbytes == len(supervision.encode(("result", 0, "ping")))

        # Evicting a live (wedged) worker kills it; the first delay is the base.
        first = slot.process, slot.channel
        exitcode, backoff = table.evict(slot)
        assert (exitcode, backoff) == (-signal.SIGKILL, 0.2)
        assert (slot.state, slot.failures, slot.channel) == ("down", 1, None)
        assert first[1].fileno() is None and first[1].request_fd is None
        assert table.due(slot.down_until - 0.01) == []
        assert table.due(slot.down_until) == [slot]

        # The successor never sees what was left on the predecessor's pipes.
        table.spawn(slot, "again")
        assert slot.process is not first[0] and slot.down_until is None
        assert slot.channel is not first[1]
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
        table.send(slot, "pending work is finished before the sentinel")
    finally:
        table.stop(table.slots)
        answered = table.poll(0)
        table.close()
    assert answered == [("result", 0, "pending work is finished before the sentinel")]
    assert slot.process.exitcode == 0 and slot.state == "down"
    assert slot.channel is None
    assert worker_processes() == {}


@pytest.mark.parametrize("flag", ["-E", "-I"])
def test_a_worker_finds_its_modules_however_its_owner_did(tmp_path, flag):
    """An owner run with ``python -E`` or ``-I`` ignores ``PYTHONPATH`` and
    finds ``repro`` through a ``sys.path`` it changed at run time; its
    workers, started with the same flags, find the same modules: the path
    travels in the bootstrap frame."""
    root = Path(__file__).resolve().parents[2]
    owner = textwrap.dedent(
        f"""
        import sys, time
        sys.path[:0] = [{str(root / "src")!r}, {str(root)!r}]
        from repro.parallel.supervision import Slot, SlotTable
        from tests.procs import echo_worker
        table = SlotTable([Slot(0)], echo_worker, "test-isolated")
        (slot,) = table.slots
        table.spawn(slot, "hello")
        deadline, messages = time.monotonic() + 60, []
        while not messages and slot.alive and time.monotonic() < deadline:
            messages = table.poll(0.5)
        print(messages)
        table.stop(table.slots)
        table.close()
        """
    )
    done = subprocess.run(
        [sys.executable, flag, "-c", owner],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[('ready', 0, 'hello')]", done.stderr


def test_a_stopped_worker_never_blocks_the_owners_loop(monkeypatch):
    """A SIGSTOPped worker takes nothing off its request pipe: a message
    larger than the pipe waits in the slot's outbox while ``poll`` returns on
    time, ``evict`` kills the worker and drops the outbox with it, and the
    respawn answers on fresh pipes."""
    monkeypatch.setattr(supervision, "RESTART_BACKOFF", 0.05)
    monkeypatch.setattr(supervision, "RESTART_BACKOFF_MAX", 0.05)
    table = SlotTable([Slot(0)], echo_worker, "test-stopped")
    (slot,) = table.slots

    def next_message():
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            messages = table.poll(0.5)
            if messages:
                return messages
        raise AssertionError("worker never answered")

    try:
        table.spawn(slot, "hello")
        assert next_message() == [("ready", 0, "hello")]
        slot.state = "ready"
        os.kill(slot.process.pid, signal.SIGSTOP)
        began = time.monotonic()
        table.send(slot, b"x" * (4 << 20))
        assert time.monotonic() - began < 0.5
        channel = slot.channel
        assert channel.outbox  # the pipe took only part of the frame
        began = time.monotonic()
        assert table.poll(0.1) == []
        assert time.monotonic() - began < 0.5

        exitcode, _ = table.evict(slot)
        assert exitcode == -signal.SIGKILL and not channel.outbox
        assert _wait_for(lambda: table.due(time.monotonic()) == [slot], timeout=5.0)
        table.spawn(slot, "again")
        assert next_message() == [("ready", 0, "again")]
        slot.state = "ready"
        table.send(slot, "ping")
        assert next_message() == [("result", 0, "ping")]
    finally:
        table.stop(table.slots)
        table.close()
    assert worker_processes() == {}


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


class _FakeChannel:
    """The worker leaves once it reads the sentinel."""

    def __init__(self, process):
        self.process = process

    def send(self, item):
        assert item is None
        self.process.calls.append("sentinel")
        self.process.exitcode = 0
        return 0

    def fileno(self):
        return None

    def close(self):
        pass


@pytest.mark.parametrize(
    "state, graceful, told",
    [
        ("ready", True, ["sentinel", "join"]),
        # Owners dispatch to ready slots only: a booting worker holds no work,
        # and the sentinel would wait out the rest of its boot.
        ("starting", True, ["kill", "join"]),
        ("starting", False, ["kill", "join"]),
        ("ready", False, ["kill", "join"]),
    ],
)
def test_stop_kills_a_worker_that_is_still_starting(state, graceful, told):
    process = _FakeProcess()
    slot = Slot(0, process=process, channel=_FakeChannel(process), state=state,
                down_until=123.0)
    owner_filled = Slot(1, state="ready")  # no process: not the table's to stop
    table = SlotTable([slot, owner_filled], echo_worker, "fake")
    table.stop(table.slots, graceful=graceful)
    assert process.calls == told
    assert (slot.state, slot.down_until) == ("down", None)
    assert owner_filled.state == "ready"
    table.close()
    assert slot.channel is None


def test_a_worker_that_cannot_start_raises_its_own_error(saved_artifact, monkeypatch):
    """Starting the process failing (no fork left, no such interpreter) must
    reach the caller as itself — not as the error of a cleanup that trips
    over the unstarted process — and leave no thread, process, pipe, memfd
    or ``/dev/shm`` entry behind, from either owner of a slot table (the
    executor closes its data set's memfd when a spawn fails)."""

    def refuse(*args, **kwargs):
        raise OSError("cannot start a worker here")

    threads_before = set(threading.enumerate())
    shm_before = shm_entries()
    fds_before = set(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(subprocess, "Popen", refuse)
    with pytest.raises(OSError, match="cannot start a worker here"):
        PoolPredictor(saved_artifact, workers=2)
    data = {"x": np.zeros((8, 3), dtype=np.float32), "y": np.zeros(8, dtype=np.int64)}
    with pytest.raises(OSError, match="cannot start a worker here"):
        ParallelExecutor(data, workers=2).train([])
    assert worker_processes() == {}
    assert _wait_for(lambda: set(threading.enumerate()) <= threads_before, timeout=10.0), (
        set(threading.enumerate()) - threads_before
    )
    assert shm_entries() == shm_before
    assert set(os.listdir("/proc/self/fd")) <= fds_before


def test_a_respawn_that_cannot_start_backs_off(saved_artifact, monkeypatch, train_events):
    """A respawn whose process cannot start is a failed attempt like a
    death: the next one waits ``RESTART_BACKOFF`` doubling per attempt — not
    one health check (it used to be retried every ``SUPERVISE_INTERVAL``, a
    fresh arena and a logged traceback each time) — and each failure is a
    ``serve.worker_spawn_failed`` event."""
    attempts = []

    def refuse(*args, **kwargs):
        attempts.append(time.monotonic())
        raise OSError("cannot start a worker here")

    monkeypatch.setattr(supervision, "RESTART_BACKOFF", 0.1)
    monkeypatch.setattr(serving, "SUPERVISE_INTERVAL", 0.05)
    pool = PoolPredictor(saved_artifact, workers=1)
    try:
        monkeypatch.setattr(subprocess, "Popen", refuse)
        victim = pool._slots[0].process
        victim.kill()
        victim.join(timeout=10)
        assert _wait_for(lambda: len(attempts) >= 4, timeout=20.0), attempts
    finally:
        pool.close()
    gaps = [later - earlier for earlier, later in zip(attempts, attempts[1:])]
    assert all(gap >= 0.1 * 2 ** (k + 1) for k, gap in enumerate(gaps)), gaps
    # The death was failure 1; every attempt since is one more.
    assert pool._slots[0].failures == 1 + len(attempts)
    failed = [fields for event, fields in train_events if event == "serve.worker_spawn_failed"]
    assert len(failed) == len(attempts)
    assert [round(fields["restart_in_seconds"], 1) for fields in failed[:3]] == [0.2, 0.4, 0.8]
    assert failed[0]["error"] == "OSError: cannot start a worker here"


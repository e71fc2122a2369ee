"""Lane 0 of a training pool is the calling process.

``ParallelExecutor(workers=N)`` runs N fits at a time of which the caller's own
thread runs one: ready at once, first in dispatch order, reporting into the
same ``poll`` wait set as the N - 1 worker processes, and subject to the same
retry rules — except that a thread cannot be killed, so a fit past its deadline
*retires* the lane instead.  The scenarios below stall or break lane 0's fits
by patching ``executor.fit_task`` (the name the lane resolves; workers import
their own in their own process) and hit workers with signals and
``REPRO_FAULTS``; everything that finishes must be bitwise the in-process fit.
"""

from __future__ import annotations

import os
import signal
import threading

import numpy as np
import pytest

from repro.arch.serialization import spec_to_json
from repro.arch.zoo import mlp_family
from repro.core.trainer import fit_task
from repro.nn.model import Model
from repro.nn.training import TrainingConfig
from repro.parallel import executor
from repro.parallel.executor import MemberTask, ParallelExecutor, _CallerLane, _pop_live
from repro.parallel.supervision import Slot, SlotTable
from tests.procs import echo_worker, worker_processes


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    return {"x": rng.normal(size=(64, 6)).astype(np.float32), "y": rng.integers(0, 3, size=64)}


def _tasks(count):
    """Tiny distinct fits ``t0..``, most urgent first (so ``t0`` is lane 0's)."""
    specs = mlp_family(count=count, input_features=6, num_classes=3, base_width=5, seed=2)
    return [
        MemberTask(
            name=f"t{i}",
            spec_json=spec_to_json(spec),
            config=TrainingConfig(max_epochs=2, batch_size=16),
            train_seed=i,
            init_seed=i,
            priority=float(count - i),
        )
        for i, spec in enumerate(specs)
    ]


def _assert_bitwise(networks, tasks, data):
    assert [net.name for net in networks] == [task.name for task in tasks]
    for net, task in zip(networks, tasks):
        assert isinstance(net.model, Model)
        reference = fit_task(task, data["x"], data["y"]).model.get_weights()
        weights = net.model.get_weights()
        assert weights.keys() == reference.keys()
        for layer in reference:
            for key in reference[layer]:
                np.testing.assert_array_equal(weights[layer][key], reference[layer][key])


def _stalled_fit(monkeypatch):
    """Patch lane 0's ``fit_task`` to wait for the returned event before it
    fits.  Returns ``(names lane 0 started, event)``."""
    started, release = [], threading.Event()

    def fit(task, x, y):
        started.append(task.name)
        assert release.wait(60), "the test never released lane 0"
        return fit_task(task, x, y)

    monkeypatch.setattr(executor, "fit_task", fit)
    return started, release


def _of(train_events, kind):
    return [fields for event, fields in train_events if event == kind]


def _assert_lane_gone(lane):
    """The lane's thread has ended and nothing it posted was left unread."""
    lane._thread.join(timeout=30)
    assert not lane._thread.is_alive()
    assert not lane._messages


# --------------------------------------------------------------------------
# the pieces, without a pool
# --------------------------------------------------------------------------


def test_pop_live_skips_what_a_straggler_already_answered():
    """A free lane gets the most urgent *unanswered* task in the same round,
    however many answered indices sit above it in the heap (it used to sit
    the round out), and an exhausted heap says so."""
    outcomes = ["answered", None, "answered", None]
    pending = [(-9.0, 0), (-5.0, 2), (-3.0, 3), (-1.0, 1)]  # a valid heap: urgent first
    assert _pop_live(pending, outcomes) == 3
    assert pending == [(-1.0, 1)]
    assert _pop_live(pending, outcomes) == 1
    assert _pop_live(pending, outcomes) is None and pending == []
    assert _pop_live([(-1.0, 0)], ["answered"]) is None


def test_lane_reports_through_the_tables_poll_and_carries_no_train_fault(data, monkeypatch):
    """The lane is a channel ``SlotTable.poll`` can wait on next to a
    worker's: its network arrives as an object (a live ``Model``, nothing
    packed), a fit error as an ``error`` message — and a train fault that
    fails every worker attempt does not exist here."""
    monkeypatch.setenv("REPRO_FAULTS", "train_error")
    good, bad = _tasks(2)
    bad.spec_json = "{not json"
    lane = _CallerLane(data["x"], data["y"])
    table = SlotTable([Slot(0, channel=lane, state="ready"), Slot(1)], echo_worker, "test-lane")
    try:
        assert table.poll(0) == []
        assert table.send(table.slots[0], (7, 0, good)) == 0  # nothing is encoded
        table.send(table.slots[0], (8, 1, bad))
        messages = []
        while len(messages) < 2:
            polled = table.poll(30)
            assert polled, "lane 0 never woke the wait"
            messages += polled
        (kind, lane_id, (index, attempt, net, metrics)), failure = messages
        assert (kind, lane_id, index, attempt, metrics) == ("result", 0, 7, 0, None)
        _assert_bitwise([net], [good], data)
        assert failure[:2] == ("error", 0) and failure[2][:2] == (8, 1)
        assert failure[2][2].startswith("JSONDecodeError")
    finally:
        lane.close()
        lane.close()  # idempotent
    _assert_lane_gone(lane)


# --------------------------------------------------------------------------
# the pool
# --------------------------------------------------------------------------


def test_workers_n_starts_n_minus_one_processes(data, train_events):
    tasks = _tasks(3)
    with ParallelExecutor(data, workers=3) as pool:
        networks, _ = pool.train(tasks)
        assert sorted(worker_processes()) == ["repro-train-1", "repro-train-2"]
        lane = pool._lane
    _assert_bitwise(networks, tasks, data)
    ready = _of(train_events, "train.worker_ready")
    assert (ready[0]["worker"], ready[0]["boot_seconds"]) == (0, 0.0)
    first = _of(train_events, "train.task_dispatched")[0]
    assert (first["member"], first["worker"]) == ("t0", 0) and first["waited_seconds"] < 0.01
    _assert_lane_gone(lane)
    assert worker_processes() == {}


def test_pool_closed_right_after_a_short_run_does_not_wait_out_the_boot(data, shm_sweep):
    """Two millisecond fits are through on lane 0 long before the spawned
    interpreter has imported numpy; ``close()`` kills it where it stands —
    nothing can be in flight on a slot that never turned ``ready`` — instead
    of queueing a sentinel behind the rest of its boot."""
    tasks = _tasks(2)
    pool = ParallelExecutor(data, workers=2)
    try:
        networks, _ = pool.train(tasks)
        slot = pool._table.slots[1]
        process, state = slot.process, slot.state
    finally:
        pool.close()
    _assert_bitwise(networks, tasks, data)
    assert state == "starting"
    assert process.exitcode == -signal.SIGKILL
    assert worker_processes() == {}


def test_worker_killed_while_lane0_fits_is_replaced_before_lane0_finishes(
    data, monkeypatch, train_events, on_event
):
    """The loop is not blocked by lane 0's fit: with ``t0`` held on lane 0,
    the worker SIGKILLed at its first dispatch is evicted, respawned and
    handed the task again — and only then is lane 0 let go."""
    tasks = _tasks(2)
    started, release = _stalled_fit(monkeypatch)
    # The dispatch reaches the worker at once, and ``t1`` fits in
    # milliseconds: hold its first attempt so the kill lands while it is held.
    monkeypatch.setenv("REPRO_FAULTS", "train_hang:member=t1:attempt=0:seconds=60")

    def kill_then_release(fields):
        if fields["worker"] == 1 and fields["attempt"] == 0:
            os.kill(worker_processes()["repro-train-1"], signal.SIGKILL)
        elif fields["attempt"] == 1:
            release.set()

    try:
        with on_event("train.task_dispatched", kill_then_release):
            with ParallelExecutor(data, workers=2) as pool:
                networks, _ = pool.train(tasks)
    finally:
        release.set()

    _assert_bitwise(networks, tasks, data)
    assert started == ["t0"]
    timeline = [
        (event, fields.get("worker"), fields.get("member"), fields.get("attempt"))
        for event, fields in train_events
    ]
    evicted = timeline.index(("train.worker_evicted", 1, "t1", None))
    again = timeline.index(("train.task_dispatched", 1, "t1", 1))
    lane0_done = timeline.index(("train.task_finished", 0, "t0", None))
    assert evicted < again < lane0_done
    assert [e["reason"] for e in _of(train_events, "train.worker_evicted")] == ["died"]


def test_lane0_fit_error_is_retried(data, monkeypatch, train_events):
    """An exception inside a lane-0 fit takes the ordinary error path: the
    task is re-enqueued and its next attempt is bitwise the clean fit."""
    tasks = _tasks(1)
    failures = iter([ValueError("boom")])

    def fit(task, x, y):
        for exc in failures:
            raise exc
        return fit_task(task, x, y)

    monkeypatch.setattr(executor, "fit_task", fit)
    with ParallelExecutor(data, workers=2) as pool:
        networks, _ = pool.train(tasks)
    _assert_bitwise(networks, tasks, data)
    retried = _of(train_events, "train.task_retried")
    assert [(r["member"], r["attempt"], r["reason"]) for r in retried] == [
        ("t0", 1, "ValueError: boom")
    ]
    assert _of(train_events, "train.worker_evicted") == []  # an error evicts nobody


def test_lane0_fit_errors_exhaust_the_retries_naming_the_member(data, monkeypatch):
    def fit(task, x, y):
        raise ValueError("boom")

    monkeypatch.setattr(executor, "fit_task", fit)
    monkeypatch.setenv("REPRO_FAULTS", "train_error:member=t0")  # wherever it lands
    pool = ParallelExecutor(data, workers=2, max_task_retries=2)
    with pytest.raises(RuntimeError, match="'t0' failed 3 times"):
        pool.train(_tasks(1))
    _assert_lane_gone(pool._lane)
    assert worker_processes() == {}


def test_lane0_past_its_deadline_is_retired_and_the_run_completes_on_the_worker(
    data, monkeypatch, train_events, shm_sweep
):
    """A thread cannot be killed: a lane-0 fit that outlives ``task_timeout``
    retires the lane — never dispatched to again, never respawned — and its
    task is retried on the process lane, so a hang still never hangs a pooled
    run.  What the stuck fit eventually produces reaches nobody."""
    tasks = _tasks(3)
    started, release = _stalled_fit(monkeypatch)
    try:
        with ParallelExecutor(data, workers=2, task_timeout=1.0) as pool:
            networks, _ = pool.train(tasks)
            lane, slot = pool._lane, pool._table.slots[0]
            assert (slot.state, slot.down_until, slot.channel) == ("down", None, None)
            again, _ = pool.train(tasks[1:])  # the pool lives on, one lane short
    finally:
        release.set()
    _assert_bitwise(networks, tasks, data)
    _assert_bitwise(again, tasks[1:], data)
    assert started == ["t0"]
    _assert_lane_gone(lane)

    (evicted,) = _of(train_events, "train.worker_evicted")
    assert (evicted["worker"], evicted["reason"], evicted["member"]) == (0, "deadline", "t0")
    assert evicted["restart_in_seconds"] is None and evicted["exitcode"] is None
    assert _of(train_events, "train.worker_respawned") == []
    dispatched = [(e["member"], e["worker"], e["attempt"]) for e in
                  _of(train_events, "train.task_dispatched")]
    assert dispatched[0] == ("t0", 0, 0) and ("t0", 1, 1) in dispatched
    assert all(worker == 1 for _, worker, _ in dispatched[1:])
    assert worker_processes() == {}


def test_a_one_lane_pool_fails_instead_of_hanging_when_its_lane_is_retired(data, monkeypatch):
    started, release = _stalled_fit(monkeypatch)
    try:
        with ParallelExecutor(data, workers=1, task_timeout=0.3) as pool:
            with pytest.raises(RuntimeError, match="'t0' outran its 0.3s deadline.*only lane"):
                pool.train(_tasks(1))
    finally:
        release.set()
    _assert_lane_gone(pool._lane)


def test_failed_run_leaves_lane0_at_most_the_fit_it_is_in(data, monkeypatch, shm_sweep):
    """The run dies (here: the journal hook raises on the worker's result)
    while lane 0 is mid-fit: the workers are killed, and lane 0 finishes that
    one fit — it cannot be stopped — takes nothing further and delivers
    nothing."""
    tasks = _tasks(5)
    started, release = _stalled_fit(monkeypatch)

    def journal(task_index, net):
        raise OSError("journal: disk full")

    pool = ParallelExecutor(data, workers=2)
    try:
        with pytest.raises(OSError, match="disk full"):
            pool.train(tasks, on_outcome=journal)
        assert worker_processes() == {}
        assert pool._lane._thread.is_alive()  # still inside t0
    finally:
        release.set()
    _assert_lane_gone(pool._lane)
    assert started == ["t0"]

"""FleetFront against an in-process consumer: bitwise parity with the
single-process predictor, sync and async result paths, and validation; the
front as consumer 0 (``front-0``) and the table children it adds beside it; a
sync call answered on its own thread when ``front-0`` is idle, and every
case that queues instead."""

import io
import math
import os
import secrets
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import EnsemblePredictor
from repro.fleet import BrokerFull, FleetConsumer, FleetFront, InProcBroker, connect_broker
from repro.fleet import autoscaler as autoscaler_module
from repro.fleet import front as front_module
from repro.fleet.broker import _JOBS
from repro.fleet.consumer import _CONSUMED
from repro.obs.exposition import render_prometheus
from repro.parallel import supervision
from tests.procs import child_pids, is_running, worker_processes


@pytest.fixture(scope="module")
def fleet(saved_artifact):
    """Front (no local subprocesses, no autoscaler) + one in-process
    consumer sharing the broker object directly."""
    front = FleetFront(
        saved_artifact,
        spawn_local=False,
        min_consumers=1,
        max_consumers=1,
    )
    # On the broker object the consumer shares the front's registry, so the
    # snapshot-and-reset shipping step must never fire.
    consumer = FleetConsumer(front.broker, saved_artifact, consumer_id="inproc").start()
    assert math.isinf(consumer.metrics_interval)
    yield front
    consumer.close()
    front.close()


@pytest.fixture(scope="module")
def reference(saved_artifact):
    return EnsemblePredictor.load(saved_artifact)


@pytest.fixture
def answers(monkeypatch):
    """``(consumer, job id, thread name)`` of every job an in-process
    consumer answers, in answer order."""
    record = []
    real_answer = FleetConsumer.answer

    def recording_answer(self, job, deliver=True):
        record.append((self.consumer_id, job.job_id, threading.current_thread().name))
        return real_answer(self, job, deliver=deliver)

    monkeypatch.setattr(FleetConsumer, "answer", recording_answer)
    return record


def _jobs(event):
    return _JOBS.labels(event).value


def test_predict_proba_bitwise_equals_single_process(fleet, reference, serial_result):
    x = serial_result.dataset.x_test
    assert np.array_equal(fleet.predict_proba(x, timeout=60), reference.predict_proba(x))
    assert np.array_equal(
        fleet.predict(x[:16], method="vote", timeout=60),
        reference.predict(x[:16], method="vote"),
    )


@pytest.mark.parametrize("method", ["average", "vote", "super_learner"])
def test_every_method_bitwise_equals_single_process(fleet, reference, serial_result, method):
    x = serial_result.dataset.x_test[:24]
    assert np.array_equal(
        fleet.predict_proba(x, method=method, timeout=60),
        reference.predict_proba(x, method=method),
    )


def test_a_consumer_is_one_process(fleet, serial_result):
    """The consumer answers in the calling process: no pool, so no child."""
    fleet.predict_proba(serial_result.dataset.x_test[:4], timeout=60)
    assert worker_processes() == {}


def test_a_consumer_does_not_load_the_serving_pool():
    """What a fleet-worker imports leaves the pool, its transport and the
    supervision core (all of ``repro.parallel``) unloaded."""
    code = (
        "import sys, repro.fleet.broker, repro.fleet.consumer; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.parallel')))"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    loaded = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=src),
    ).stdout
    assert loaded.strip() == "[]"


def test_async_submit_poll_lifecycle(fleet, reference, serial_result):
    x = serial_result.dataset.x_test[:8]
    job_id = fleet.submit(x)
    deadline = time.monotonic() + 60
    status = proba = None
    while time.monotonic() < deadline:
        status, proba, error, want_proba = fleet.poll(job_id)
        assert error is None
        assert want_proba is True
        if status == "done":
            break
        assert status == "pending"
        time.sleep(0.02)
    assert status == "done"
    assert np.array_equal(proba, reference.predict_proba(x))
    # A fetched result is consumed: the id is unknown afterwards.
    assert fleet.poll(job_id)[0] == "unknown"


def test_poll_unknown_job_id(fleet):
    assert fleet.poll("never-submitted")[0] == "unknown"


def test_result_consumes_the_entry(fleet, serial_result):
    x = serial_result.dataset.x_test[:4]
    job_id = fleet.submit(x)
    fleet.result(job_id, timeout=60)
    with pytest.raises(KeyError):
        fleet.result(job_id, timeout=1)


def test_submit_validates_before_publishing(fleet):
    with pytest.raises(ValueError):
        fleet.submit(np.zeros((2, 5)))  # wrong feature count
    with pytest.raises(ValueError):
        fleet.submit(np.zeros((2, 12)), method="nonsense")
    stats = fleet.broker.stats()
    assert stats["depth"] == 0 and stats["inflight"] == 0


def test_constructor_rejects_bad_configuration(saved_artifact):
    with pytest.raises(ValueError):
        FleetFront(saved_artifact, min_consumers=0, spawn_local=False)
    with pytest.raises(ValueError):
        FleetFront(saved_artifact, min_consumers=3, max_consumers=1, spawn_local=False)
    with pytest.raises(ValueError):
        FleetFront(saved_artifact, method="nonsense", spawn_local=False)
    with pytest.raises(ValueError, match="min_consumers / max_consumers"):
        FleetFront(saved_artifact, consumer_workers=2, spawn_local=False)


def test_broker_full_submit_cleans_up_its_entry(saved_artifact):
    front = FleetFront(saved_artifact, spawn_local=False)
    front.broker.capacity = 1
    try:
        x = np.zeros((1, 12))
        kept = front.submit(x)  # no consumer attached: stays queued
        with pytest.raises(BrokerFull):
            front.submit(x)
        assert front.poll(kept)[0] == "pending"
        with front._lock:
            assert len(front._entries) == 1
    finally:
        front.close()


def test_healthz_and_info_reflect_the_fleet(fleet):
    health = fleet.healthz()
    assert health["status"] == "ok"
    assert health["mode"] == "queue"
    assert health["consumers"] == 1
    info = fleet.info()
    assert info["mode"] == "queue"
    assert info["queue"]["capacity"] == 4096
    assert info["queue"]["consumers"] == ["inproc"]
    assert info["consumers"] == 1
    assert info["local_consumers"] is None  # spawn_local=False
    assert info["autoscaler"] is None
    assert info["job_latency_seconds"]["p99"] >= 0


def test_close_fails_outstanding_futures(saved_artifact):
    import threading

    front = FleetFront(saved_artifact, spawn_local=False)
    job_id = front.submit(np.zeros((1, 12)))  # nobody will ever answer
    outcome = {}

    def waiter():
        try:
            outcome["result"] = front.result(job_id, timeout=30)
        except Exception as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=waiter)
    thread.start()
    time.sleep(0.2)  # let the waiter block on the future
    front.close()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert isinstance(outcome.get("error"), RuntimeError)
    # Post-close: the entry is gone and new submissions are refused.
    with pytest.raises(KeyError):
        front.result(job_id, timeout=1)
    with pytest.raises(RuntimeError):
        front.submit(np.zeros((1, 12)))


def test_a_consumer_that_cannot_start_is_relaunched_under_backoff(
    saved_artifact, monkeypatch
):
    """A local consumer that exits at once (unreadable generation, bad broker
    address) used to be relaunched on every reconcile tick — ~60 interpreter
    starts in these 3 s; under the backoff it is a handful.  The streak must
    not lock a healthy consumer out: once one can start again the fleet gets
    ready and the delay starts over."""
    doomed = []
    real_child = supervision.Child

    def doomed_child(name, argv, pass_fds, lifeline):
        child = real_child(name, [sys.executable, "-c", "raise SystemExit(1)"], pass_fds, lifeline)
        doomed.append(child)
        return child

    monkeypatch.setattr(supervision, "Child", doomed_child)
    # Two consumers: front-0 answers in this process, the other is launched.
    monkeypatch.setattr(front_module, "RECONCILE_INTERVAL", 0.05)
    front = FleetFront(saved_artifact, min_consumers=2, max_consumers=2)
    try:
        time.sleep(3.0)
        assert 2 <= len(doomed) <= 6, len(doomed)
        monkeypatch.setattr(supervision, "Child", real_child)
        front.wait_ready(timeout=120)
        _wait_for(
            lambda: all(slot.failures == 0 for slot in front._table.slots),
            10,
            "the failure streak never ended",
        )
        assert front.local_consumers()["running"] == 2
    finally:
        front.close()
        for child in doomed:
            child.join(timeout=10)


def test_a_consumer_launch_that_raises_holds_the_next_launch(
    saved_artifact, reference, serial_result, monkeypatch
):
    """A launch that raises (no fork left, no interpreter) is held under the
    same backoff as a consumer that exits at once — not retried on every
    reconcile tick (~40 launches in these 2 s).  The loop logs the failed
    step and goes on delivering ``front-0``'s answers."""
    launches = []

    def refuse(*args):
        launches.append(time.monotonic())
        raise OSError("cannot launch a consumer here")

    monkeypatch.setattr(supervision, "Child", refuse)
    monkeypatch.setattr(front_module, "RECONCILE_INTERVAL", 0.05)
    front = FleetFront(saved_artifact, min_consumers=2, max_consumers=2)
    try:
        x = serial_result.dataset.x_test[:8]
        expected = reference.predict_proba(x)
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            assert np.array_equal(front.predict_proba(x, timeout=60), expected)
            time.sleep(0.1)
        assert front.local_consumers()["running"] == 1
    finally:
        front.close()
    assert 1 <= len(launches) <= 4, launches
    assert sum(slot.failures for slot in front._table.slots) == len(launches)


def _wait_for(condition, timeout, what):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, what
        time.sleep(0.05)


def test_the_front_is_consumer_0_and_starts_no_child(saved_artifact, reference, serial_result):
    """min = max = 1: the front's own ``front-0`` thread is the whole fleet —
    no subprocess, no socket hop — and it answers every method bitwise."""
    children = set(child_pids(os.getpid()))
    with FleetFront(saved_artifact, min_consumers=1, max_consumers=1) as front:
        front.wait_ready(timeout=10)
        assert front.healthz()["status"] == "ok"
        assert front.broker.stats()["consumers"] == ["front-0"]
        x = serial_result.dataset.x_test[:24]
        for method in ("average", "vote", "super_learner"):
            assert np.array_equal(
                front.predict_proba(x, method=method, timeout=60),
                reference.predict_proba(x, method=method),
            )
        assert np.array_equal(front.predict_proba(x[:1], timeout=60), reference.predict_proba(x[:1]))
        assert front.local_consumers() == {
            "desired": 1,
            "running": 1,
            "draining": 0,
            "pids": [],
        }
        time.sleep(1.2)  # a couple of reconcile ticks: still nothing launched
        assert set(child_pids(os.getpid())) <= children
    assert set(child_pids(os.getpid())) <= children


def test_a_second_consumer_is_the_one_table_child(saved_artifact, reference, serial_result):
    children = set(child_pids(os.getpid()))
    with FleetFront(saved_artifact, min_consumers=2, max_consumers=2) as front:
        front.wait_ready(timeout=120)
        local = front.local_consumers()
        assert local["running"] == 2 and len(local["pids"]) == 1
        assert set(child_pids(os.getpid())) - children == set(local["pids"])
        # A supervision-table child (python -c LAUNCHER NAME ...), not a CLI.
        assert worker_processes() == {"repro-fleet-0": local["pids"][0]}
        assert sorted(front.broker.stats()["consumers"]) == ["front-0", "local-0"]
        batches = [serial_result.dataset.x_test[i * 4 : i * 4 + 4] for i in range(8)]
        job_ids = [front.submit(batch) for batch in batches]
        for batch, job_id in zip(batches, job_ids):
            assert np.array_equal(front.result(job_id, timeout=60), reference.predict_proba(batch))


def _descendants(pid):
    children = child_pids(pid)
    return children + [grandchild for child in children for grandchild in _descendants(child)]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="procfs")
def test_the_fleet_authkey_is_on_no_command_line(saved_artifact):
    """The broker's shared secret reaches a local consumer in its bootstrap
    frame, on a private pipe: no process of the front's tree shows it in
    ``/proc/<pid>/cmdline`` (any local user can read those)."""
    authkey = secrets.token_hex(16)
    with FleetFront(
        saved_artifact, min_consumers=2, max_consumers=2, fleet_authkey=authkey
    ) as front:
        front.wait_ready(timeout=120)
        assert len(front.local_consumers()["pids"]) == 1
        tree = [os.getpid(), *_descendants(os.getpid())]
        shown = {}
        for pid in tree:
            try:
                shown[pid] = Path(f"/proc/{pid}/cmdline").read_bytes()
            except OSError:  # exited meanwhile
                continue
        assert set(front.local_consumers()["pids"]) <= set(shown)
        assert [pid for pid, cmdline in shown.items() if authkey.encode() in cmdline] == []


def test_scaling_up_adds_subprocesses_up_to_max_minus_one(saved_artifact, monkeypatch):
    monkeypatch.setattr(front_module, "RECONCILE_INTERVAL", 0.05)
    monkeypatch.setattr(autoscaler_module, "TICK_INTERVAL", 3600.0)  # the scaler holds still
    with FleetFront(saved_artifact, min_consumers=1, max_consumers=3) as front:
        for _ in range(4):
            front.scale_up()
        assert front.local_consumers()["desired"] == 3
        _wait_for(lambda: front.broker.consumer_count() == 3, 120, "never 3 consumers")
        local = front.local_consumers()
        assert local["running"] == 3 and len(local["pids"]) == 2
        for _ in range(4):
            front.scale_down()
        _wait_for(
            lambda: front.local_consumers()["running"] == 1
            and front.local_consumers()["draining"] == 0,
            60,
            "subprocesses never drained",
        )
        assert front.local_consumers()["pids"] == []
        assert front.broker.stats()["consumers"] == ["front-0"]


def test_a_constructor_that_raises_leaves_nothing_running(saved_artifact, monkeypatch):
    """Refused configuration is refused before anything starts; a failure
    once everything runs closes it all — threads, the broker socket, the
    launched consumer and ``front-0``."""
    served, launched = [], []
    real_serve, real_child = front_module.serve_broker, supervision.Child

    def recording_serve(*args, **kwargs):
        address, stop = real_serve(*args, **kwargs)
        served.append(address)
        return address, stop

    def recording_child(*args):
        child = real_child(*args)
        launched.append(child)
        return child

    monkeypatch.setattr(front_module, "serve_broker", recording_serve)
    monkeypatch.setattr(supervision, "Child", recording_child)
    threads = set(threading.enumerate())
    children = set(child_pids(os.getpid()))

    with pytest.raises(ValueError, match="min_consumers <= max_consumers"):
        FleetFront(saved_artifact, min_consumers=3, max_consumers=2)
    assert served == [] and launched == []
    assert set(threading.enumerate()) <= threads

    def failing_start(self):
        # front-0 starts last, once the loop has launched local-0.
        deadline = time.monotonic() + 30
        while not launched and time.monotonic() < deadline:
            time.sleep(0.05)
        raise RuntimeError("front-0 could not start")

    monkeypatch.setattr(FleetConsumer, "start", failing_start)
    monkeypatch.setattr(front_module, "RECONCILE_INTERVAL", 0.05)
    with pytest.raises(RuntimeError, match="could not start"):
        FleetFront(saved_artifact, min_consumers=2, max_consumers=3)
    assert len(served) == 1 and len(launched) == 1
    assert not is_running(launched[0].pid)
    with pytest.raises(OSError):
        connect_broker(served[0])
    _wait_for(
        lambda: set(threading.enumerate()) <= threads, 10, "threads outlived the front"
    )
    assert set(child_pids(os.getpid())) <= children


def _counter_samples(exposition):
    """Every sample of every counter family in a Prometheus exposition."""
    families, samples = set(), {}
    for line in exposition.splitlines():
        if line.startswith("# TYPE ") and line.endswith(" counter"):
            families.add(line.split()[2])
        elif line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            if name.split("{")[0] in families:
                samples[name] = float(value)
    return samples


def test_metrics_counters_stay_monotonic_across_scrapes(saved_artifact, serial_result):
    """``front-0`` shares the front's registry: shipping snapshot-and-reset
    deltas as a subprocess consumer does would zero the front's counters
    between two scrapes and merge them back in twice."""
    x = serial_result.dataset.x_test[:1]
    ok = _CONSUMED.labels("ok")
    with FleetFront(saved_artifact, min_consumers=1, max_consumers=1) as front:
        front.wait_ready(timeout=10)
        answered = ok.value
        for _ in range(3):
            front.predict_proba(x, timeout=60)
        first = _counter_samples(render_prometheus())
        time.sleep(1.2)  # past a subprocess consumer's metrics interval
        for _ in range(3):
            front.predict_proba(x, timeout=60)
        second = _counter_samples(render_prometheus())
    assert ok.value - answered == 6
    assert first and set(first) <= set(second)
    dropped = {name: (first[name], second[name]) for name in first if second[name] < first[name]}
    assert not dropped


def test_subprocess_consumers_metrics_reach_the_front_exactly(
    saved_artifact, reference, serial_result, monkeypatch
):
    """Beside ``front-0``, which counts straight into this registry, a
    ``fleet-worker`` ships its registry deltas: with an ack once a metrics
    interval has passed, and the rest with its detach when it drains.  Either
    way ``repro_fleet_consumed_jobs_total{status="ok"}`` at the front then
    counts every answered job exactly once."""
    # front-0 answers slowly, so the subprocess answers most of each burst.
    monkeypatch.setenv("REPRO_FAULTS", "fleet_consume_hang:consumer=front-0:seconds=0.3")
    ok = _CONSUMED.labels("ok")
    x = serial_result.dataset.x_test
    monkeypatch.setattr(front_module, "RECONCILE_INTERVAL", 0.05)
    monkeypatch.setattr(autoscaler_module, "TICK_INTERVAL", 3600.0)  # the scaler holds still
    with FleetFront(saved_artifact, min_consumers=1, max_consumers=2) as front:
        front.scale_up()
        _wait_for(lambda: front.broker.consumer_count() == 2, 120, "local-0 never attached")
        answered = ok.value
        ackers = []
        real_ack = front.broker.ack

        def recording_ack(consumer_id, *args, **kwargs):
            ackers.append(consumer_id)
            return real_ack(consumer_id, *args, **kwargs)

        # The manager's server thread looks the method up on every call.
        monkeypatch.setattr(front.broker, "ack", recording_ack)

        def burst():
            batches = [x[i * 4 : i * 4 + 4] for i in range(8)]
            job_ids = [front.submit(batch) for batch in batches]
            for batch, job_id in zip(batches, job_ids):
                assert np.array_equal(front.result(job_id, timeout=60), reference.predict_proba(batch))

        burst()
        assert "local-0" in ackers
        # Past local-0's metrics interval, its next ack ships the window.
        # Queued one at a time (a sync predict_proba would be answered
        # inline by front-0 every time).
        time.sleep(1.2)
        shipped = len(ackers)
        while ackers[-1:] != ["local-0"]:
            assert len(ackers) - shipped < 20, ackers[shipped:]
            job_id = front.submit(x[:1])
            assert np.array_equal(front.result(job_id, timeout=60), reference.predict_proba(x[:1]))
        assert ok.value - answered == len(ackers)

        # A burst inside the interval ships nothing; draining local-0 ships it.
        shipped = len(ackers)
        burst()
        assert "local-0" in ackers[shipped:]
        front.scale_down()
        _wait_for(
            lambda: front.local_consumers() == {"desired": 1, "running": 1, "draining": 0, "pids": []},
            60,
            "local-0 never drained",
        )
        assert ok.value - answered == len(ackers)


def test_a_consumer_retired_while_blocked_in_lease_leaves_the_broker(saved_artifact):
    """``retire()`` detaches at once, and the detach wakes the consumer's
    blocked ``lease`` — which attaches it again on its way out.  The loop
    leaves the broker itself when it stops, so no ghost stays counted (nor
    awaited by a swap) until the consumer deadline."""
    broker = InProcBroker(visibility_timeout=30.0)
    try:
        consumer = FleetConsumer(broker, saved_artifact, consumer_id="c").start()
        time.sleep(0.2)  # blocked in lease: the queue is empty
        assert broker.stats()["consumers"] == ["c"]
        consumer.retire()
        consumer._thread.join(timeout=10)
        assert not consumer._thread.is_alive()
        assert broker.stats()["consumers"] == []
        assert broker.consumer_count() == 0
    finally:
        broker.close()


@pytest.mark.parametrize("max_consumers", [1, 2])
def test_a_live_front_runs_one_loop(
    saved_artifact, reference, serial_result, max_consumers, monkeypatch
):
    """Result delivery, the broker sweep, consumer reconciling and the
    autoscaler (on when ``max > min``) all run on one thread: a front adds
    ``repro-fleet-loop``, ``front-0`` and the broker's accept thread and
    nothing else, and ``close()`` takes every one away without waiting out a
    housekeeping period."""
    before = set(threading.enumerate())
    monkeypatch.setattr(front_module, "RECONCILE_INTERVAL", 30.0)
    monkeypatch.setattr(autoscaler_module, "TICK_INTERVAL", 30.0)
    front = FleetFront(saved_artifact, min_consumers=1, max_consumers=max_consumers)
    try:
        assert (front.autoscaler is not None) == (max_consumers > 1)
        x = serial_result.dataset.x_test[:4]
        np.testing.assert_array_equal(front.predict_proba(x, timeout=60), reference.predict_proba(x))
        names = sorted(thread.name for thread in set(threading.enumerate()) - before)
        assert names == [
            "repro-fleet-broker-accept",
            "repro-fleet-consumer-front-0",
            "repro-fleet-loop",
        ], names
    finally:
        start = time.monotonic()
        front.close()
        closing = time.monotonic() - start
    assert closing < 5.0, closing
    _wait_for(lambda: set(threading.enumerate()) <= before, 10, "threads outlived the front")


def test_close_leaves_the_callers_stdout_and_stderr(saved_artifact, monkeypatch):
    """The stdlib manager's ``serve_forever`` points ``sys.stdout`` and
    ``sys.stderr`` back at ``sys.__stdout__`` / ``sys.__stderr__`` when it
    stops; the broker's server does not run it."""
    out, err = io.StringIO(), io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    before = set(threading.enumerate())
    FleetFront(saved_artifact, spawn_local=False).close()
    _wait_for(lambda: set(threading.enumerate()) <= before, 10, "threads outlived the front")
    assert sys.stdout is out and sys.stderr is err


def test_timeout_zero_does_not_wait(saved_artifact):
    """``timeout=0`` means now, not the 300 s default."""
    with FleetFront(saved_artifact, spawn_local=False) as front:
        job_id = front.submit(np.zeros((1, 12)))  # no consumer: stays pending
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            front.result(job_id, timeout=0)
        assert time.monotonic() - start < 1.0


def test_sequential_sync_calls_are_answered_on_the_callers_thread(
    saved_artifact, reference, serial_result, answers
):
    """An idle ``front-0`` with nothing queued: each sync call publishes its
    job leased to ``front-0`` and answers it itself — ``front-0``'s thread
    answers none, and the loop is not woken for any — bitwise, every method
    and size.  The inline jobs count as published, leased and completed."""
    x = serial_result.dataset.x_test
    calls = [(x[i : i + 1 + i % 3], ("average", "vote", "super_learner")[i % 3]) for i in range(30)]
    with FleetFront(saved_artifact, min_consumers=1, max_consumers=1) as front:
        front.wait_ready(timeout=10)
        before = {event: _jobs(event) for event in ("inline", "published", "leased", "completed")}
        observed = front_module._JOB_LATENCY.count
        woken = []
        real_deliver = front._deliver
        front._deliver = lambda completed: (woken.extend(completed), real_deliver(completed))
        for rows, method in calls:
            np.testing.assert_array_equal(
                front.predict_proba(rows, method=method, timeout=60),
                reference.predict_proba(rows, method=method),
            )
        assert woken == []
        # The front observed each job's latency itself.
        assert front_module._JOB_LATENCY.count - observed == 30
        with front._lock:
            assert front._entries == {}
        assert front.broker.stats()["inflight"] == 0
    assert {event: _jobs(event) - before[event] for event in before} == dict.fromkeys(before, 30)
    assert [consumer for consumer, _, _ in answers] == ["front-0"] * 30
    assert {thread for _, _, thread in answers} == {threading.current_thread().name}


def test_an_external_consumer_front_answers_nothing_inline(
    fleet, reference, serial_result, answers
):
    """``spawn_local=False``: no ``front-0``, so every sync call is queued
    and answered by the attached consumer's thread."""
    inline = _jobs("inline")
    x = serial_result.dataset.x_test[:3]
    for _ in range(3):
        np.testing.assert_array_equal(
            fleet.predict_proba(x, timeout=60), reference.predict_proba(x)
        )
    assert _jobs("inline") == inline
    assert [(consumer, thread) for consumer, _, thread in answers] == [
        ("inproc", "repro-fleet-consumer-inproc")
    ] * 3


def test_callers_that_find_the_lane_busy_queue_behind_it_in_order(
    saved_artifact, reference, serial_result, answers
):
    """While ``front-0``'s lane is busy, sync calls publish onto the queue
    like any job, and ``front-0``'s thread answers them oldest first; a call
    that finds jobs queued queues behind them too."""
    x = serial_result.dataset.x_test
    with FleetFront(saved_artifact, min_consumers=1, max_consumers=1) as front:
        front.wait_ready(timeout=10)
        lane = front._front_consumer.lane
        inline = _jobs("inline")
        results, published = {}, []
        real_publish = front.broker.publish

        def recording_publish(payload, job_id=None, lease_to=None):
            published.append(job_id)
            return real_publish(payload, job_id=job_id, lease_to=lease_to)

        front.broker.publish = recording_publish

        def call(i):
            results[i] = front.predict_proba(x[i : i + 1], timeout=60)

        threads = []
        with lane:  # another thread is answering
            for i in range(4):
                threads.append(threading.Thread(target=call, args=(i,)))
                threads[-1].start()
                _wait_for(lambda: len(published) > i, 10, f"call {i} never published")
            _wait_for(
                lambda: front.broker.depth() + front.broker.stats()["inflight"] == 4,
                10,
                "calls not queued",
            )
            # No call waits for the lane, and none goes ahead of a queued one.
            extra = {"x": x[:1], "method": "average"}
            assert front.broker.publish(extra, job_id="extra", lease_to="front-0") is None
        for thread in threads:
            thread.join(timeout=60)
        _wait_for(lambda: len(answers) == 5, 10, "the extra job was never answered")
        assert _jobs("inline") == inline
        assert [job_id for _, job_id, _ in answers] == published
        assert {thread for _, _, thread in answers} == {"repro-fleet-consumer-front-0"}
        for i in range(4):
            np.testing.assert_array_equal(results[i], reference.predict_proba(x[i : i + 1]))

        def idle():
            # ``answers`` records a job as its answer starts, so the fifth
            # can be on record while front-0 still holds the lane for it.
            if not lane.acquire(blocking=False):
                return False
            lane.release()
            return front.broker.stats()["inflight"] == 0

        _wait_for(idle, 10, "front-0 never let go of its lane")
        # Idle again: the next call is the caller's own.
        np.testing.assert_array_equal(
            front.predict_proba(x[:2], timeout=60), reference.predict_proba(x[:2])
        )
        assert _jobs("inline") == inline + 1

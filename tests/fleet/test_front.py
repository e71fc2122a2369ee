"""FleetFront against an in-process consumer: bitwise parity with the
single-process predictor, sync and async result paths, and validation; the
front as consumer 0 (``front-0``) and the subprocesses it adds beside it."""

import math
import multiprocessing as mp
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import EnsemblePredictor
from repro.fleet import BrokerFull, FleetConsumer, FleetFront, InProcBroker, connect_broker
from repro.fleet import front as front_module
from repro.fleet.autoscaler import Autoscaler
from repro.fleet.consumer import _CONSUMED
from repro.fleet.front import _LocalConsumer
from repro.obs.exposition import render_prometheus
from tests.procs import child_pids, is_running


@pytest.fixture(scope="module")
def fleet(saved_artifact):
    """Front (no local subprocesses, no autoscaler) + one in-process
    consumer sharing the broker object directly."""
    front = FleetFront(
        saved_artifact,
        spawn_local=False,
        autoscale=False,
        min_consumers=1,
        max_consumers=1,
    )
    # In-process the consumer shares the front's registry, so the
    # snapshot-and-reset shipping step must never fire.
    consumer = FleetConsumer(
        front.broker,
        saved_artifact,
        consumer_id="inproc",
        metrics_interval=math.inf,
    ).start()
    yield front
    consumer.close()
    front.close()


@pytest.fixture(scope="module")
def reference(saved_artifact):
    return EnsemblePredictor.load(saved_artifact)


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
    assert mp.active_children() == []


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
    front = FleetFront(saved_artifact, spawn_local=False, autoscale=False)
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

    front = FleetFront(saved_artifact, spawn_local=False, autoscale=False)
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

    def spawn_doomed(self):
        process = subprocess.Popen([sys.executable, "-c", "raise SystemExit(1)"])
        doomed.append(process)
        return _LocalConsumer(consumer_id=f"doomed-{len(doomed)}", process=process)

    real_spawn = FleetFront._spawn_consumer
    monkeypatch.setattr(FleetFront, "_spawn_consumer", spawn_doomed)
    # Two consumers: front-0 answers in this process, the other is launched.
    front = FleetFront(
        saved_artifact, min_consumers=2, max_consumers=2, reconcile_interval=0.05
    )
    try:
        time.sleep(3.0)
        assert 2 <= len(doomed) <= 6, len(doomed)
        monkeypatch.setattr(FleetFront, "_spawn_consumer", real_spawn)
        front.wait_ready(timeout=120)
        deadline = time.monotonic() + 10
        while front._spawn_failures and time.monotonic() < deadline:
            time.sleep(0.05)
        assert front._spawn_failures == 0
        assert front.local_consumers()["running"] == 2
    finally:
        front.close()
        for process in doomed:
            process.wait(timeout=10)


def test_a_consumer_launch_that_raises_holds_the_next_launch(saved_artifact, monkeypatch):
    """A launch that raises (no fork left, no interpreter) is held under the
    same backoff as a consumer that exits at once — not retried on every
    reconcile tick (~40 launches in these 2 s)."""
    launches = []

    def refuse(self):
        launches.append(time.monotonic())
        raise OSError("cannot launch a consumer here")

    monkeypatch.setattr(FleetFront, "_spawn_consumer", refuse)
    front = FleetFront(
        saved_artifact, min_consumers=2, max_consumers=2, reconcile_interval=0.05
    )
    try:
        time.sleep(2.0)
    finally:
        front.close()
    assert 1 <= len(launches) <= 4, launches
    assert front._spawn_failures == len(launches)


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


def test_a_second_consumer_is_the_one_fleet_worker_child(
    saved_artifact, reference, serial_result
):
    children = set(child_pids(os.getpid()))
    with FleetFront(saved_artifact, min_consumers=2, max_consumers=2) as front:
        front.wait_ready(timeout=120)
        local = front.local_consumers()
        assert local["running"] == 2 and len(local["pids"]) == 1
        assert set(child_pids(os.getpid())) - children == set(local["pids"])
        cmdline = Path(f"/proc/{local['pids'][0]}/cmdline").read_bytes().split(b"\0")
        assert b"fleet-worker" in cmdline
        assert sorted(front.broker.stats()["consumers"]) == ["front-0", "local-0"]
        batches = [serial_result.dataset.x_test[i * 4 : i * 4 + 4] for i in range(8)]
        job_ids = [front.submit(batch) for batch in batches]
        for batch, job_id in zip(batches, job_ids):
            assert np.array_equal(front.result(job_id, timeout=60), reference.predict_proba(batch))


def test_scaling_up_adds_subprocesses_up_to_max_minus_one(saved_artifact):
    with FleetFront(
        saved_artifact, min_consumers=1, max_consumers=3, autoscale=False, reconcile_interval=0.05
    ) as front:
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
    real_serve, real_spawn = front_module.serve_broker, FleetFront._spawn_consumer

    def recording_serve(*args, **kwargs):
        address, stop = real_serve(*args, **kwargs)
        served.append(address)
        return address, stop

    def recording_spawn(self):
        consumer = real_spawn(self)
        launched.append(consumer.process)
        return consumer

    monkeypatch.setattr(front_module, "serve_broker", recording_serve)
    monkeypatch.setattr(FleetFront, "_spawn_consumer", recording_spawn)
    threads = set(threading.enumerate())
    children = set(child_pids(os.getpid()))

    with pytest.raises(ValueError, match="hysteresis"):
        FleetFront(
            saved_artifact, min_consumers=1, max_consumers=2, up_queue_depth=1, down_queue_depth=2
        )
    assert served == [] and launched == []
    assert set(threading.enumerate()) <= threads

    def failing_start(self):
        deadline = time.monotonic() + 30
        while not launched and time.monotonic() < deadline:
            time.sleep(0.05)
        raise RuntimeError("autoscaler could not start")

    monkeypatch.setattr(Autoscaler, "start", failing_start)
    with pytest.raises(RuntimeError, match="could not start"):
        FleetFront(saved_artifact, min_consumers=2, max_consumers=3, reconcile_interval=0.05)
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
    with FleetFront(
        saved_artifact, min_consumers=1, max_consumers=2, autoscale=False, reconcile_interval=0.05
    ) as front:
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
        time.sleep(1.2)
        shipped = len(ackers)
        while ackers[-1:] != ["local-0"]:
            assert len(ackers) - shipped < 20, ackers[shipped:]
            assert np.array_equal(front.predict_proba(x[:1], timeout=60), reference.predict_proba(x[:1]))
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
        consumer = FleetConsumer(
            broker, saved_artifact, consumer_id="c", lease_timeout=0.5, metrics_interval=math.inf
        ).start()
        time.sleep(0.2)  # blocked in lease: the queue is empty
        assert broker.stats()["consumers"] == ["c"]
        consumer.retire()
        consumer._thread.join(timeout=10)
        assert not consumer._thread.is_alive()
        assert broker.stats()["consumers"] == []
        assert broker.consumer_count() == 0
    finally:
        broker.close()

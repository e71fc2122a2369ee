"""FleetFront against an in-process consumer: bitwise parity with the
single-process predictor, sync and async result paths, and validation."""

import multiprocessing as mp
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import EnsemblePredictor
from repro.fleet import BrokerFull, FleetConsumer, FleetFront
from repro.fleet.front import _LocalConsumer


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
    # Long metrics_interval: in-process the consumer shares the front's
    # registry, so the snapshot-and-reset shipping step must not fire.
    consumer = FleetConsumer(
        front.broker,
        saved_artifact,
        consumer_id="inproc",
        metrics_interval=3600.0,
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
    """What a fleet-worker imports leaves the pool, the shm transport and the
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
    front = FleetFront(
        saved_artifact, min_consumers=1, max_consumers=1, reconcile_interval=0.05
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
        assert front.local_consumers()["running"] == 1
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
        saved_artifact, min_consumers=1, max_consumers=1, reconcile_interval=0.05
    )
    try:
        time.sleep(2.0)
    finally:
        front.close()
    assert 1 <= len(launches) <= 4, launches
    assert front._spawn_failures == len(launches)

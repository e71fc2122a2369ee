"""Unit tests for the in-process one-queue broker: delivery semantics,
lease order across consumers, redelivery clocks (driven by explicit
``sweep()`` calls on an injected clock: the broker runs no thread), and the
cross-process manager."""

import sys
import threading
import time
import types

import pytest

from repro.fleet import broker as broker_module
from repro.fleet.broker import (
    BrokerFull,
    InProcBroker,
    Job,
    connect_broker,
    serve_broker,
)


class _Clock:
    """The broker's clock, ``offset`` seconds ahead of the real one: a test
    moves it forward by hand, and a blocking wait still ends."""

    def __init__(self):
        self.offset = 0.0

    def monotonic(self):
        return time.monotonic() + self.offset

    def advance(self, seconds):
        self.offset += seconds


@pytest.fixture
def clock(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(broker_module, "time", types.SimpleNamespace(monotonic=clock.monotonic))
    return clock


@pytest.fixture
def broker(clock):
    b = InProcBroker(
        capacity=32,
        visibility_timeout=10.0,
        max_deliveries=3,
        consumer_deadline=30.0,
    )
    yield b
    b.close()


def _expire_leases(broker, clock):
    """Move past the visibility window and sweep: every lease runs out."""
    clock.advance(broker.visibility_timeout + 1.0)
    broker.sweep()


def test_publish_lease_ack_roundtrip(broker):
    broker.attach("c1")
    job_id = broker.publish({"n": 1})
    job = broker.lease("c1", timeout=1.0)
    assert job is not None
    assert job.job_id == job_id
    assert job.payload == {"n": 1}
    assert job.deliveries == 1
    assert broker.ack("c1", job.job_id, result="r") is True
    done = broker.poll_completed(timeout=1.0)
    assert [c.job_id for c in done] == [job_id]
    assert done[0].result == "r"
    assert done[0].error is None
    assert done[0].deliveries == 1


def test_jobs_lease_in_publish_order_whoever_asks(broker):
    """Jobs are leased in publish order, whichever consumer asks."""
    published = [broker.publish({"i": i}) for i in range(6)]
    askers = ["c1", "c2", "c3", "c3", "c1", "c2"]
    assert [broker.lease(c, timeout=0.0).job_id for c in askers] == published


def test_publish_caller_supplied_job_id(broker):
    assert broker.publish({}, job_id="mine") == "mine"


def test_broker_full_backpressure(broker):
    for _ in range(broker.capacity):
        broker.publish({})
    with pytest.raises(BrokerFull):
        broker.publish({})
    # A leased job makes room.
    broker.attach("c1")
    job = broker.lease("c1", timeout=1.0)
    broker.ack("c1", job.job_id, result=None)
    broker.publish({})  # no longer raises


def test_attach_and_detach_update_the_consumer_list(broker):
    """Attach and detach change the consumers list; a consumer that just
    attached leases at once."""
    broker.attach("c1")
    broker.attach("c2")
    assert broker.stats()["consumers"] == ["c1", "c2"]
    broker.detach("c1")
    assert broker.stats()["consumers"] == ["c2"]
    job_id = broker.publish({})
    broker.attach("c3")
    assert broker.stats()["consumers"] == ["c2", "c3"]
    assert broker.lease("c3", timeout=0.0).job_id == job_id


def test_every_consumer_leases_while_jobs_are_queued():
    """Five consumers on a default broker all lease while jobs are queued."""
    broker = InProcBroker()
    try:
        consumers = [f"c{i}" for i in range(5)]
        for consumer in consumers:
            broker.attach(consumer)
        for i in range(10):
            broker.publish({"i": i})
        leased = {c: broker.lease(c, timeout=0.2) for c in consumers}
        assert all(job is not None for job in leased.values()), leased
        assert broker.depth() == 5
    finally:
        broker.close()


def test_an_idle_consumer_takes_the_next_job_while_another_is_busy():
    """No head-of-line wait: while c0 holds a lease, an idle c1 leases every
    queued job at once, whichever job the publish order put next."""
    broker = InProcBroker()
    try:
        broker.attach("c0")
        broker.attach("c1")
        published = [broker.publish({"i": i}) for i in range(3)]
        held = broker.lease("c0", timeout=0.0)
        assert held.job_id == published[0]
        for job_id in published[1:]:
            job = broker.lease("c1", timeout=0.0)
            assert job is not None and job.job_id == job_id
            assert broker.ack("c1", job.job_id, result=None) is True
        assert broker.stats()["inflight"] == 1  # c0 still holds its lease
    finally:
        broker.close()


def test_a_waiting_lease_returns_the_target_as_soon_as_it_is_set(broker):
    """A consumer blocked in ``lease`` on an empty queue is handed a new
    target at once, not when its wait runs out."""
    broker.attach("c", generation=0)
    returned = {}

    def wait():
        returned["work"] = broker.lease("c", timeout=2.0)
        returned["at"] = time.monotonic()

    waiter = threading.Thread(target=wait)
    waiter.start()
    time.sleep(0.2)  # blocked in lease
    assert "work" not in returned
    set_at = time.monotonic()
    broker.set_target(1)
    waiter.join(timeout=5)
    assert returned["work"] == 1
    assert returned["at"] - set_at < 0.2


def test_a_consumer_loads_the_target_before_it_leases_a_job(broker):
    """A job waits until its consumer reports the target; a consumer that
    joins on another generation, or with none known, is moved first."""
    job_id = broker.publish({})
    broker.attach("c", generation=0)
    assert broker.lease("c", timeout=0.0).job_id == job_id  # no target: jobs only
    broker.ack("c", job_id, result=None)
    job_id = broker.publish({})
    broker.set_target(1)
    assert broker.lease("c", timeout=0.0) == 1
    assert broker.lease("newcomer", timeout=0.0) == 1
    assert broker.stats()["consumer_generations"] == {"c": 0, "newcomer": None}
    broker.report("c", 1, target=1)
    assert broker.lease("c", timeout=0.0).job_id == job_id
    assert broker.stats()["consumer_generations"] == {"c": 1, "newcomer": None}


def test_a_consumer_that_cannot_load_the_target_serves_jobs_until_the_next_one(broker):
    """A reported load failure holds for the current target only: the
    consumer leases jobs on the generation it has, is never sent an inline
    job, and is moved again once a new target is set."""
    broker.attach("c", generation=0)
    broker.set_target(1)
    broker.report("c", 0, target=2, error="stale")  # a target no longer set: ignored
    assert broker.stats()["target_failures"] == {}
    broker.report("c", 0, target=1, error="OSError: unreadable")
    assert broker.stats()["target_failures"] == {"c": "OSError: unreadable"}
    job_id = broker.publish({})
    assert broker.lease("c", timeout=0.0).job_id == job_id
    broker.ack("c", job_id, result=None)
    assert broker.publish({}, lease_to="c") is None  # queued, not leased inline
    broker.set_target(2)
    assert broker.stats()["target_failures"] == {}
    assert broker.lease("c", timeout=0.0) == 2
    broker.report("c", 2, target=2)
    queued = broker.lease("c", timeout=0.0)
    broker.ack("c", queued.job_id, result=None)
    assert isinstance(broker.publish({}, lease_to="c"), Job)


def test_partitions_is_accepted_only_as_one():
    InProcBroker(partitions=1).close()
    with pytest.raises(ValueError, match="one queue"):
        InProcBroker(partitions=4)


def test_lease_attaches_unknown_consumer_implicitly(broker):
    broker.publish({"n": 1})
    job = broker.lease("newcomer", timeout=1.0)
    assert job is not None
    assert broker.consumer_count() == 1


def test_visibility_timeout_redelivers_unacked_job(broker, clock):
    broker.attach("c1")
    job_id = broker.publish({"n": 1})
    first = broker.lease("c1", timeout=1.0)
    assert first.deliveries == 1
    # Never acked: a sweep inside the visibility window keeps the lease, the
    # first one past it requeues the job.
    clock.advance(broker.visibility_timeout / 2)
    broker.sweep()
    assert broker.redeliveries() == 0 and broker.stats()["inflight"] == 1
    _expire_leases(broker, clock)
    assert broker.redeliveries() == 1
    second = broker.lease("c1", timeout=0.0)
    assert second is not None
    assert second.job_id == job_id
    assert second.deliveries == 2
    assert broker.ack("c1", job_id, result="late but fine") is True
    done = broker.poll_completed(timeout=1.0)
    assert [c.job_id for c in done] == [job_id]


def test_concurrent_consumers_complete_every_job_once():
    """Six consumer threads on one queue, switching often: every job is
    leased and completed exactly once, and none is left behind."""
    broker = InProcBroker()
    published = {broker.publish({"i": i}) for i in range(300)}
    acked = []

    def consume(consumer_id):
        while True:
            job = broker.lease(consumer_id, timeout=0.2)
            if job is None:
                return
            acked.append((job.job_id, broker.ack(consumer_id, job.job_id, result=None)))

    threads = [threading.Thread(target=consume, args=(f"c{i}",)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(acked) == sorted((job_id, True) for job_id in published)
        done = broker.poll_completed(timeout=1.0)
        assert sorted(c.job_id for c in done) == sorted(published)
        stats = broker.stats()
        assert stats["depth"] == 0 and stats["inflight"] == 0
    finally:
        sys.setswitchinterval(interval)
        broker.close()


def test_a_dead_consumers_job_goes_to_the_survivor_and_the_dead_one_is_reaped(clock):
    """A dead consumer's in-flight job redelivers to the survivor, and the
    dead one is reaped; its queued jobs were never its own."""
    broker = InProcBroker(visibility_timeout=3.0, consumer_deadline=5.0)
    try:
        broker.attach("dead")
        broker.attach("alive")
        published = [broker.publish({"i": i}) for i in range(8)]
        # "dead" leases one job and never calls in again; "alive" answers
        # everything else.
        held = broker.lease("dead", timeout=0.0)
        while (job := broker.lease("alive", timeout=0.0)) is not None:
            assert broker.ack("alive", job.job_id, result=job.payload["i"])
        assert broker.stats()["inflight"] == 1
        # Past the visibility window the held job is requeued; "dead" is
        # still within its consumer deadline.
        clock.advance(4.0)
        broker.sweep()
        assert broker.redeliveries() == 1
        assert broker.stats()["consumers"] == ["dead", "alive"]
        job = broker.lease("alive", timeout=0.0)
        assert job.job_id == held.job_id and job.deliveries == 2
        assert broker.ack("alive", job.job_id, result=job.payload["i"])
        # Past the deadline only the silent one is detached.
        clock.advance(2.0)
        broker.sweep()
        assert broker.stats()["consumers"] == ["alive"]
        assert broker.take_reaped() == ["dead"]
        completed = broker.poll_completed(timeout=0.0)
        assert sorted(c.job_id for c in completed) == sorted(published)
        assert all(c.error is None for c in completed)
    finally:
        broker.close()


def test_nack_redelivers_then_fails_after_max_deliveries(broker):
    broker.attach("c1")
    job_id = broker.publish({"n": 1})
    for expected_delivery in (1, 2, 3):
        job = broker.lease("c1", timeout=1.0)
        assert job.job_id == job_id
        assert job.deliveries == expected_delivery
        broker.nack("c1", job_id, "boom")
    assert broker.lease("c1", timeout=0.1) is None
    done = broker.poll_completed(timeout=1.0)
    assert len(done) == 1
    assert done[0].result is None
    assert "failed after 3 deliveries" in done[0].error
    assert "boom" in done[0].error


def test_a_nack_after_the_lease_expired_gives_back_nothing(broker, clock):
    """Only the lease holder can return a job: a consumer whose lease ran out
    (the job went to another) once cancelled the other's lease with its
    nack — a needless third execution, or a spent ``max_deliveries`` that
    failed a job the other consumer was about to answer."""
    job_id = broker.publish({"n": 1})
    assert broker.lease("slow", timeout=1.0).job_id == job_id
    _expire_leases(broker, clock)
    assert broker.stats()["inflight"] == 0
    assert broker.lease("fast", timeout=1.0).job_id == job_id
    broker.nack("slow", job_id, "boom")
    assert broker.stats()["inflight"] == 1 and broker.depth() == 0
    assert broker.ack("fast", job_id, result="answer") is True
    (done,) = broker.poll_completed(timeout=1.0)
    assert done.result == "answer" and done.error is None and done.deliveries == 2


def test_duplicate_execution_first_ack_wins(broker, clock):
    broker.attach("c1")
    broker.attach("c2")
    job_id = broker.publish({}, job_id="dup")
    holder = broker.lease("c1", timeout=1.0) or broker.lease("c2", timeout=1.0)
    assert holder.job_id == "dup"
    # Lease expires; the job is redelivered and a second consumer runs it too.
    _expire_leases(broker, clock)
    assert broker.redeliveries() == 1
    second = broker.lease("c2", timeout=0.0)
    assert second.job_id == "dup"
    assert broker.ack("c2", job_id, result="second-execution") is True
    assert broker.ack("c1", job_id, result="slow-first-execution") is False
    done = broker.poll_completed(timeout=1.0)
    assert len(done) == 1
    assert done[0].result == "second-execution"


def test_ack_pulls_requeued_duplicate_out_of_the_queue(broker, clock):
    broker.attach("c1")
    job_id = broker.publish({})
    broker.lease("c1", timeout=1.0)
    # Visibility expires: the job goes back on the queue while the original
    # (slow, not dead) consumer is still computing it.
    _expire_leases(broker, clock)
    assert broker.depth() == 1
    assert broker.ack("c1", job_id, result="done") is True
    # The requeued duplicate must not be handed out afterwards.
    assert broker.lease("c1", timeout=0.2) is None
    assert len(broker.poll_completed(timeout=1.0)) == 1


def test_shipped_metrics_merge_into_this_process_on_arrival(broker):
    """A consumer's registry delta is merged where the broker lives, with
    its ack — a late duplicate's too, the work was done — and with its
    detach."""
    from repro.obs.metrics import MetricsRegistry, get_registry

    def delta(amount):
        shipped = MetricsRegistry()
        shipped.counter("repro_test_shipped_total", "Shipped in a test delta.").inc(amount)
        return shipped.snapshot()

    def merged():
        return get_registry().counter("repro_test_shipped_total", "Shipped in a test delta.").value

    before = merged()
    job_id = broker.publish({})
    broker.lease("c1", timeout=1.0)
    assert broker.ack("c1", job_id, result=None, metrics=delta(2))
    assert not broker.ack("c1", job_id, result=None, metrics=delta(3))
    broker.detach("c1", metrics=delta(5))
    assert merged() - before == 10
    assert broker.stats()["consumers"] == []


def test_stats_reports_depth_and_oldest_age(broker):
    assert broker.stats()["oldest_job_age_seconds"] is None
    broker.publish({})
    time.sleep(0.05)
    stats = broker.stats()
    assert stats["depth"] == 1
    assert stats["capacity"] == 32
    assert stats["oldest_job_age_seconds"] >= 0.05
    assert stats["inflight"] == 0


def test_close_fails_queued_and_inflight_jobs(broker):
    broker.attach("c1")
    leased = broker.publish({})
    queued = broker.publish({})
    job = broker.lease("c1", timeout=1.0)
    broker.close()
    done = {c.job_id: c for c in broker.poll_completed(timeout=1.0)}
    assert set(done) == {queued, leased}
    assert all("broker closed" in c.error for c in done.values())
    with pytest.raises(RuntimeError):
        broker.publish({})
    assert job is not None and job.job_id == leased


def test_served_broker_roundtrip_through_manager_proxy(broker):
    address, stop = serve_broker(broker, port=0, authkey="test-key")
    try:
        proxy = connect_broker(address, authkey="test-key")
        job_id = proxy.publish({"via": "proxy"})
        job = proxy.lease("remote", timeout=1.0)
        assert job.job_id == job_id
        assert job.payload == {"via": "proxy"}
        assert proxy.ack("remote", job.job_id, result=[1, 2, 3]) is True
        # The completion landed in the *served* broker object.
        done = broker.poll_completed(timeout=1.0)
        assert [c.result for c in done] == [[1, 2, 3]]
        assert proxy.stats()["consumers"] == ["remote"]
    finally:
        stop()


def test_stopped_broker_server_leaves_no_accept_thread(broker):
    """The stdlib manager's accepter retries ``accept()`` on the closed
    listener forever — a busy loop that outlived every front in the process
    and convoyed the GIL for whatever ran next."""

    def accepters():
        return [t for t in threading.enumerate() if t.name == "repro-fleet-broker-accept"]

    before = set(accepters())
    address, stop = serve_broker(broker, port=0, authkey="test-key")
    assert connect_broker(address, authkey="test-key").stats()["depth"] == 0
    assert len(set(accepters()) - before) == 1
    stop()
    deadline = time.monotonic() + 10.0
    while set(accepters()) - before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not set(accepters()) - before
    with pytest.raises(OSError):
        connect_broker(address, authkey="test-key")


def test_connect_broker_rejects_wrong_authkey(broker):
    address, stop = serve_broker(broker, port=0, authkey="right")
    try:
        with pytest.raises(Exception):
            connect_broker(address, authkey="wrong")
    finally:
        stop()

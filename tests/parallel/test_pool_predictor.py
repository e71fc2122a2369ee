"""PoolPredictor correctness: bitwise parity with EnsemblePredictor, thread
safety under concurrent clients, the dispatch-when-idle rule, and clean
worker shutdown."""

import itertools
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import EnsemblePredictor
from repro.obs.metrics import get_registry
from repro.parallel import PoolPredictor, serving
from repro.parallel.serving import dispatch_reason
from tests.procs import worker_processes


@pytest.fixture(scope="module")
def reference(saved_artifact):
    return EnsemblePredictor.load(saved_artifact)


@pytest.fixture(scope="module")
def pool(saved_artifact):
    predictor = PoolPredictor(saved_artifact, workers=2, max_wait_ms=1.0)
    yield predictor
    predictor.close()


def test_pool_matches_single_process_bitwise(pool, reference, serial_result):
    x = serial_result.dataset.x_test
    np.testing.assert_array_equal(pool.predict_proba(x), reference.predict_proba(x))
    np.testing.assert_array_equal(pool.predict(x), reference.predict(x))
    for method in ("average", "vote", "super_learner"):
        np.testing.assert_array_equal(
            pool.predict_proba(x[:9], method=method),
            reference.predict_proba(x[:9], method=method),
        )


def test_pool_accepts_single_unbatched_sample(pool, reference, serial_result):
    sample = serial_result.dataset.x_test[3]
    np.testing.assert_array_equal(
        pool.predict_proba(sample), reference.predict_proba(sample)
    )


def test_pool_under_concurrent_clients(pool, reference, serial_result):
    """Many client threads with ragged batch sizes; every reply must match
    the single-process predictor on the same rows (micro-batching coalesces
    the dispatches but never mixes rows across requests)."""
    x = serial_result.dataset.x_test

    def call(i):
        start = i % 40
        size = 1 + (i % 7)
        batch = x[start : start + size]
        out = pool.predict_proba(batch)
        return np.array_equal(out, reference.predict_proba(batch))

    with ThreadPoolExecutor(max_workers=8) as clients:
        results = list(clients.map(call, range(64)))
    assert all(results)


@pytest.mark.parametrize(
    "rows, idle_worker, waited, max_wait, expected",
    [
        (1, True, 0.0, 0.05, "idle"),  # a lone request on an idle pool: now
        (1, False, 0.0, 0.05, None),  # every worker busy, room left, early: wait
        (1, False, 0.049, 0.05, None),
        (8, False, 0.0, 0.05, "full"),  # max_batch rows: now, busy or not
        (9, True, 0.0, 0.05, "full"),
        (1, False, 0.05, 0.05, "deadline"),  # the bound on the contended wait
        (1, False, 0.2, 0.05, "deadline"),
        (1, False, 0.0, 0.0, "deadline"),  # max_wait_ms=0: never wait
        (1, True, 0.0, 0.0, "idle"),
    ],
)
def test_dispatch_reason_table(rows, idle_worker, waited, max_wait, expected):
    assert dispatch_reason(rows, 8, idle_worker, waited, max_wait) == expected


def _dispatches():
    """``{reason: count}`` of ``repro_serve_dispatches_total`` so far."""
    counter = get_registry().get("repro_serve_dispatches_total")
    return {labels[0]: value for labels, value in counter.samples()}


def _dispatched_since(before):
    return {
        reason: count - before.get(reason, 0)
        for reason, count in _dispatches().items()
        if count != before.get(reason, 0)
    }


@pytest.fixture(scope="module")
def wide_window_pool(saved_artifact):
    """One worker and a wait window far above a request's work: whatever
    waits out ``max_wait_ms`` shows as a 50 ms call."""
    predictor = PoolPredictor(saved_artifact, workers=1, max_wait_ms=50.0)
    yield predictor
    predictor.close()


def test_lone_requests_do_not_sit_out_the_wait_window(
    wide_window_pool, reference, serial_result
):
    x = serial_result.dataset.x_test
    wide_window_pool.predict_proba(x[:1])
    before = _dispatches()
    seconds = []
    for i in range(20):
        start = time.perf_counter()
        out = wide_window_pool.predict_proba(x[i : i + 1])
        seconds.append(time.perf_counter() - start)
        np.testing.assert_array_equal(out, reference.predict_proba(x[i : i + 1]))
    # The fixed window made every one of these >= 50 ms; two are left to the
    # machine (this container shares its cores).
    assert sum(s < 0.025 for s in seconds) >= 18, sorted(seconds)
    assert _dispatched_since(before) == {"idle": 20}


def test_contended_requests_coalesce_while_the_worker_is_busy(
    wide_window_pool, reference, serial_result
):
    x = serial_result.dataset.x_test
    before = _dispatches()

    def client(tid):
        ok = True
        for i in range(20):
            row = (tid * 20 + i) % len(x)
            out = wide_window_pool.predict_proba(x[row : row + 1])
            ok = ok and np.array_equal(out, reference.predict_proba(x[row : row + 1]))
        return ok

    with ThreadPoolExecutor(max_workers=8) as clients:
        assert all(clients.map(client, range(8)))
    since = _dispatched_since(before)
    assert 0 < sum(since.values()) < 160, since
    with wide_window_pool._lock:
        assert wide_window_pool._requests == {}
        assert [slot.load for slot in wide_window_pool._slots] == [0]


def test_pool_validates_inputs_in_parent(pool):
    with pytest.raises(ValueError):
        pool.predict_proba(np.zeros((3, 99)))  # wrong feature count
    with pytest.raises(ValueError):
        pool.predict_proba(np.zeros((0, 12)))  # empty batch
    with pytest.raises(ValueError):
        pool.predict_proba(np.zeros((3, 12)), method="nope")


def test_pool_rejects_bad_construction(saved_artifact):
    with pytest.raises(ValueError):
        PoolPredictor(saved_artifact, workers=0)
    with pytest.raises(ValueError):
        PoolPredictor(saved_artifact, method="nope")


def test_dead_worker_fails_requests_promptly_without_respawn(
    saved_artifact, serial_result, monkeypatch
):
    """Kill the only worker while it holds a request (wedged there by a
    ``serve_hang`` fault): the request fails as soon as the supervisor sees
    the death — not after ``REQUEST_TIMEOUT``, and without waiting for the
    respawn (which test_supervisor.py covers)."""
    monkeypatch.setenv("REPRO_FAULTS", "serve_hang:times=1:seconds=60")
    monkeypatch.setattr(PoolPredictor, "REQUEST_TIMEOUT", 60.0)
    monkeypatch.setattr(serving, "SUPERVISE_INTERVAL", 0.05)
    predictor = PoolPredictor(saved_artifact, workers=1, max_wait_ms=0.0)
    monkeypatch.delenv("REPRO_FAULTS")  # the respawn serves normally
    try:
        x = serial_result.dataset.x_test[:4]
        with ThreadPoolExecutor(max_workers=1) as client:
            answer = client.submit(predictor.predict_proba, x)
            deadline = time.monotonic() + 30.0
            while predictor._slots[0].load == 0:
                assert time.monotonic() < deadline, "the request was never dispatched"
                time.sleep(0.01)
            predictor._slots[0].process.kill()
            start = time.monotonic()
            with pytest.raises(RuntimeError, match="worker 0 died"):
                answer.result(timeout=60.0)
            assert time.monotonic() - start < 30.0
        with predictor._lock:
            assert predictor._requests == {}
    finally:
        predictor.close()


def test_pool_close_is_clean_and_final(saved_artifact, serial_result, shm_sweep):
    # shm_sweep: the pool leaves no /dev/shm segment behind.
    predictor = PoolPredictor(saved_artifact, workers=2)
    x = serial_result.dataset.x_test[:4]
    predictor.predict(x)
    processes = [slot.process for slot in predictor._slots]
    predictor.close()
    assert all(not p.is_alive() for p in processes)
    # Only this predictor's workers must be gone (the module-scoped pool
    # fixture is still serving other tests).
    assert not {p.pid for p in processes} & set(worker_processes().values())
    with pytest.raises(RuntimeError):
        predictor.predict(x)
    predictor.close()  # idempotent


def test_timeout_zero_does_not_wait(saved_artifact, serial_result, monkeypatch):
    """``timeout=0`` means now, not ``REQUEST_TIMEOUT``: the worker holds
    the request (a ``serve_hang`` fault), so it is still pending."""
    monkeypatch.setenv("REPRO_FAULTS", "serve_hang:times=1:seconds=0.5")
    monkeypatch.setattr(PoolPredictor, "REQUEST_TIMEOUT", 60.0)
    pool = PoolPredictor(saved_artifact, workers=1)
    try:
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            pool.predict_proba(serial_result.dataset.x_test[:1], timeout=0)
        assert time.monotonic() - start < 0.4
    finally:
        pool.close()


def _wait_for(predicate, timeout, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.mark.parametrize("workers", [1, 2])
def test_a_live_pool_runs_one_thread(saved_artifact, reference, serial_result, workers):
    """Collecting, supervising and dispatching all happen on one thread: a
    serving pool adds ``repro-serve-loop`` and nothing else, and ``close()``
    takes it away."""
    before = set(threading.enumerate())
    pool = PoolPredictor(saved_artifact, workers=workers, max_wait_ms=1.0)
    try:
        x = serial_result.dataset.x_test[:4]
        np.testing.assert_array_equal(pool.predict_proba(x), reference.predict_proba(x))
        names = sorted(thread.name for thread in set(threading.enumerate()) - before)
        assert names == ["repro-serve-loop"], names
    finally:
        pool.close()
    assert _wait_for(lambda: set(threading.enumerate()) <= before, timeout=10.0), (
        set(threading.enumerate()) - before
    )


def test_close_under_concurrent_clients_answers_or_fails_every_call(
    saved_artifact, reference, serial_result, shm_sweep, monkeypatch
):
    """Eight threads call ``predict_proba`` back to back while another closes
    the pool: each call is answered bitwise or fails with "PoolPredictor
    closed" within seconds — none is left to wait out ``REQUEST_TIMEOUT``."""
    monkeypatch.setattr(PoolPredictor, "REQUEST_TIMEOUT", 30.0)
    pool = PoolPredictor(saved_artifact, workers=2, max_wait_ms=1.0)
    x = serial_result.dataset.x_test
    start = threading.Barrier(9)

    def client(tid):
        calls = []
        start.wait()
        for i in itertools.count():
            first = (tid * 7 + i) % 40
            rows = x[first : first + 1 + i % 3]
            began = time.monotonic()
            try:
                out = pool.predict_proba(rows)
            except RuntimeError as exc:
                calls.append((str(exc), time.monotonic() - began))
                return calls
            ok = np.array_equal(out, reference.predict_proba(rows))
            calls.append((ok, time.monotonic() - began))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the clients, the loop and close() finely
    try:
        with ThreadPoolExecutor(max_workers=8) as clients:
            futures = [clients.submit(client, tid) for tid in range(8)]
            start.wait()
            time.sleep(0.3)
            pool.close()
            outcomes = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(switch)
    for calls in outcomes:
        *answered, (error, _) = calls
        assert "PoolPredictor closed" in error, error
        assert all(ok is True for ok, _ in answered)
        assert max(seconds for _, seconds in calls) < 10.0
    assert sum(len(calls) - 1 for calls in outcomes) > 0  # the race had clients in flight

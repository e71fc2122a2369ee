"""Serving data plane: request rows and results travel inline.

The contract: the pool answers **bitwise identically** to the single-process
``EnsemblePredictor`` on the same rows — one row, a handful, 256, requests
larger than ``max_batch``, concurrent clients, on one worker or several.
Results are ordinary owned arrays, the queue byte counters see both
directions, and serving makes no shared-memory segment.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import EnsemblePredictor
from repro.obs.metrics import get_registry
from repro.parallel import PoolPredictor
from repro.parallel.serving import _PoolSlot, _Request
from repro.parallel.worker import answer_entry
from tests.procs import shm_entries


def _transport_bytes(direction: str) -> float:
    metric = get_registry().get("repro_serve_transport_bytes_total")
    return 0.0 if metric is None else metric.labels(direction).value


@pytest.fixture(scope="module")
def reference(saved_artifact):
    return EnsemblePredictor.load(saved_artifact)


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("max_batch", [1, 2, 8])
def test_pool_shape_sweep_matches_single_process_bitwise(
    saved_artifact, reference, serial_result, max_batch, workers, shm_sweep
):
    """Concurrent requests of 1, 7 and 256 rows (plus a few random sizes),
    every one larger than some of the ``max_batch`` values swept, on one
    worker or spread over four: every answer is bitwise what the
    single-process predictor returns for the same rows."""
    x = serial_result.dataset.x_test
    probe = np.tile(x, (256 // len(x) + 1, 1))[:256]
    rng = np.random.default_rng(100 * max_batch)
    sizes = [1, 7, 256] + [int(n) for n in rng.integers(1, 65, size=rng.integers(0, 5))]

    with PoolPredictor(
        saved_artifact, workers=workers, max_batch=max_batch, max_wait_ms=1.0
    ) as pool:
        start = threading.Barrier(len(sizes))

        def call(rows):
            start.wait(timeout=30)
            return pool.predict_proba(probe[:rows])

        with ThreadPoolExecutor(max_workers=len(sizes)) as clients:
            answers = list(clients.map(call, sizes))
    for rows, answer in zip(sizes, answers):
        assert np.array_equal(answer, reference.predict_proba(probe[:rows])), rows


@pytest.mark.parametrize("transport", ["pickle"])
def test_transports_match_single_process_bitwise(
    saved_artifact, reference, serial_result, transport, shm_sweep
):
    """Every transport the pool accepts, named explicitly, answers every
    method bitwise like the single-process predictor on two workers."""
    x = serial_result.dataset.x_test
    with PoolPredictor(
        saved_artifact, workers=2, transport=transport, max_wait_ms=1.0
    ) as pool:
        np.testing.assert_array_equal(
            pool.predict_proba(x), reference.predict_proba(x)
        )
        np.testing.assert_array_equal(pool.predict(x), reference.predict(x))
        for method in ("average", "vote", "super_learner"):
            np.testing.assert_array_equal(
                pool.predict_proba(x[:9], method=method),
                reference.predict_proba(x[:9], method=method),
            )


@pytest.mark.parametrize("transport", ["pickle"])
def test_transports_under_concurrent_clients(
    saved_artifact, reference, serial_result, transport, shm_sweep
):
    x = serial_result.dataset.x_test
    with PoolPredictor(
        saved_artifact, workers=2, transport=transport, max_wait_ms=1.0
    ) as pool:

        def call(i):
            start = i % 40
            size = 1 + (i % 7)
            batch = x[start : start + size]
            out = pool.predict_proba(batch)
            return np.array_equal(out, reference.predict_proba(batch))

        with ThreadPoolExecutor(max_workers=8) as clients:
            results = list(clients.map(call, range(64)))
    assert all(results)


def test_results_own_their_data_and_are_writable(saved_artifact, serial_result):
    """A result is rebuilt from its raw bytes once, at reply time: the client
    gets an ordinary owned, writable array."""
    x = serial_result.dataset.x_test[:4]
    with PoolPredictor(saved_artifact, workers=1) as pool:
        out = pool.predict_proba(x)
        assert out.base is None and out.flags.owndata and out.flags.writeable
        expected = out.copy()
        out[...] = 0.0  # scribbling on one answer cannot reach the next
        np.testing.assert_array_equal(pool.predict_proba(x), expected)


def test_transport_bytes_counters_populated(saved_artifact, serial_result):
    """Both directions of ``repro_serve_transport_bytes_total`` move: the
    request side carries at least the rows themselves, the response side at
    least the probabilities."""
    x = serial_result.dataset.x_test
    before = _transport_bytes("request"), _transport_bytes("response")
    # transport="pickle" is what benchmarks/e2e/probes.py passes.
    with PoolPredictor(saved_artifact, workers=1, transport="pickle") as pool:
        proba = pool.predict_proba(x)
    assert _transport_bytes("request") - before[0] >= x.nbytes
    assert _transport_bytes("response") - before[1] >= proba.nbytes


def test_pool_rejects_bad_transport(saved_artifact):
    for transport in ("shm", "carrier-pigeon"):
        with pytest.raises(ValueError, match="transport"):
            PoolPredictor(saved_artifact, transport=transport)


def test_a_pool_makes_no_shared_memory_segment(saved_artifact, reference, serial_result):
    """Rows travel inline: a serving pool adds no ``repro-shm`` entry to
    ``/dev/shm`` while it starts, serves or closes, and ``info()`` names no
    arena."""
    x = serial_result.dataset.x_test[:8]
    before = shm_entries()
    with PoolPredictor(saved_artifact, workers=2) as pool:
        assert shm_entries() == before
        np.testing.assert_array_equal(pool.predict_proba(x), reference.predict_proba(x))
        assert shm_entries() == before
        assert not {"transport", "arenas", "arena_bytes_per_worker"} & set(pool.info())
    assert shm_entries() == before


def _bare_pool() -> PoolPredictor:
    """A pool's request book-keeping without its threads or processes."""
    pool = object.__new__(PoolPredictor)
    pool._lock = threading.Lock()
    pool._slots = [_PoolSlot(0, state="ready")]
    pool._requests = {}
    return pool


def test_a_late_reply_for_a_failed_request_resolves_nothing():
    """Failing a request (its worker died) releases its worker's load once;
    the dead worker's late reply for it then resolves nothing, raises
    nothing and leaves the next request on that worker alone."""
    pool = _bare_pool()
    rows = np.arange(6, dtype=np.float64).reshape(2, 3)
    failed = _Request(7, rows, "average", worker_id=0)
    pool._requests[7] = failed
    pool._slots[0].load = 1
    pool._resolve(7, exception=RuntimeError("serving worker 0 died"))
    assert pool._slots[0].load == 0
    with pytest.raises(RuntimeError, match="died"):
        failed.future.result(timeout=0)

    live = _Request(8, rows, "average", worker_id=0)
    pool._requests[8] = live
    pool._slots[0].load = 1
    late = np.zeros((2, 4), np.float32)
    pool._collect_result([(7, (late.shape, str(late.dtype), late.tobytes()), None)])
    assert pool._slots[0].load == 1 and not live.future.done()


def test_answer_entry_replies_raw_bytes(reference, serial_result):
    """The worker's answer function: rows inline in, probabilities out as raw
    bytes, never as an array — and a failing entry carries no result."""
    x = serial_result.dataset.x_test

    reply = answer_entry(reference, (2, x[5:8], "vote"))
    request_id, (shape, dtype, data), error = reply
    assert request_id == 2 and type(data) is bytes and error is None
    np.testing.assert_array_equal(
        np.frombuffer(data, dtype=dtype).reshape(shape),
        reference.predict_proba(x[5:8], method="vote"),
    )
    reply = answer_entry(reference, (5, x[:2], "no-such-method"))
    assert reply[:2] == (5, None) and "no-such-method" in reply[2]

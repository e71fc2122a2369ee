"""Serving data plane: request rows by arena reference or inline, results
inline as raw bytes.

The contract: a pool with arenas (``transport="shm"``) answers **bitwise
identically** to the all-inline pool (``transport="pickle"``, the oracle) and
to the single-process ``EnsemblePredictor`` — including requests larger than
``max_batch``, larger than the whole arena (they travel inline) and concurrent
client threads — while moving orders of magnitude fewer request bytes through
the worker queues.  Results are ordinary owned arrays on both, and every
request frees its own arena region when it resolves.
"""

import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import EnsemblePredictor
from repro.obs.metrics import get_registry
from repro.parallel import PoolPredictor
from repro.parallel.serving import _PoolSlot, _Request
from repro.parallel.shm_transport import ALIGNMENT, ShmArena, _RegionAllocator
from repro.parallel.worker import answer_entry
from tests.procs import shm_entries


def _counter(name: str, *labels: str) -> float:
    metric = get_registry().get(name)
    if metric is None:
        return 0.0
    if labels:
        metric = metric.labels(*labels)
    return metric.value


def _fallbacks() -> float:
    return _counter("repro_serve_transport_fallbacks_total", "request_ring_full")


@pytest.fixture(scope="module")
def reference(saved_artifact):
    return EnsemblePredictor.load(saved_artifact)


@pytest.mark.parametrize("transport", ["shm", "pickle"])
def test_transports_match_single_process_bitwise(
    saved_artifact, reference, serial_result, transport, shm_sweep
):
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


def test_shm_matches_pickle_bitwise(saved_artifact, serial_result, shm_sweep):
    x = serial_result.dataset.x_test
    with PoolPredictor(saved_artifact, workers=1, transport="pickle") as pool:
        via_pickle = pool.predict_proba(x)
    with PoolPredictor(saved_artifact, workers=1, transport="shm") as pool:
        via_shm = pool.predict_proba(x)
    np.testing.assert_array_equal(via_shm, via_pickle)
    assert via_shm.dtype == via_pickle.dtype


def test_shm_handles_requests_larger_than_max_batch(
    saved_artifact, reference, serial_result, shm_sweep
):
    """A single request bigger than ``max_batch`` coalesces several slots'
    worth of contiguous arena bytes — still zero fallbacks, still bitwise."""
    fallbacks_before = _fallbacks()
    x = serial_result.dataset.x_test  # 64 rows = the whole arena at max_batch=16
    with PoolPredictor(saved_artifact, workers=1, transport="shm", max_batch=16) as pool:
        np.testing.assert_array_equal(
            pool.predict_proba(x), reference.predict_proba(x)
        )
    assert _fallbacks() == fallbacks_before


def test_shm_oversized_request_falls_back_to_pickle(
    saved_artifact, reference, serial_result, shm_sweep
):
    """A request that cannot fit the whole arena travels inline —
    transparently, counted, still bitwise."""
    x = serial_result.dataset.x_test  # 64 rows; arena sized for ~8
    with PoolPredictor(saved_artifact, workers=1, transport="shm", max_batch=2) as pool:
        before = _counter(
            "repro_serve_transport_fallbacks_total", "request_ring_full"
        )
        np.testing.assert_array_equal(
            pool.predict_proba(x), reference.predict_proba(x)
        )
        after = _counter(
            "repro_serve_transport_fallbacks_total", "request_ring_full"
        )
        assert after >= before + 1


@pytest.mark.parametrize("transport", ["shm", "pickle"])
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


@pytest.mark.parametrize("transport", ["shm", "pickle"])
def test_results_own_their_data_and_are_writable(
    saved_artifact, serial_result, transport, shm_sweep
):
    """A result is rebuilt from its raw bytes once, at reply time: the client
    gets an ordinary owned, writable array whatever the transport, and the
    arena holds nothing for it afterwards."""
    x = serial_result.dataset.x_test[:4]
    with PoolPredictor(saved_artifact, workers=1, transport=transport) as pool:
        out = pool.predict_proba(x)
        assert out.base is None and out.flags.owndata and out.flags.writeable
        expected = out.copy()
        out[...] = 0.0  # scribbling on one answer cannot reach the next
        np.testing.assert_array_equal(pool.predict_proba(x), expected)
        for arena in pool.info()["arenas"]:
            if arena is not None:
                assert arena["request_used_bytes"] == 0


def test_transport_bytes_counters_populated(
    saved_artifact, serial_result, shm_sweep
):
    """Both directions of ``repro_serve_transport_bytes_total`` move, the shm
    row references are far smaller than the pickled rows for the same traffic
    (``parallel.ipc_bytes_per_request_b256`` measures it end to end), and the
    results cost the same on both: they are inline either way."""
    x = serial_result.dataset.x_test

    def deltas(transport):
        before = (
            _counter("repro_serve_transport_bytes_total", transport, "request"),
            _counter("repro_serve_transport_bytes_total", transport, "response"),
        )
        with PoolPredictor(saved_artifact, workers=1, transport=transport) as pool:
            pool.predict_proba(x)
        return (
            _counter("repro_serve_transport_bytes_total", transport, "request")
            - before[0],
            _counter("repro_serve_transport_bytes_total", transport, "response")
            - before[1],
        )

    shm_req, shm_res = deltas("shm")
    pickle_req, pickle_res = deltas("pickle")
    assert shm_req > 0 and shm_res > 0
    assert pickle_req >= x.nbytes
    assert pickle_req > shm_req
    assert pickle_res == shm_res


def test_info_reports_transport_and_arena_occupancy(saved_artifact, shm_sweep):
    with PoolPredictor(saved_artifact, workers=2, transport="shm") as pool:
        info = pool.info()
        assert info["transport"] == "shm"
        assert info["arena_bytes_per_worker"] > 0
        assert len(info["arenas"]) == 2
        for arena in info["arenas"]:
            # The arena carries request rows, nothing else.
            assert set(arena) == {
                "request_capacity_bytes",
                "request_used_bytes",
                "inflight_dispatches",
            }
            assert arena["request_capacity_bytes"] == info["arena_bytes_per_worker"]
            assert arena["inflight_dispatches"] == 0
    with PoolPredictor(saved_artifact, workers=1, transport="pickle") as pool:
        info = pool.info()
        assert info["transport"] == "pickle"
        assert info["arena_bytes_per_worker"] is None
        assert info["arenas"] == [None]


def test_pool_rejects_bad_transport(saved_artifact):
    with pytest.raises(ValueError, match="transport"):
        PoolPredictor(saved_artifact, transport="carrier-pigeon")


# --------------------------------------------------------------------------
# allocator / arena unit coverage (no worker processes)
# --------------------------------------------------------------------------


def test_region_allocator_first_fit_coalesce_and_stale_free():
    alloc = _RegionAllocator(base=0, capacity=256)
    a = alloc.alloc(64)
    b = alloc.alloc(64)
    c = alloc.alloc(64)
    assert (a, b, c) == (0, 64, 128)
    assert alloc.alloc(128) is None  # only 64 left
    assert alloc.free(b)
    assert alloc.free(a)
    # Freed neighbours coalesced: a 128-byte region fits again at the front.
    assert alloc.alloc(128) == 0
    assert not alloc.free(999)  # stale offsets are ignored, not fatal
    assert alloc.free(c)
    assert alloc.used_bytes == 128
    assert alloc.inflight_regions == 1


def test_region_allocator_exhaustion_and_recovery_under_interleaved_frees():
    """Exhaust the arena with interleaved alloc/free orders: alloc must
    return None (the entry goes inline) exactly while nothing fits, and
    recover the moment enough contiguous space coalesces back."""
    alloc = _RegionAllocator(base=0, capacity=512)
    regions = [alloc.alloc(128) for _ in range(4)]
    assert regions == [0, 128, 256, 384]
    assert alloc.alloc(1) is None  # fully exhausted
    # Free the two interior regions in reverse order: 256 bytes free but the
    # hole is contiguous (128..384), so 256 fits and 384 does not.
    assert alloc.free(regions[2])
    assert alloc.free(regions[1])
    assert alloc.alloc(384) is None
    assert alloc.alloc(256) == 128
    assert alloc.alloc(1) is None  # exhausted again
    assert alloc.used_bytes == 512


def test_region_allocator_coalesces_out_of_order_releases():
    """Whatever order regions are released in — forward, backward, or
    inside-out — the free list must coalesce back to one full-capacity
    region that can satisfy a single maximal allocation."""
    import itertools

    for order in itertools.permutations(range(4)):
        alloc = _RegionAllocator(base=0, capacity=256)
        offsets = [alloc.alloc(64) for _ in range(4)]
        for index in order:
            assert alloc.free(offsets[index])
        assert alloc.inflight_regions == 0
        assert alloc.used_bytes == 0
        assert alloc.alloc(256) == 0, f"fragmented after free order {order}"


def test_region_allocator_nonzero_base_and_alignment_rounding():
    """Offsets honour the arena base and sub-alignment requests round up to
    the alignment quantum (so neighbouring regions never overlap)."""
    alloc = _RegionAllocator(base=1024, capacity=4 * ALIGNMENT)
    a = alloc.alloc(1)  # rounds up to one alignment quantum
    b = alloc.alloc(ALIGNMENT + 1)  # rounds up to two
    assert a == 1024
    assert b == 1024 + ALIGNMENT
    assert alloc.used_bytes == 3 * ALIGNMENT
    assert alloc.alloc(2 * ALIGNMENT) is None  # only one quantum left
    assert alloc.alloc(ALIGNMENT) == 1024 + 3 * ALIGNMENT
    assert alloc.free(b)
    assert alloc.alloc(2 * ALIGNMENT) == 1024 + ALIGNMENT


def test_region_allocator_double_free_is_ignored():
    alloc = _RegionAllocator(base=0, capacity=128)
    a = alloc.alloc(64)
    assert alloc.free(a)
    assert not alloc.free(a)  # second release of the same region: no-op
    # The double free must not have corrupted the free list.
    assert alloc.alloc(128) == 0
    assert alloc.used_bytes == 128


def test_arena_retire_unlinks_and_closes(shm_sweep):
    """One lifetime rule: ``retire()`` unlinks the name and closes the
    mapping in one step, and nothing is placed afterwards."""
    arena = ShmArena(0, max_batch=4, feature_size=3)
    rows = np.arange(6, dtype=np.float64).reshape(2, 3)
    offset = arena.write_request(rows)
    assert offset is not None
    placed = np.ndarray((2, 3), np.float64, buffer=arena._segment.buf, offset=offset)
    np.testing.assert_array_equal(placed, rows)
    del placed
    arena.retire()
    if sys.platform.startswith("linux"):
        assert arena.name not in os.listdir("/dev/shm")
    assert arena._segment.buf is None  # the mapping is closed, not parked
    assert arena.write_request(rows) is None
    arena.retire()  # idempotent


def _bare_pool() -> PoolPredictor:
    """A pool's request book-keeping without its threads or processes."""
    pool = object.__new__(PoolPredictor)
    pool.transport = "shm"
    pool._lock = threading.Lock()
    pool._slots = [_PoolSlot(0, state="ready")]
    pool._requests = {}
    return pool


def test_a_request_frees_its_region_and_a_late_reply_frees_nothing(shm_sweep):
    """A region belongs to its request.  Failing the request (its worker
    died) releases the region; the next request reuses it; and the dead
    worker's late reply for the failed one — it names no offset — frees
    nothing and raises nothing."""
    pool = _bare_pool()
    arena = ShmArena(0, max_batch=4, feature_size=3)
    rows = np.arange(6, dtype=np.float64).reshape(2, 3)
    try:
        failed = _Request(7, rows, "average", worker_id=0, arena=arena)
        failed.rows_offset = arena.write_request(rows)
        pool._requests[7] = failed
        pool._slots[0].load = 1
        pool._resolve(7, exception=RuntimeError("serving worker 0 died"))
        assert arena.stats()["request_used_bytes"] == 0
        assert pool._slots[0].load == 0
        with pytest.raises(RuntimeError, match="died"):
            failed.future.result(timeout=0)

        live = _Request(8, rows, "average", worker_id=0, arena=arena)
        live.rows_offset = arena.write_request(rows)
        assert live.rows_offset == failed.rows_offset  # the region was reused
        pool._requests[8] = live
        pool._slots[0].load = 1
        held = arena.stats()["request_used_bytes"]
        assert held > 0

        late = np.zeros((2, 4), np.float32)
        pool._collect_result([(7, (late.shape, str(late.dtype), late.tobytes()), None)])
        assert arena.stats()["request_used_bytes"] == held
        assert pool._slots[0].load == 1 and not live.future.done()
    finally:
        arena.retire()


# --------------------------------------------------------------------------
# the wire format: the worker's answer function (no worker processes), and a
# sweep of pool shapes against the in-process reference on both transports
# --------------------------------------------------------------------------


def test_answer_entry_mixes_references_and_inline(reference, serial_result):
    """Rows by reference or inline; the probabilities come back as raw
    bytes, never as an array — and a failing entry spoils no other."""
    x = serial_result.dataset.x_test
    buf = bytearray(8192)

    def place(rows, offset):
        np.ndarray(rows.shape, rows.dtype, buffer=buf, offset=offset)[...] = rows
        return (offset, rows.shape, str(rows.dtype))

    def answered(reply):
        request_id, (shape, dtype, data), error = reply
        assert type(data) is bytes and error is None
        return request_id, np.frombuffer(data, dtype=dtype).reshape(shape)

    # rows by reference
    request_id, proba = answered(answer_entry(reference, buf, (1, place(x[:5], 0), "average")))
    assert request_id == 1
    np.testing.assert_array_equal(proba, reference.predict_proba(x[:5]))
    # rows inline: what every entry of a transport="pickle" pool looks like
    request_id, proba = answered(answer_entry(reference, buf, (2, x[5:8], "vote")))
    assert request_id == 2
    np.testing.assert_array_equal(proba, reference.predict_proba(x[5:8], method="vote"))
    # an entry that fails carries no result
    reply = answer_entry(reference, buf, (5, place(x[:2], 2048), "no-such-method"))
    assert reply[:2] == (5, None) and "no-such-method" in reply[2]


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("max_batch", [1, 2, 8])
def test_pool_shape_sweep_matches_reference_on_both_transports(
    saved_artifact, reference, serial_result, max_batch, workers, shm_sweep
):
    """Concurrent requests of 1-64 rows against small arenas, on one worker
    or spread over four: some exceed ``max_batch``, some the whole arena,
    some meet a full arena.  Whatever mix of references and inline entries
    that makes, every answer is bitwise the reference's, a fallback is
    counted exactly where an entry's rows went inline, and every region of
    every worker's arena is free again once the replies are in."""
    x = serial_result.dataset.x_test
    rng = np.random.default_rng(100 * max_batch)
    sizes = [1, 64] + [int(n) for n in rng.integers(1, 65, size=rng.integers(0, 5))]
    segments_before = shm_entries()

    for transport in ("shm", "pickle"):
        with PoolPredictor(
            saved_artifact,
            workers=workers,
            transport=transport,
            max_batch=max_batch,
            max_wait_ms=1.0,
        ) as pool:
            assert (shm_entries() != segments_before) == (transport == "shm")
            # Count what went inline where it is decided, next to the counter.
            inline = []
            build = pool._build_dispatch

            def spy(group):
                entries = build(group)
                inline.extend(isinstance(rows, np.ndarray) for _, rows, _ in entries)
                return entries

            pool._build_dispatch = spy
            fallbacks_before = _fallbacks()
            start = threading.Barrier(len(sizes))

            def call(rows):
                start.wait(timeout=30)
                return pool.predict_proba(x[:rows])

            with ThreadPoolExecutor(max_workers=len(sizes)) as clients:
                answers = list(clients.map(call, sizes))
            for rows, answer in zip(sizes, answers):
                assert np.array_equal(answer, reference.predict_proba(x[:rows]))
            assert len(inline) == len(sizes)
            if transport == "shm":
                assert _fallbacks() - fallbacks_before == sum(inline)
                arenas = pool.info()["arenas"]
                assert len(arenas) == workers
                # 64 rows of 12 float64 features never fit these arenas
                assert sum(inline) >= 1
                for arena in arenas:
                    assert arena["request_capacity_bytes"] < x.nbytes
                    assert arena["request_used_bytes"] == 0
            else:
                assert all(inline) and _fallbacks() == fallbacks_before
        assert shm_entries() == segments_before

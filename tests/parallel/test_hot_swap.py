"""Zero-downtime hot-swap acceptance for the prediction pool.

The kill-style guarantee under test: while :meth:`PoolPredictor.swap` rolls
every worker onto a new artifact generation, concurrent clients must see
**zero dropped requests and zero wrong answers** — every single response is
bitwise-equal to what a cold-started predictor on either the old or the new
generation returns for the same rows, never a mix of the two within one
request.
"""

from __future__ import annotations

import multiprocessing as mp
import shutil
import threading
import time

import numpy as np
import pytest

from repro.api import EnsemblePredictor, run_experiment
from repro.core.artifact_store import ArtifactStore
from repro.parallel import PoolPredictor
from tests.procs import ColdReference, shm_entries


@pytest.fixture(scope="module")
def swap_store(saved_artifact, experiment_dict, tmp_path_factory):
    """A generation store holding gen-0 (the shared session artifact) and a
    gen-1 retrained on a fresh data draw.  Tests move CURRENT themselves."""
    root = tmp_path_factory.mktemp("hot-swap") / "store"
    shutil.copytree(saved_artifact, root)
    store = ArtifactStore.open(root)
    fresh = run_experiment(
        experiment_dict(dataset=dict(experiment_dict()["dataset"], seed=6))
    )
    generation = store.add_generation(fresh.run, parent_generation=0)
    assert generation == 1
    return store


@pytest.fixture(scope="module")
def refs(swap_store, serial_result):
    """Cold-start reference answers for both generations on one probe set."""
    probe = serial_result.dataset.x_test
    ref0 = ColdReference(EnsemblePredictor.load(swap_store.root, generation=0), probe)
    ref1 = ColdReference(EnsemblePredictor.load(swap_store.root, generation=1), probe)
    # The generations must actually disagree, or "old-or-new" proves nothing.
    assert not np.array_equal(ref0[:], ref1[:])
    return probe, ref0, ref1


def _swap_under_fire(swap_store, refs, max_wait_ms):
    probe, ref0, ref1 = refs
    swap_store.promote(0)
    pool = PoolPredictor(swap_store.root, workers=2, max_wait_ms=max_wait_ms)
    try:
        assert pool.generation == 0
        stop = threading.Event()
        failures = []
        counts = {"old": 0, "new": 0}
        lock = threading.Lock()

        def hammer(tid):
            i = 0
            while not stop.is_set():
                start = (tid * 7 + i) % 40
                size = 1 + ((tid + i) % 7)
                batch = probe[start : start + size]
                try:
                    out = pool.predict_proba(batch)
                except Exception as exc:  # a dropped/failed request
                    failures.append(f"thread {tid} request failed: {exc!r}")
                    return
                rows = batch.shape[0]
                if np.array_equal(out, ref0[start : start + rows]):
                    with lock:
                        counts["old"] += 1
                elif np.array_equal(out, ref1[start : start + rows]):
                    with lock:
                        counts["new"] += 1
                else:
                    failures.append(
                        f"thread {tid} got an answer matching neither "
                        f"generation for rows {start}:{start + rows}"
                    )
                    return
                i += 1

        threads = [
            threading.Thread(target=hammer, args=(tid,)) for tid in range(4)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.3)  # traffic flowing on generation 0
        swap_store.promote(1)
        result = pool.swap()
        time.sleep(0.3)  # traffic flowing on generation 1
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        assert all(not thread.is_alive() for thread in threads)
        assert not failures, failures[:3]
        assert result["status"] == "ok"
        assert result["previous_generation"] == 0
        assert result["generation"] == 1
        assert result["workers_respawned"] == 2
        assert counts["old"] > 0 and counts["new"] > 0, counts
        assert pool.generation == 1
        assert pool.info()["generation"] == 1
        assert pool.info()["swaps"] == 1
        assert pool.healthz()["generation"] == 1
        assert pool.healthz()["status"] == "ok"
        # Post-swap the pool answers purely from the new generation.
        np.testing.assert_array_equal(pool.predict_proba(probe), ref1[:])
        with pool._lock:
            assert pool._requests == {}
            assert [slot.load for slot in pool._slots] == [0, 0]
    finally:
        pool.close()


def test_swap_under_fire_drops_nothing_and_mixes_nothing(
    swap_store, refs, shm_sweep
):
    _swap_under_fire(swap_store, refs, max_wait_ms=1.0)


def test_swap_under_fire_while_the_dispatcher_waits_for_an_idle_worker(
    swap_store, refs, shm_sweep
):
    """Four clients on two workers, one of them reloading: the dispatcher is
    holding a group and waiting (window far above a request's work) while the
    reload it would queue behind keeps that worker busy."""
    _swap_under_fire(swap_store, refs, max_wait_ms=40.0)


def test_swap_without_pointer_move_is_a_noop(swap_store, refs, shm_sweep):
    probe, ref0, _ = refs
    swap_store.promote(0)
    pool = PoolPredictor(swap_store.root, workers=1, max_wait_ms=0.0)
    try:
        result = pool.swap()
        assert result["status"] == "noop"
        assert result["workers_respawned"] == 0
        assert pool.generation == 0
        np.testing.assert_array_equal(pool.predict_proba(probe[:8]), ref0[:8])
    finally:
        pool.close()


def test_swap_to_explicit_generation_and_back(swap_store, refs, shm_sweep):
    probe, ref0, ref1 = refs
    swap_store.promote(0)
    pool = PoolPredictor(swap_store.root, workers=1, max_wait_ms=0.0)
    try:
        forward = pool.swap(generation=1)
        assert forward["status"] == "ok"
        assert pool.generation == 1
        np.testing.assert_array_equal(pool.predict_proba(probe[:8]), ref1[:8])
        rollback = pool.swap(generation=0)
        assert rollback["status"] == "ok"
        assert rollback["previous_generation"] == 1
        assert pool.generation == 0
        np.testing.assert_array_equal(pool.predict_proba(probe[:8]), ref0[:8])
    finally:
        pool.close()


def test_swap_keeps_every_worker_process(swap_store, refs, shm_sweep):
    """A swap reloads each worker's predictor in place: the same processes
    serve the new generation, and no segment is made."""
    probe, _, ref1 = refs
    swap_store.promote(0)
    pool = PoolPredictor(swap_store.root, workers=2, max_wait_ms=0.0)
    try:
        pids = pool.info()["worker_pids"]
        segments = shm_entries()
        assert pool.swap(generation=1)["status"] == "ok"
        assert pool.info()["worker_pids"] == pids
        assert shm_entries() == segments
        np.testing.assert_array_equal(pool.predict_proba(probe[:8]), ref1[:8])
    finally:
        pool.close()


def test_a_swap_waits_for_a_worker_that_is_being_respawned(swap_store, refs, shm_sweep):
    """A worker evicted just before the swap is not skipped: the swap returns
    once it is back — on the target — so every worker answers on the new
    generation afterwards."""
    probe, _, ref1 = refs
    swap_store.promote(0)
    pool = PoolPredictor(
        swap_store.root, workers=2, max_wait_ms=0.0, restart_backoff=0.2,
        supervise_interval=0.05,
    )
    try:
        victim = pool._slots[1].process
        victim.kill()
        victim.join(timeout=10)
        deadline = time.monotonic() + 30
        while pool.healthz()["status"] == "ok":
            assert time.monotonic() < deadline, "the kill was never noticed"
            time.sleep(0.01)
        assert pool.swap(generation=1)["status"] == "ok"
        assert [slot.generation for slot in pool._slots] == [1, 1]
        while pool.healthz()["status"] != "ok":
            assert time.monotonic() < deadline, "the worker never came back"
            time.sleep(0.01)
        # Round-robin among idle workers: consecutive requests visit both.
        for _ in range(4):
            np.testing.assert_array_equal(pool.predict_proba(probe[:8]), ref1[:8])
    finally:
        pool.close()


def test_a_failed_swap_keeps_the_old_generation_serving(
    swap_store, refs, shm_sweep, tmp_path
):
    """A generation whose members cannot be loaded is refused by the worker
    that tries: the swap raises, and the pool — one worker, the same process —
    is healthy and answers on the generation it served before, bitwise."""
    probe, ref0, _ = refs
    root = tmp_path / "store"
    shutil.copytree(swap_store.root, root)
    store = ArtifactStore(root)
    store.promote(0)
    for member in (store.generation_path(1) / "members").glob("*.npz"):
        member.write_bytes(b"not a zip archive")
    pool = PoolPredictor(root, workers=1, max_wait_ms=0.0)
    try:
        pids = pool.info()["worker_pids"]
        with pytest.raises(RuntimeError, match="failed to load generation 1"):
            pool.swap(generation=1)
        assert pool.generation == 0
        assert pool.healthz()["status"] == "ok"
        assert pool.info()["worker_pids"] == pids
        np.testing.assert_array_equal(pool.predict_proba(probe[:8]), ref0[:8])
    finally:
        pool.close()


def test_second_swap_is_refused_while_one_runs(swap_store, shm_sweep):
    swap_store.promote(0)
    pool = PoolPredictor(swap_store.root, workers=1, max_wait_ms=0.0)
    try:
        assert pool._swap_lock.acquire(blocking=False)
        try:
            with pytest.raises(RuntimeError, match="already in progress"):
                pool.swap(generation=1)
        finally:
            pool._swap_lock.release()
    finally:
        pool.close()


def test_bare_directory_swap_is_a_noop(saved_artifact, shm_sweep):
    pool = PoolPredictor(saved_artifact, workers=1, max_wait_ms=0.0)
    try:
        result = pool.swap()
        assert result["status"] == "noop"
        assert pool.generation == 0
    finally:
        pool.close()


def test_close_during_a_rolling_swap_leaves_nothing_behind(
    swap_store, refs, shm_sweep, train_events, monkeypatch
):
    """``close()`` while ``swap()`` waits for a reload queued behind a busy
    worker's request.  ``close()`` drains the worker — it answers the request
    and may even finish the reload — yet the swap must fail, promptly (no
    ``STARTUP_TIMEOUT x workers`` wait), and nothing may appear behind the
    closed pool: no successor process, no new segment."""
    probe, ref0, _ = refs
    swap_store.promote(0)
    # The worker sits 2 s on its first request: time to start a swap and to
    # close the pool while the swap's reload waits behind that request.
    monkeypatch.setenv("REPRO_FAULTS", "serve_hang:times=1:seconds=2")
    pool = PoolPredictor(swap_store.root, workers=1, max_wait_ms=0.0)
    pids = pool.info()["worker_pids"]
    outcome = {}

    def call(name, function, *args):
        try:
            outcome[name] = function(*args)
        except BaseException as exc:
            outcome[name] = exc

    request = threading.Thread(target=call, args=("answer", pool.predict_proba, probe[:4]))
    swap = threading.Thread(target=call, args=("swap", pool.swap, 1))
    try:
        request.start()
        deadline = time.monotonic() + 30
        while pool._slots[0].load != 1:
            assert time.monotonic() < deadline, "request never dispatched"
            time.sleep(0.005)
        swap.start()
        while not any(event == "swap.started" for event, _ in train_events):
            assert time.monotonic() < deadline, "swap never started"
            time.sleep(0.005)
    finally:
        pool.close()
    swap.join(timeout=10)
    request.join(timeout=10)
    assert not swap.is_alive() and not request.is_alive()
    assert isinstance(outcome["swap"], RuntimeError), outcome
    np.testing.assert_array_equal(outcome["answer"], ref0[:4])
    # Nothing was spawned once close() had begun: no successor process (the
    # slot still names the original worker), no segment (shm_sweep).
    assert pool.info()["worker_pids"] == pids
    assert [p for p in mp.active_children() if p.name.startswith("repro-serve")] == []

"""Zero-downtime hot-swap in queue mode: the broker's target generation
moves, and every consumer reloads its predictor between two jobs while
client traffic keeps flowing.

Same kill-style guarantee as ``tests/parallel/test_hot_swap.py``, one tier
up: during :meth:`FleetFront.swap` no request is dropped and every response
is bitwise-equal to a cold-started predictor on either the old or the new
generation — never a mix within one request — across *multiple* consumers
converging at their own pace.
"""

from __future__ import annotations

import shutil
import statistics
import threading
import time

import numpy as np
import pytest

from repro.api import EnsemblePredictor, run_experiment
from repro.core.artifact_store import ArtifactStore
from repro.fleet import FleetConsumer, FleetFront
from repro.obs.metrics import get_registry
from tests.procs import ColdReference


@pytest.fixture(scope="module")
def swap_store(saved_artifact, experiment_dict, tmp_path_factory):
    root = tmp_path_factory.mktemp("fleet-swap") / "store"
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
    probe = serial_result.dataset.x_test
    ref0 = ColdReference(EnsemblePredictor.load(swap_store.root, generation=0), probe)
    ref1 = ColdReference(EnsemblePredictor.load(swap_store.root, generation=1), probe)
    assert not np.array_equal(ref0[:], ref1[:])
    return probe, ref0, ref1


def test_fleet_swap_under_fire_converges_all_consumers(swap_store, refs):
    probe, ref0, ref1 = refs
    swap_store.promote(0)
    front = FleetFront(
        swap_store.root,
        spawn_local=False,
        min_consumers=1,
        max_consumers=2,
    )
    consumers = [
        FleetConsumer(front.broker, swap_store.root, consumer_id=f"c{i}").start()
        for i in range(2)
    ]
    try:
        assert front.generation == 0
        stop = threading.Event()
        failures = []
        counts = {"old": 0, "new": 0}
        lock = threading.Lock()

        def hammer(tid):
            i = 0
            while not stop.is_set():
                start = (tid * 5 + i) % 40
                size = 1 + ((tid + i) % 5)
                batch = probe[start : start + size]
                try:
                    out = front.predict_proba(batch, timeout=60)
                except Exception as exc:
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
            threading.Thread(target=hammer, args=(tid,)) for tid in range(3)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.4)  # traffic flowing on generation 0
        swaps_ok = get_registry().get("repro_swap_total").labels("ok")
        swaps_before = swaps_ok.value
        swap_store.promote(1)
        result = front.swap(timeout=120)
        time.sleep(0.4)  # traffic flowing on generation 1
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        assert all(not thread.is_alive() for thread in threads)
        assert not failures, failures[:3]
        assert result["status"] == "ok"
        assert result["previous_generation"] == 0
        assert result["generation"] == 1
        assert result["consumers_acked"] == 2
        assert swaps_ok.value == swaps_before + 1
        assert counts["old"] > 0 and counts["new"] > 0, counts
        assert front.generation == 1
        assert front.info()["generation"] == 1
        assert front.healthz()["generation"] == 1
        for consumer in consumers:
            assert consumer.predictor.generation == 1
        stats = front.broker.stats()
        assert stats["target_generation"] == 1
        assert stats["consumer_generations"] == {"c0": 1, "c1": 1}
        assert stats["target_failures"] == {}
        # Post-swap the whole fleet answers purely from the new generation.
        np.testing.assert_array_equal(
            front.predict_proba(probe, timeout=60), ref1[:]
        )
    finally:
        for consumer in consumers:
            consumer.close()
        front.close()


def test_fleet_swap_without_pointer_move_is_a_noop(swap_store):
    swap_store.promote(0)
    front = FleetFront(
        swap_store.root, spawn_local=False
    )
    try:
        result = front.swap()
        assert result["status"] == "noop"
        assert result["consumers_acked"] == 0
        assert front.generation == 0
    finally:
        front.close()


def test_a_second_swap_is_refused_while_one_runs(swap_store, monkeypatch):
    """Queue mode holds the same one-swap lock as the pool: a swap issued
    while another waits for its consumers is refused at once, and the first
    still converges."""
    reload = EnsemblePredictor.reload

    def slow_reload(self, *args, **kwargs):
        time.sleep(1.0)
        return reload(self, *args, **kwargs)

    monkeypatch.setattr(EnsemblePredictor, "reload", slow_reload)
    swap_store.promote(0)
    front = FleetFront(
        swap_store.root, spawn_local=False, max_consumers=2
    )
    consumers = [
        FleetConsumer(front.broker, swap_store.root, consumer_id=f"c{i}").start()
        for i in range(2)
    ]
    outcome = {}

    def first_swap():
        try:
            outcome["first"] = front.swap(generation=1, timeout=60)
        except BaseException as exc:
            outcome["first"] = exc

    first = threading.Thread(target=first_swap)
    try:
        first.start()
        time.sleep(0.2)
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="already in progress"):
            front.swap(generation=0)
        assert time.monotonic() - started < 0.5
        first.join(timeout=60)
        assert not first.is_alive()
        assert isinstance(outcome["first"], dict), outcome
        assert outcome["first"]["status"] == "ok"
        assert outcome["first"]["consumers_acked"] == 2
        assert front.generation == 1
    finally:
        for consumer in consumers:
            consumer.close()
        front.close()


def test_a_failed_swap_rolls_the_fleet_back(swap_store, refs, tmp_path):
    """A generation one consumer cannot load fails the swap; the front
    publishes the old one again and every consumer ends on it."""
    probe, ref0, _ = refs
    root = tmp_path / "store"
    shutil.copytree(swap_store.root, root)
    store = ArtifactStore(root)
    store.promote(0)
    front = FleetFront(root, spawn_local=False, max_consumers=2)
    consumers = [
        FleetConsumer(front.broker, root, consumer_id=f"c{i}").start()
        for i in range(2)
    ]
    try:
        # Loadable for c0, which reloads; not for c1, which refuses.
        def unreadable(**kwargs):
            raise OSError("unreadable")

        consumers[1].predictor.reload = unreadable
        with pytest.raises(RuntimeError, match="c1: OSError: unreadable"):
            front.swap(generation=1, timeout=60)
        assert front.generation == 0
        assert [consumer.predictor.generation for consumer in consumers] == [0, 0]
        for _ in range(4):
            np.testing.assert_array_equal(front.predict_proba(probe[:8], timeout=60), ref0[:8])
    finally:
        for consumer in consumers:
            consumer.close()
        front.close()


def test_a_late_consumer_serves_the_pinned_generation_not_current(swap_store, refs):
    """``CURRENT`` is 1 and the fleet was swapped to generation 0: a consumer
    that joins now loads 1, and its first lease moves it onto 0 before it
    answers anything — every answer is generation 0's, bitwise.  A consumer
    that joins on the target already (the first one here) never reloads."""
    probe, ref0, ref1 = refs
    swap_store.promote(1)
    front = FleetFront(swap_store.root, spawn_local=False)
    first = FleetConsumer(front.broker, swap_store.root, consumer_id="first").start()
    loaded = first.predictor._served
    late = None
    try:
        np.testing.assert_array_equal(front.predict_proba(probe[:8], timeout=60), ref1[:8])
        assert first.predictor._served is loaded
        assert front.swap(generation=0, timeout=60)["status"] == "ok"
        first.close()
        late = FleetConsumer(front.broker, swap_store.root, consumer_id="late")
        assert late.predictor.generation == 1
        late.start()
        for start in range(0, 40, 8):
            np.testing.assert_array_equal(
                front.predict_proba(probe[start : start + 8], timeout=60),
                ref0[start : start + 8],
            )
        assert late.predictor.generation == 0
        assert front.broker.stats()["consumer_generations"] == {"late": 0}
    finally:
        first.close()
        if late is not None:
            late.close()
        front.close()
        swap_store.promote(0)


def test_a_late_consumer_serves_the_fronts_generation_when_current_moved(swap_store, refs):
    """``CURRENT`` moved to 1 with no swap: the front still serves 0, and so
    does a consumer that loads 1 when it joins."""
    probe, ref0, _ = refs
    swap_store.promote(0)
    front = FleetFront(swap_store.root, spawn_local=False)
    consumer = None
    try:
        swap_store.promote(1)
        consumer = FleetConsumer(front.broker, swap_store.root, consumer_id="late").start()
        for start in range(0, 40, 8):
            np.testing.assert_array_equal(
                front.predict_proba(probe[start : start + 8], timeout=60),
                ref0[start : start + 8],
            )
        assert consumer.predictor.generation == front.generation == 0
    finally:
        if consumer is not None:
            consumer.close()
        front.close()
        swap_store.promote(0)


def _wait_for_stats(front, predicate, what):
    """Wait until the broker's ``stats()`` satisfy ``predicate``."""
    deadline = time.monotonic() + 60
    while not predicate(front.broker.stats()):
        assert time.monotonic() < deadline, what
        time.sleep(0.02)


def test_swap_to_the_served_generation_is_a_noop_and_a_failed_one_keeps_serving(
    swap_store, refs
):
    """A target a consumer already serves asks nothing of it: no reload.  One
    it cannot load is reported as its failure, and the generation it served
    before keeps answering, bitwise."""
    probe, ref0, _ = refs
    swap_store.promote(0)
    front = FleetFront(
        swap_store.root, spawn_local=False
    )
    consumer = FleetConsumer(front.broker, swap_store.root, consumer_id="c").start()
    loaded = consumer.predictor._served
    try:
        front.broker.set_target(0)
        np.testing.assert_array_equal(front.predict_proba(probe[:8], timeout=60), ref0[:8])
        assert front.broker.stats()["consumer_generations"] == {"c": 0}
        assert consumer.predictor._served is loaded

        front.broker.set_target(7)
        _wait_for_stats(front, lambda stats: "c" in stats["target_failures"], "c never reported")
        assert "FileNotFoundError" in front.broker.stats()["target_failures"]["c"]
        assert consumer.predictor.generation == 0
        assert consumer.predictor._served is loaded
        np.testing.assert_array_equal(
            front.predict_proba(probe[:8], timeout=60), ref0[:8]
        )
        assert front.broker.stats()["consumer_generations"] == {"c": 0}
    finally:
        consumer.close()
        front.close()


def test_front_0_swaps_like_any_consumer(swap_store, refs):
    """The front's own consumer is handed the target and reports like a
    subprocess consumer: a swap of a one-consumer front moves front-0."""
    probe, ref0, ref1 = refs
    swap_store.promote(0)
    front = FleetFront(swap_store.root, min_consumers=1, max_consumers=1)
    try:
        front.wait_ready(timeout=10)
        assert np.array_equal(front.predict_proba(probe[:8], timeout=60), ref0[:8])
        swap_store.promote(1)
        result = front.swap()
        assert result["status"] == "ok" and result["consumers_acked"] == 1
        assert front.generation == 1
        assert np.array_equal(front.predict_proba(probe[:8], timeout=60), ref1[:8])
    finally:
        front.close()
        swap_store.promote(0)


def test_a_pending_swap_is_applied_before_the_next_inline_answer(swap_store, refs, monkeypatch):
    """A sync call answers on its own thread only while ``front-0`` serves
    the broker's target generation (it reloads under its lane lock, between
    two answers): once the target moves, calls queue — ``front-0``'s thread
    may still answer them on the old generation — and the first inline
    answer is the new generation's.  Every answer is one generation's,
    bitwise."""
    probe, ref0, ref1 = refs
    swap_store.promote(0)
    answered = []  # (thread, generation served) per answer, as it starts
    real_answer = FleetConsumer.answer

    def recording_answer(self, job, deliver=True):
        answered.append((threading.current_thread().name, self.predictor.generation))
        return real_answer(self, job, deliver=deliver)

    monkeypatch.setattr(FleetConsumer, "answer", recording_answer)
    caller = threading.current_thread().name
    front = FleetFront(swap_store.root, min_consumers=1, max_consumers=1)
    try:
        front.wait_ready(timeout=10)
        np.testing.assert_array_equal(front.predict_proba(probe[:2], timeout=60), ref0[:2])
        assert answered == [(caller, 0)]
        swap_store.promote(1)
        front.broker.set_target(1)
        for _ in range(200):
            out = front.predict_proba(probe[:2], timeout=60)
            thread, generation = answered[-1]
            np.testing.assert_array_equal(out, (ref0, ref1)[generation][:2])
            if thread == caller:
                break
            assert thread == "repro-fleet-consumer-front-0"
            time.sleep(0.01)
        assert (thread, generation) == (caller, 1), answered
        assert front.broker.stats()["consumer_generations"]["front-0"] == 1
    finally:
        front.close()
        swap_store.promote(0)


def test_a_swap_on_an_idle_front_does_not_wait_out_a_lease(swap_store):
    """An idle ``front-0`` waits in ``lease``: a new target ends that wait at
    once, so a swap takes about one reload, not the rest of a lease wait."""
    swap_store.promote(0)
    front = FleetFront(swap_store.root, min_consumers=1, max_consumers=1)
    try:
        front.wait_ready(timeout=10)
        seconds = []
        for generation in (1, 0, 1, 0, 1):
            time.sleep(0.05)  # front-0 back in its lease wait
            result = front.swap(generation=generation, timeout=60)
            assert result["status"] == "ok" and result["generation"] == generation, result
            seconds.append(result["swap_seconds"])
        assert statistics.median(seconds) <= 0.15, seconds
    finally:
        front.close()
        swap_store.promote(0)

"""Registry snapshot / merge: how worker metrics travel to the parent."""

from __future__ import annotations

import pickle

from repro.obs.metrics import MetricsRegistry, get_registry


def _worker_registry():
    registry = MetricsRegistry(enabled=True)
    registry.counter("jobs_total", "Jobs.", ()).inc(3)
    registry.counter("errs_total", "Errors.", ("kind",)).labels("io").inc(2)
    registry.gauge("last_loss", "Loss.", ("model",)).labels("m1").set(0.5)
    registry.histogram("latency", "Latency.", (), buckets=(0.1, 1.0)).observe(0.05)
    registry.histogram("latency", "Latency.", (), buckets=(0.1, 1.0)).observe(2.0)
    return registry


def test_snapshot_is_plain_data_and_picklable():
    snapshot = _worker_registry().snapshot()
    assert pickle.loads(pickle.dumps(snapshot)) == snapshot
    assert snapshot["jobs_total"]["samples"] == [[[], 3.0]]
    assert snapshot["latency"]["buckets"] == [0.1, 1.0]
    ((_, (counts, total)),) = [tuple(s) for s in snapshot["latency"]["samples"]]
    assert counts == [1, 0, 1] and total == 2.05


def test_merge_accumulates_counters_and_histograms():
    parent = MetricsRegistry(enabled=True)
    parent.counter("jobs_total", "Jobs.", ()).inc(10)
    parent.histogram("latency", "Latency.", (), buckets=(0.1, 1.0)).observe(0.5)
    parent.merge_snapshot(_worker_registry().snapshot())
    parent.merge_snapshot(_worker_registry().snapshot())

    assert parent.get("jobs_total").value == 16
    assert parent.get("errs_total").labels("io").value == 4
    histogram = parent.get("latency")
    assert histogram.count == 5 and histogram.sum == 0.5 + 2 * 2.05


def test_merge_sets_gauges_last_writer_wins():
    parent = MetricsRegistry(enabled=True)
    parent.gauge("last_loss", "Loss.", ("model",)).labels("m1").set(9.0)
    parent.merge_snapshot(_worker_registry().snapshot())
    assert parent.get("last_loss").labels("m1").value == 0.5


def test_merge_registers_unknown_metrics_on_the_fly():
    parent = MetricsRegistry(enabled=True)
    parent.merge_snapshot(_worker_registry().snapshot())
    assert "jobs_total" in parent and "latency" in parent


def test_untouched_gauges_do_not_clobber_parent():
    """A worker that *registered* a gauge but never wrote it must not reset
    the parent's value to 0 on merge (the resume-restored gauge regression)."""
    worker = MetricsRegistry(enabled=True)
    worker.gauge("restored", "Restored.", ())  # registered, never set
    worker.gauge("batches", "Batches.", ("worker",)).labels("7")  # child, never set

    parent = MetricsRegistry(enabled=True)
    parent.gauge("restored", "Restored.", ()).set(5)
    snapshot = worker.snapshot()
    assert snapshot["restored"]["samples"] == []
    assert snapshot["batches"]["samples"] == []
    parent.merge_snapshot(snapshot)
    assert parent.get("restored").value == 5

    # An explicit set(0) IS information and does travel.
    worker.gauge("restored", "Restored.", ()).set(0)
    parent.merge_snapshot(worker.snapshot())
    assert parent.get("restored").value == 0


def test_merge_skips_process_gauges():
    worker = MetricsRegistry(enabled=True)
    worker.gauge("repro_process_rss_bytes", "RSS.", ()).set(123.0)
    worker.counter("repro_process_like_counter_total", "Kept.", ()).inc()
    parent = MetricsRegistry(enabled=True)
    parent.merge_snapshot(worker.snapshot())
    assert "repro_process_rss_bytes" not in parent
    assert parent.get("repro_process_like_counter_total").value == 1


def test_snapshot_reset_snapshot_ships_deltas_once():
    """The worker protocol — snapshot then reset after every task — never
    double-counts work across consecutive merges."""
    worker = _worker_registry()
    parent = MetricsRegistry(enabled=True)
    parent.merge_snapshot(worker.snapshot())
    worker.reset()
    parent.merge_snapshot(worker.snapshot())  # idle delta: nothing new
    assert parent.get("jobs_total").value == 3
    assert parent.get("latency").count == 2
    worker.counter("jobs_total", "Jobs.", ()).inc()
    parent.merge_snapshot(worker.snapshot())
    worker.reset()
    assert parent.get("jobs_total").value == 4


def test_in_process_training_never_resets_the_parent_registry():
    """Snapshot-then-reset is the *worker's* protocol: a ``workers=1`` run
    fits its tasks in this process through the same function workers call,
    and must leave everything the parent registry already counted alone."""
    from repro.api import run_experiment

    counter = get_registry().counter(
        "test_parent_survives_training_total", "Set before an in-process run."
    )
    counter.inc(7)
    run_experiment(
        {
            "name": "registry-survives",
            "dataset": {
                "name": "tabular",
                "train_samples": 64,
                "test_samples": 16,
                "num_classes": 3,
                "num_features": 6,
                "seed": 1,
            },
            "members": {
                "family": "mlp",
                "count": 2,
                "input_features": 6,
                "num_classes": 3,
                "base_width": 6,
                "seed": 1,
            },
            "approach": "full-data",
            "training": {"max_epochs": 1, "batch_size": 32, "workers": 1},
            "seed": 0,
        }
    )
    assert counter.value == 7

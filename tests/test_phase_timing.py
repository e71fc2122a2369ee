"""Tests for the opt-in compute-phase timing registry and its cost-ledger
integration (distinguishing data movement from BLAS compute)."""

import numpy as np

from repro.arch import vgg
from repro.core import FullDataTrainer, MotherNetsTrainer
from repro.core.cost_model import CostLedger
from repro.data import cifar10_like
from repro.nn import Model, Trainer, TrainingConfig
from repro.utils import timing


def test_registry_disabled_by_default():
    assert not timing.phase_timing_enabled()
    timing.record_phase("conv.gemm", 1.0)  # no-op, must not raise
    assert timing.phase_timings() == {}


def test_enable_record_disable_cycle():
    acc = timing.enable_phase_timing()
    try:
        timing.record_phase("conv.gemm", 0.5)
        timing.record_phase("conv.gemm", 0.25)
        timing.record_phase("conv.im2col", 0.1)
        assert timing.phase_timings() == {"conv.gemm": 0.75, "conv.im2col": 0.1}
        assert acc.total == 0.85
    finally:
        timing.disable_phase_timing()
    assert timing.phase_timings() == {}


def test_capture_sees_only_its_own_delta():
    with timing.capture_phase_timings() as outer:
        timing.record_phase("a", 1.0)
        with timing.capture_phase_timings() as inner:
            timing.record_phase("a", 0.5)
            timing.record_phase("b", 2.0)
        timing.record_phase("a", 0.25)
    assert inner == {"a": 0.5, "b": 2.0}
    assert outer == {"a": 1.75, "b": 2.0}
    assert not timing.phase_timing_enabled()


def test_conv_training_reports_compute_phases(tiny_vgg_spec):
    model = Model.from_spec(tiny_vgg_spec, seed=0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(32, *tiny_vgg_spec.input_shape))
    y = rng.integers(0, tiny_vgg_spec.num_classes, size=32)
    with timing.capture_phase_timings() as phases:
        Trainer(TrainingConfig(max_epochs=1, batch_size=16)).fit(model, x, y, seed=0)
    for key in ("conv.im2col", "conv.gemm", "conv.col2im"):
        assert key in phases and phases[key] > 0.0, phases


def test_norm_and_pool_report_one_record_per_call(monkeypatch):
    calls = []
    monkeypatch.setattr(
        timing, "record_phase", lambda category, seconds: calls.append((category, seconds))
    )
    monkeypatch.setattr(timing, "phase_timing_enabled", lambda: True)
    from repro.nn.layers import BatchNorm, MaxPool2D

    x = np.random.default_rng(0).normal(size=(4, 3, 4, 4)).astype(np.float32)
    norm, pool = BatchNorm(3), MaxPool2D(2)
    pooled = pool.forward(norm.forward(x, training=True), training=True)
    norm.backward(pool.backward(np.ones_like(pooled)))
    norm.forward(x)  # inference is timed too
    assert [category for category, _ in calls] == [
        "norm.forward", "pool.forward", "pool.backward", "norm.backward", "norm.forward",
    ]
    assert all(seconds > 0.0 for _, seconds in calls)


def test_ledger_aggregates_compute_phases():
    ledger = CostLedger(approach="x")
    ledger.add("a", "member", 1, 1.0, 10, 100, compute_phases={"conv.gemm": 0.4})
    ledger.add("b", "member", 1, 1.0, 10, 100,
               compute_phases={"conv.gemm": 0.1, "conv.im2col": 0.2})
    ledger.add("c", "member", 1, 1.0, 10, 100)
    assert ledger.seconds_by_compute_phase() == {"conv.gemm": 0.5, "conv.im2col": 0.2}


def test_ensemble_trainer_fills_ledger_breakdown():
    dataset = cifar10_like(train_samples=64, test_samples=16, image_shape=(3, 8, 8), seed=0)
    specs = [vgg("V13", num_classes=10, input_shape=(3, 8, 8), width_scale=0.05)]
    config = TrainingConfig(max_epochs=1, batch_size=32)
    run = FullDataTrainer(config).train(specs, dataset, seed=0)
    breakdown = run.ledger.seconds_by_compute_phase()
    assert breakdown.get("conv.gemm", 0.0) > 0.0
    assert all(record.compute_phases for record in run.ledger.records)
    # And the opt-out leaves records clean.
    run_off = FullDataTrainer(config, collect_phase_timings=False).train(specs, dataset, seed=0)
    assert run_off.ledger.seconds_by_compute_phase() == {}


def test_mothernets_trainer_fills_ledger_breakdown():
    dataset = cifar10_like(train_samples=64, test_samples=16, image_shape=(3, 8, 8), seed=0)
    specs = [
        vgg("V13", num_classes=10, input_shape=(3, 8, 8), width_scale=0.05),
        vgg("V16", num_classes=10, input_shape=(3, 8, 8), width_scale=0.05),
    ]
    config = TrainingConfig(max_epochs=1, batch_size=32)
    run = MotherNetsTrainer(config, tau=0.0).train(specs, dataset, seed=0)
    assert run.ledger.seconds_by_compute_phase().get("conv.gemm", 0.0) > 0.0
    from repro.core.trainer import summarize_run

    summary = summarize_run(run)
    assert "seconds_by_compute_phase" in summary

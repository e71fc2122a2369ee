"""Unit tests for the load-aware autoscaler: burst response, hysteresis,
cooldown discipline, and bounds — all with a synthetic clock and signals, at
the module's constants unless a test patches one."""

import math

import pytest

from repro.fleet import autoscaler
from repro.fleet.autoscaler import Autoscaler, AutoscaleSignals


class Harness:
    """Synthetic fleet: injectable clock + signals, counting scale calls."""

    def __init__(self, consumers=1, min_consumers=1, max_consumers=3):
        self.now = 0.0
        self.consumers = consumers
        self.queue_depth = 0
        self.p99 = float("nan")
        self.actions = []
        self.scaler = Autoscaler(
            min_consumers=min_consumers,
            max_consumers=max_consumers,
            get_signals=lambda: AutoscaleSignals(
                queue_depth=self.queue_depth,
                p99_seconds=self.p99,
                consumers=self.consumers,
            ),
            scale_up=self._up,
            scale_down=self._down,
            clock=lambda: self.now,
        )

    def _up(self):
        self.consumers += 1

    def _down(self):
        self.consumers -= 1

    def tick(self, at=None):
        if at is not None:
            self.now = at
        action = self.scaler.tick()
        if action is not None:
            self.actions.append((self.now, action))
        return action


def test_burst_scales_min_to_max_and_back_down():
    h = Harness(consumers=1, min_consumers=1, max_consumers=3)
    # Burst: deep backlog drives consumers 1 -> 3, one step per cooldown.
    h.queue_depth = 100
    assert h.tick(at=0.0) == "up"
    assert h.tick(at=10.0) == "up"
    assert h.consumers == 3
    # At max: still hot, but capped.
    assert h.tick(at=20.0) is None
    # Burst over: drain back down to min, again one step per cooldown.
    h.queue_depth = 0
    h.p99 = float("nan")
    assert h.tick(at=30.0) == "down"
    assert h.tick(at=40.0) == "down"
    assert h.consumers == 1
    # At min: stays put.
    assert h.tick(at=50.0) is None
    assert [a for _, a in h.actions] == ["up", "up", "down", "down"]


def test_cooldown_blocks_actions_inside_the_window():
    h = Harness(consumers=1, max_consumers=5)
    h.queue_depth = 100
    assert h.tick(at=0.0) == "up"
    for t in (1.0, 5.0, 9.9):
        assert h.tick(at=t) is None, f"acted inside cooldown at t={t}"
    assert h.tick(at=10.0) == "up"
    # No two actions ever closer than the cooldown.
    gaps = [b[0] - a[0] for a, b in zip(h.actions, h.actions[1:])]
    assert all(gap >= autoscaler.COOLDOWN for gap in gaps)


def test_a_patched_cooldown_changes_the_tick_spacing(monkeypatch):
    """The cooldown is read at every tick, not when the scaler is built."""
    h = Harness(consumers=1, max_consumers=5)
    monkeypatch.setattr(autoscaler, "COOLDOWN", 3.0)
    h.queue_depth = 100
    assert h.tick(at=0.0) == "up"
    assert h.tick(at=2.9) is None
    assert h.tick(at=3.0) == "up"
    assert h.tick(at=6.0) == "up"
    assert [t for t, _ in h.actions] == [0.0, 3.0, 6.0]


def test_no_oscillation_between_thresholds():
    """A load level inside the hysteresis band (above scale-down, below
    scale-up) must produce no action in either direction."""
    h = Harness(consumers=2)
    h.queue_depth = 4  # 2.0 per consumer: neither > 4.0 nor <= 1.0
    h.p99 = 1.0  # between down (0.5) and up (2.0)
    for t in (0.0, 15.0, 30.0, 45.0):
        assert h.tick(at=t) is None
    assert h.consumers == 2 and h.actions == []


def test_scale_up_on_hot_p99_alone():
    h = Harness(consumers=1)
    h.queue_depth = 0
    h.p99 = 5.0
    assert h.tick(at=0.0) == "up"


def test_scale_down_requires_backlog_and_latency_both_cold():
    h = Harness(consumers=2)
    h.queue_depth = 0
    h.p99 = 5.0  # latency still hot: must not scale down ...
    assert h.tick(at=0.0) == "up"  # ... it scales UP (p99 over threshold)
    h = Harness(consumers=2, max_consumers=2)
    h.queue_depth = 0
    h.p99 = 1.0  # not hot enough to go up, not cold enough to go down
    assert h.tick(at=0.0) is None
    h.p99 = float("nan")  # empty window counts as cold
    assert h.tick(at=1.0) == "down"


def test_backlog_is_normalised_per_consumer():
    h = Harness(consumers=4, max_consumers=8)
    h.queue_depth = 16  # 4.0 per consumer: not strictly above the threshold
    assert h.tick(at=0.0) is None
    h.queue_depth = 17
    assert h.tick(at=1.0) == "up"


def test_the_thresholds_keep_hysteresis():
    """Each scale-down threshold sits strictly below its scale-up one."""
    assert autoscaler.DOWN_QUEUE_DEPTH < autoscaler.UP_QUEUE_DEPTH
    assert autoscaler.DOWN_P99_SECONDS < autoscaler.UP_P99_SECONDS


def test_constructor_enforces_bounds():
    def build(**kwargs):
        defaults = dict(
            min_consumers=1,
            max_consumers=2,
            get_signals=lambda: AutoscaleSignals(0, math.nan, 1),
            scale_up=lambda: None,
            scale_down=lambda: None,
        )
        defaults.update(kwargs)
        return Autoscaler(**defaults)

    with pytest.raises(ValueError):
        build(min_consumers=0)
    with pytest.raises(ValueError):
        build(min_consumers=3, max_consumers=2)


def test_state_reports_configuration_and_last_action():
    h = Harness(consumers=1)
    state = h.scaler.state()
    assert state["min_consumers"] == 1
    assert state["max_consumers"] == 3
    assert (
        state["cooldown_seconds"],
        state["up_queue_depth"],
        state["up_p99_seconds"],
        state["down_queue_depth"],
        state["down_p99_seconds"],
    ) == (
        autoscaler.COOLDOWN,
        autoscaler.UP_QUEUE_DEPTH,
        autoscaler.UP_P99_SECONDS,
        autoscaler.DOWN_QUEUE_DEPTH,
        autoscaler.DOWN_P99_SECONDS,
    )
    assert state["last_action"] is None
    h.queue_depth = 100
    h.tick(at=0.0)
    assert h.scaler.state()["last_action"] == "up"

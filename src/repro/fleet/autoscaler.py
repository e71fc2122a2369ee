"""Load-aware autoscaler for the fleet's consumer capacity.

Scaling decisions are made from the two signals the queue tier already
measures: **backlog** (the broker's queue-depth gauge, normalised per
consumer) and **tail latency** (a windowed p99 of the end-to-end job latency
histogram — :func:`repro.obs.metrics.quantile_from_counts` over the bucket
counts observed since the previous tick).  Capacity grows when either signal
is hot and shrinks only when *both* are cold.

Two mechanisms keep it from flapping:

* **Hysteresis** — the scale-down thresholds sit strictly below the
  scale-up thresholds, so a load level that just triggered growth can never
  immediately justify shrinking back.
* **Cooldown** — after any action the scaler holds still for
  ``cooldown_seconds``, long enough for the new capacity to show up in the
  signals (a freshly spawned consumer takes seconds to load its predictor).

The class is deliberately mechanism-free: it reads signals through a
callable and acts through ``scale_up``/``scale_down`` callbacks, with an
injectable clock — :meth:`tick` is therefore unit-testable with synthetic
bursts, and the serving front wires the same object to its real broker and
consumer manager.  It runs no thread: the front's one loop calls :meth:`tick`
every ``interval`` seconds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.obs.events import log_event
from repro.obs.metrics import get_registry
from repro.utils.logging import get_logger

logger = get_logger("fleet.autoscaler")

_metrics = get_registry()
_DESIRED = _metrics.gauge(
    "repro_fleet_desired_consumers",
    "Consumer capacity the autoscaler currently wants.",
)
_ACTIONS = _metrics.counter(
    "repro_fleet_autoscale_actions_total",
    "Autoscaler capacity changes.",
    ("direction",),
)

__all__ = ["Autoscaler", "AutoscaleSignals"]


@dataclass
class AutoscaleSignals:
    """One tick's view of the fleet."""

    queue_depth: int
    p99_seconds: float  # nan when nothing was observed in the window
    consumers: int  # current capacity the scaler is steering


class Autoscaler:
    """Grow/shrink consumer capacity between ``min_consumers`` and
    ``max_consumers`` from queue depth and tail latency.

    ``get_signals`` returns an :class:`AutoscaleSignals`; ``scale_up`` /
    ``scale_down`` change capacity by one consumer.  Scale-up fires when the
    per-consumer backlog exceeds ``up_queue_depth`` *or* the windowed p99
    exceeds ``up_p99_seconds``; scale-down requires the backlog at or below
    ``down_queue_depth`` *and* the p99 below ``down_p99_seconds`` (an empty
    window counts as cold).  One action per tick, never inside the cooldown;
    ``interval`` is how often the owner ticks it.
    """

    def __init__(
        self,
        min_consumers: int,
        max_consumers: int,
        get_signals: Callable[[], AutoscaleSignals],
        scale_up: Callable[[], None],
        scale_down: Callable[[], None],
        up_queue_depth: float = 4.0,
        up_p99_seconds: float = 2.0,
        down_queue_depth: float = 1.0,
        down_p99_seconds: float = 0.5,
        cooldown_seconds: float = 10.0,
        interval: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if min_consumers < 1:
            raise ValueError("min_consumers must be at least 1")
        if max_consumers < min_consumers:
            raise ValueError("need min_consumers <= max_consumers")
        if down_queue_depth >= up_queue_depth:
            raise ValueError(
                "hysteresis requires down_queue_depth < up_queue_depth"
            )
        if down_p99_seconds >= up_p99_seconds:
            raise ValueError(
                "hysteresis requires down_p99_seconds < up_p99_seconds"
            )
        if cooldown_seconds < 0 or interval <= 0:
            raise ValueError("cooldown_seconds must be >= 0 and interval > 0")
        self.min_consumers = int(min_consumers)
        self.max_consumers = int(max_consumers)
        self.up_queue_depth = float(up_queue_depth)
        self.up_p99_seconds = float(up_p99_seconds)
        self.down_queue_depth = float(down_queue_depth)
        self.down_p99_seconds = float(down_p99_seconds)
        self.cooldown_seconds = float(cooldown_seconds)
        self.interval = float(interval)
        self._get_signals = get_signals
        self._scale_up = scale_up
        self._scale_down = scale_down
        self._clock = clock
        # Cold start: allow an action on the very first tick.
        self._last_action_at: Optional[float] = None
        self._last_action: Optional[str] = None

    # ------------------------------------------------------------------ core
    def tick(self) -> Optional[str]:
        """Evaluate the signals once; returns ``"up"``/``"down"``/``None``."""
        now = self._clock()
        if (
            self._last_action_at is not None
            and now - self._last_action_at < self.cooldown_seconds
        ):
            return None
        signals = self._get_signals()
        consumers = max(1, int(signals.consumers))
        backlog_per_consumer = signals.queue_depth / consumers
        p99 = float(signals.p99_seconds)
        latency_hot = not math.isnan(p99) and p99 > self.up_p99_seconds
        latency_cold = math.isnan(p99) or p99 < self.down_p99_seconds

        action: Optional[str] = None
        if (
            backlog_per_consumer > self.up_queue_depth or latency_hot
        ) and signals.consumers < self.max_consumers:
            self._scale_up()
            _ACTIONS.labels("up").inc()
            _DESIRED.set(signals.consumers + 1)
            action = "up"
        elif (
            backlog_per_consumer <= self.down_queue_depth
            and latency_cold
            and signals.consumers > self.min_consumers
        ):
            self._scale_down()
            _ACTIONS.labels("down").inc()
            _DESIRED.set(signals.consumers - 1)
            action = "down"
        if action is not None:
            self._last_action_at = now
            self._last_action = action
            logger.info(
                "autoscale %s: depth/consumer=%.1f p99=%.3fs consumers=%d",
                action,
                backlog_per_consumer,
                p99,
                signals.consumers,
            )
            log_event(
                "fleet.autoscale",
                direction=action,
                queue_depth=signals.queue_depth,
                p99_seconds=None if math.isnan(p99) else p99,
                consumers=signals.consumers,
            )
        return action

    def state(self) -> Dict[str, object]:
        """JSON-friendly scaler state for ``/info``."""
        return {
            "min_consumers": self.min_consumers,
            "max_consumers": self.max_consumers,
            "cooldown_seconds": self.cooldown_seconds,
            "up_queue_depth": self.up_queue_depth,
            "up_p99_seconds": self.up_p99_seconds,
            "down_queue_depth": self.down_queue_depth,
            "down_p99_seconds": self.down_p99_seconds,
            "last_action": self._last_action,
        }

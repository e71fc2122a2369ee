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
  :data:`COOLDOWN` seconds, long enough for the new capacity to show up in
  the signals (a freshly spawned consumer takes seconds to load its
  predictor).

The thresholds and the cooldown are module constants, read at every tick
(tests patch them).

The class is deliberately mechanism-free: it reads signals through a
callable and acts through ``scale_up``/``scale_down`` callbacks, with an
injectable clock — :meth:`tick` is therefore unit-testable with synthetic
bursts, and the serving front wires the same object to its real broker and
consumer manager.  It runs no thread: the front's one loop calls :meth:`tick`
every :data:`TICK_INTERVAL` seconds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.obs.events import log_event
from repro.obs.metrics import get_registry

#: The thresholds :meth:`Autoscaler.tick` compares with; each DOWN_* sits
#: strictly below its UP_* (hysteresis).
UP_QUEUE_DEPTH = 4.0
DOWN_QUEUE_DEPTH = 1.0
UP_P99_SECONDS = 2.0
DOWN_P99_SECONDS = 0.5
#: Seconds the scaler holds still after any action.
COOLDOWN = 10.0
#: Seconds between two ticks; read by the front's loop when it starts.
TICK_INTERVAL = 1.0

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
    per-consumer backlog exceeds :data:`UP_QUEUE_DEPTH` *or* the windowed
    p99 exceeds :data:`UP_P99_SECONDS`; scale-down requires the backlog at or
    below :data:`DOWN_QUEUE_DEPTH` *and* the p99 below
    :data:`DOWN_P99_SECONDS` (an empty window counts as cold).  One action
    per tick, never inside the :data:`COOLDOWN`.
    """

    def __init__(
        self,
        min_consumers: int,
        max_consumers: int,
        get_signals: Callable[[], AutoscaleSignals],
        scale_up: Callable[[], None],
        scale_down: Callable[[], None],
        clock: Callable[[], float] = time.monotonic,
    ):
        if min_consumers < 1:
            raise ValueError("min_consumers must be at least 1")
        if max_consumers < min_consumers:
            raise ValueError("need min_consumers <= max_consumers")
        self.min_consumers = int(min_consumers)
        self.max_consumers = int(max_consumers)
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
            and now - self._last_action_at < COOLDOWN
        ):
            return None
        signals = self._get_signals()
        consumers = max(1, int(signals.consumers))
        backlog_per_consumer = signals.queue_depth / consumers
        p99 = float(signals.p99_seconds)
        latency_hot = not math.isnan(p99) and p99 > UP_P99_SECONDS
        latency_cold = math.isnan(p99) or p99 < DOWN_P99_SECONDS

        action: Optional[str] = None
        if (
            backlog_per_consumer > UP_QUEUE_DEPTH or latency_hot
        ) and signals.consumers < self.max_consumers:
            self._scale_up()
            _ACTIONS.labels("up").inc()
            _DESIRED.set(signals.consumers + 1)
            action = "up"
        elif (
            backlog_per_consumer <= DOWN_QUEUE_DEPTH
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
            log_event(
                "fleet.autoscale",
                direction=action,
                queue_depth=signals.queue_depth,
                p99_seconds=None if math.isnan(p99) else p99,
                consumers=signals.consumers,
            )
        return action

    def state(self) -> Dict[str, object]:
        """JSON-friendly scaler state for ``/info``: its bounds, the module
        constants it steers by and its last action."""
        return {
            "min_consumers": self.min_consumers,
            "max_consumers": self.max_consumers,
            "cooldown_seconds": COOLDOWN,
            "up_queue_depth": UP_QUEUE_DEPTH,
            "up_p99_seconds": UP_P99_SECONDS,
            "down_queue_depth": DOWN_QUEUE_DEPTH,
            "down_p99_seconds": DOWN_P99_SECONDS,
            "last_action": self._last_action,
        }

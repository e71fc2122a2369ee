"""Queue-backed horizontal serving tier (``repro serve --mode queue``).

The fleet splits serving into three roles connected by a one-queue,
at-least-once job broker:

* **front** (:class:`~repro.fleet.front.FleetFront`) — validates requests,
  publishes prediction jobs, resolves result futures, is consumer 0 itself
  (``front-0``, a consumer thread on the broker object: no socket hop), and
  manages and autoscales the other consumers as children of the supervision
  core (:class:`~repro.parallel.supervision.SlotTable`) — all from one loop
  thread, which also drives the broker's clocks;
* **broker** (:class:`~repro.fleet.broker.InProcBroker`) — one bounded
  FIFO queue any consumer leases the oldest job from, visibility-timeout
  redelivery when a consumer dies mid-job; served cross-process via
  :func:`~repro.fleet.broker.serve_broker` / :func:`~repro.fleet.broker.connect_broker`;
* **consumers** (:class:`~repro.fleet.consumer.FleetConsumer`; on other
  hosts, the ``repro fleet-worker`` CLI) — each one is a single serving lane
  that answers one leased job at a time with its own in-process
  :class:`~repro.api.predictor.EnsemblePredictor`, so fleet results stay
  bitwise identical to single-process serving.

Scaling policy lives in :class:`~repro.fleet.autoscaler.Autoscaler`:
queue-depth + windowed-p99 signals, hysteresis, and cooldown.
"""

from repro.fleet.autoscaler import Autoscaler, AutoscaleSignals
from repro.fleet.broker import (
    BrokerFull,
    CompletedJob,
    InProcBroker,
    Job,
    connect_broker,
    serve_broker,
)
from repro.fleet.consumer import FleetConsumer

__all__ = [
    "Autoscaler",
    "AutoscaleSignals",
    "BrokerFull",
    "CompletedJob",
    "FleetConsumer",
    "FleetFront",
    "InProcBroker",
    "Job",
    "connect_broker",
    "serve_broker",
]


def __getattr__(name: str):
    # On first use: a consumer process never loads the front (nor repro.parallel).
    if name == "FleetFront":
        from repro.fleet.front import FleetFront

        return FleetFront
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

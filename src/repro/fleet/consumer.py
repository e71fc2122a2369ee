"""Fleet consumer: lease prediction jobs, answer them in-process.

One :class:`FleetConsumer` is one horizontal unit of serving capacity: one
serving lane.  It attaches to the broker (in-process object or a
:func:`~repro.fleet.broker.connect_broker` proxy — the loop cannot tell the
difference), leases the broker's oldest queued job, one at a time, answers
it with its own warm :class:`~repro.api.predictor.EnsemblePredictor` — loaded
once, in this process: with one job in flight a worker pool could only add a
process hop — and acks the result back.  Results are therefore **bitwise
identical** to a single-process ``EnsemblePredictor`` on the same rows; the
queue tier adds scheduling, never arithmetic.

A lane can be run by a second thread.  The front's own consumer,
``front-0``, is also run by the thread of a sync request that finds the lane
idle: it publishes its job leased to ``front-0`` and answers it through
:meth:`FleetConsumer.answer`, the method the lease loop uses.  The
consumer's ``lane`` lock admits one thread at a time — it is held while a
job is answered and while the predictor reloads — so the predictor never
serves two calls at once and no answer mixes generations.

Which generation to serve is the broker's *target*.  The consumer reports
the generation it loaded when it attaches; from then on its one broker call
per cycle, ``lease``, hands it either a job or — while it serves another
generation and has not failed to load the target — the target generation,
which it loads between two jobs and reports back (a failed load reports the
error and keeps the old generation serving).  A consumer that joins late,
on whatever ``CURRENT`` it loaded, is moved onto the target before its first
job.

A consumer process — ``repro fleet-worker``, or a front's own child
(:func:`consumer_slot`) — builds its consumer with :func:`connect_consumer`.

Fleet-wide observability: a consumer on a broker proxy ships a *delta*
snapshot of its ``repro.obs`` registry with an ack at most every
:data:`METRICS_INTERVAL` seconds (counters/histograms accumulate on merge),
and the rest with its detach when it stops, so the front's ``/metrics``
aggregates consumer activity across the fleet without scraping N processes.
A consumer on the broker object itself — the front's ``front-0``, or any
in-process one — shares the front's registry and ships nothing.

Chaos hooks: ``repro.faults`` injection points ``fleet_consume`` (after the
lease, before inference — a crash here strands a leased job, exercising
visibility-timeout redelivery; a hang wedges the consumer until the front
kills it) and ``fleet_ack`` (after inference, before the ack — a crash here
loses a *computed* result, the worst case for exactly-once pretenders;
at-least-once redelivery recomputes it).  An injected error at either point
fails the job like a raising predictor: it is nacked.  Context fields
``consumer``, ``job`` and ``attempt`` (0-based delivery index) are matchable
as ``REPRO_FAULTS`` qualifiers.
"""

from __future__ import annotations

import math
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.api.predictor import EnsemblePredictor
from repro.faults import fire
from repro.fleet.broker import InProcBroker, Job, connect_broker
from repro.obs.events import configure_logging, enable_events, log_event
from repro.obs.metrics import get_registry
from repro.utils.logging import get_logger

logger = get_logger("fleet.consumer")

_metrics = get_registry()
_CONSUMED = _metrics.counter(
    "repro_fleet_consumed_jobs_total",
    "Jobs this consumer leased and answered.",
    ("status",),
)

__all__ = ["FleetConsumer", "connect_consumer", "consumer_slot"]

#: Longest wait in one ``lease`` call before the loop checks for a stop.
LEASE_TIMEOUT = 0.5
#: Least seconds between two registry deltas a proxy consumer ships.
METRICS_INTERVAL = 1.0


class FleetConsumer:
    """Answer broker jobs with one in-process predictor until stopped.

    ``broker`` is an :class:`~repro.fleet.broker.InProcBroker` or anything
    that duck-types it — the in-process object in tests, a manager proxy in
    ``repro fleet-worker``.  ``close()`` drains first: the loop stops
    leasing, the in-flight job (if any) finishes and acks, then the consumer
    detaches — the same mechanism a scale-down rides.  A hot-swap arrives
    as a target generation from ``lease``: the loop moves the predictor onto
    it with :meth:`~repro.api.predictor.EnsemblePredictor.reload` and
    reports the outcome (:meth:`~repro.fleet.broker.InProcBroker.report`),
    so the front can tell when the fleet has converged.
    """

    def __init__(
        self,
        broker: InProcBroker,
        artifact: Union[str, Path],
        consumer_id: str,
        method: str = "average",
        batch_size: int = 256,
    ):
        self.consumer_id = str(consumer_id)
        self.broker = broker
        # On the broker object the front's registry is this one: a shipped
        # snapshot-and-reset delta would count everything twice.
        self.metrics_interval = (
            math.inf if isinstance(broker, InProcBroker) else METRICS_INTERVAL
        )
        # A lane's forwards run on the share of the cores the broker names.
        self.predictor = EnsemblePredictor.load(
            artifact,
            method=method,
            batch_size=batch_size,
            threads=broker.inference_threads(),
        )
        # One thread at a time: the lease loop, or a caller answering a job
        # published leased to this consumer.
        self.lane = threading.Lock()
        self._stop = threading.Event()
        self._last_metrics_ship = 0.0
        self._thread = threading.Thread(
            target=self._run, name=f"repro-fleet-consumer-{consumer_id}", daemon=True
        )

    def start(self) -> "FleetConsumer":
        self.broker.attach(self.consumer_id, generation=self.predictor.generation)
        self._thread.start()
        log_event("fleet.consumer_started", consumer=self.consumer_id)
        return self

    # ------------------------------------------------------------------ loop
    def _run(self) -> None:
        try:
            while True:
                try:
                    # Waiting for the lane while another thread answers also
                    # stops the keepalives: a caller wedged in a forward
                    # gets the lane reaped like a wedged loop would.
                    with self.lane:
                        if self._stop.is_set():
                            return
                    work = self.broker.lease(self.consumer_id, timeout=LEASE_TIMEOUT)
                    if work is not None:
                        with self.lane:
                            if isinstance(work, Job):
                                self.answer(work)
                            else:
                                self._load(work)
                except (EOFError, ConnectionError, OSError):
                    # The broker (front) went away; nothing left to serve.
                    logger.warning(
                        "consumer %s lost its broker connection; stopping",
                        self.consumer_id,
                    )
                    self._stop.set()
                    return
        finally:
            self.predictor.close()
            # Stopped (close, retire, a lost broker): leave, with the metrics
            # not yet shipped — also after retire(), since a lease blocked
            # when it detached us attached us again.  A loop that died on an
            # exception stays attached until the broker reaps it for silence.
            if self._stop.is_set():
                try:
                    self.broker.detach(
                        self.consumer_id, metrics=self._ship_metrics(parting=True)
                    )
                except (EOFError, ConnectionError, OSError):
                    pass

    def _load(self, target: int) -> None:
        """Move the predictor onto the ``target`` generation and report the
        outcome (the caller holds :attr:`lane`: between two jobs, never mid
        job).  A target already served reports without reloading; one that
        fails to load reports the error and the old generation keeps
        serving."""
        error = None
        if target != self.predictor.generation:
            try:
                self.predictor.reload(generation=target)
                log_event("fleet.consumer_swapped", consumer=self.consumer_id, generation=target)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                logger.error(
                    "consumer %s failed to load generation %d: %s", self.consumer_id, target, error
                )
        self.broker.report(
            self.consumer_id, self.predictor.generation, target=target, error=error
        )

    def answer(self, job: Job, deliver: bool = True) -> Optional[np.ndarray]:
        """Answer one job leased to this consumer and ack it; returns the
        probabilities, or ``None`` when the job failed and was nacked.

        The caller holds :attr:`lane`.  ``deliver=False`` is for a caller
        that answers its own request: the broker records the job as finished
        and queues nothing for the front's loop.
        """
        attempt = max(0, job.deliveries - 1)
        try:
            fire("fleet_consume", consumer=self.consumer_id, job=job.job_id, attempt=attempt)
            payload = job.payload
            proba = self.predictor.predict_proba(payload["x"], method=payload.get("method"))
            fire("fleet_ack", consumer=self.consumer_id, job=job.job_id, attempt=attempt)
        except Exception as exc:
            _CONSUMED.labels("error").inc()
            try:
                self.broker.nack(
                    self.consumer_id, job.job_id, f"{type(exc).__name__}: {exc}"
                )
            except (EOFError, ConnectionError, OSError):  # pragma: no cover
                self._stop.set()
            return None
        # Counted before the ack, as an error is before its nack: the delta
        # shipped with this ack then already holds this job.
        _CONSUMED.labels("ok").inc()
        try:
            self.broker.ack(
                self.consumer_id,
                job.job_id,
                result=proba,
                metrics=self._ship_metrics(),
                deliver=deliver,
            )
        except (EOFError, ConnectionError, OSError):  # pragma: no cover
            self._stop.set()
        return proba

    def _ship_metrics(self, parting: bool = False) -> Optional[Dict[str, Dict[str, object]]]:
        """Throttled delta snapshot of this process's registry; unthrottled
        when ``parting`` (the last one, shipped with the detach).

        Snapshot-then-reset makes each shipment a delta, so the front can
        merge counters/histograms without double counting; shipping with the
        ack (rather than on a side channel) means the front's view is always
        at least as fresh as the results it serves.  A consumer on the broker
        object (``metrics_interval`` infinite) ships nothing, ever.
        """
        registry = get_registry()
        if not registry.enabled or math.isinf(self.metrics_interval):
            return None
        now = time.monotonic()
        if not parting and now - self._last_metrics_ship < self.metrics_interval:
            return None
        self._last_metrics_ship = now
        snapshot = registry.snapshot()
        registry.reset()
        return snapshot

    # ------------------------------------------------------------- lifecycle
    def alive(self) -> bool:
        """True while the lease loop is still serving (broker reachable)."""
        return self._thread.is_alive() and not self._stop.is_set()

    def retire(self) -> None:
        """Stop leasing and detach *without* waiting for the job in flight.

        What a wedged consumer thread gets instead of the SIGKILL a wedged
        process gets: a thread cannot be killed.  Its job was already
        redelivered; if it ever acks, that ack is a duplicate the broker
        drops (first ack wins), and the thread then ends and detaches again
        (a lease of its own may have re-attached it meanwhile).
        """
        self._stop.set()
        self.broker.detach(self.consumer_id)
        log_event("fleet.consumer_retired", consumer=self.consumer_id)

    def close(self) -> None:
        """Drain and shut down (idempotent): stop leasing, finish the job in
        flight, detach from the broker (the loop does, shipping its last
        metrics; here only for a loop that never started or did not end)."""
        if self._stop.is_set() and not self._thread.is_alive():
            return
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=60)
        self.predictor.close()
        try:
            self.broker.detach(self.consumer_id)
        except (EOFError, ConnectionError, OSError):  # pragma: no cover
            pass
        log_event("fleet.consumer_stopped", consumer=self.consumer_id)

    def __enter__(self) -> "FleetConsumer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def connect_consumer(
    address: Tuple[str, int],
    authkey: str,
    artifact: Union[str, Path],
    consumer_id: str,
    method: str,
    batch_size: int,
) -> FleetConsumer:
    """A started consumer on the broker served at ``address`` (a consumer
    process's one, ``repro fleet-worker``'s or a front child's)."""
    broker = connect_broker(address, authkey=authkey)
    return FleetConsumer(
        broker, artifact, consumer_id=consumer_id, method=method, batch_size=batch_size
    ).start()


def consumer_slot(
    worker_id: int,
    address: Tuple[str, int],
    consumer_id: str,
    authkey: str,
    artifact: Union[str, Path],
    method: str,
    batch_size: int,
    log_format: str,
    log_file: Optional[Union[str, Path]],
    requests,
    results,
) -> None:
    """A front's local consumer as a supervision-table child: ``ready`` once
    attached, drained on the ``None`` sentinel; it logs where the front does
    and writes nothing on the stdout it shares with the front.  (A dead lease
    loop stays attached until the broker reaps it: the front evicts it then.)"""
    configure_logging(fmt=log_format, force=True, log_file=log_file)
    enable_events()
    consumer = connect_consumer(address, authkey, artifact, consumer_id, method, batch_size)
    results.put(("ready", worker_id, None))
    requests.get()
    consumer.close()

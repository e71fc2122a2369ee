"""Queue-backed serving front: publish prediction jobs, collect results.

:class:`FleetFront` is what ``repro serve --mode queue`` builds instead of a
local :class:`~repro.parallel.serving.PoolPredictor`.  It owns three threads:

* ``repro-fleet-broker-accept``, serving the passive (threadless)
  :class:`~repro.fleet.broker.InProcBroker` over a
  ``multiprocessing.managers`` socket so `repro fleet-worker` processes on
  this or other hosts can attach — their shipped ``repro.obs`` deltas are
  merged by the broker, in this process, as they arrive;
* **consumer 0**, ``front-0``: an ordinary
  :class:`~repro.fleet.consumer.FleetConsumer` leasing from the broker
  *object* — no pickling, no socket hop, no process to boot.  It shares the
  front's metrics registry, so it ships no deltas.  A second thread can
  run its lane: a sync :meth:`FleetFront.predict_proba` that finds it idle
  and nothing queued publishes its job already leased to ``front-0`` and
  answers it on the calling thread (see that method) — no thread is woken;
* **one loop**, ``repro-fleet-loop``, built like the serving pool's
  ``repro-serve-loop``: it waits in the broker's ``poll_completed`` until
  the next step is due and resolves completed jobs' futures (observing the
  job latency histogram, keeping results for ``/result/<id>``).  Every
  :data:`RECONCILE_INTERVAL` seconds it sweeps the broker (lease and
  consumer expiry), expires unfetched results and reconciles the consumers;
  every :data:`~repro.fleet.autoscaler.TICK_INTERVAL` seconds it ticks the
  :class:`~repro.fleet.autoscaler.Autoscaler`, which steers ``desired`` —
  ``front-0`` included — between ``min_consumers`` and ``max_consumers``.
  A step that raises is logged; delivery goes on.

The other ``desired - 1`` consumers are children of a
:class:`~repro.parallel.supervision.SlotTable` — the training executor's
and the serving pool's supervision core — that the loop alone drives (see
:meth:`FleetFront._reconcile`); ``close()`` has the loop drain them all, so
it cannot race a spawn.  Each runs :func:`~repro.fleet.consumer.consumer_slot`
on the broker's manager socket, its arguments (the authkey too) on a private
pipe, and leaves when the front's lifeline closes, wedged or not.  A wedged
``front-0`` cannot be killed: it is *retired* (stopped from leasing,
detached; a late ack is a dropped duplicate) and a child takes its place.

Client calls (`submit` / `result` / `predict_proba`) are thread-safe; each
blocks only on its own job's future (or, answered inline, on its own
forward).  Results are bitwise identical to a single-process
``EnsemblePredictor`` because each consumer answers with one.
"""

from __future__ import annotations

import logging
import math
import secrets
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.artifact_store import ServedArtifact, ServingTier
from repro.fleet import autoscaler as autoscaling
from repro.fleet.autoscaler import Autoscaler, AutoscaleSignals
from repro.fleet.broker import CompletedJob, InProcBroker, serve_broker
from repro.fleet.consumer import FleetConsumer, consumer_slot
from repro.obs.events import log_event
from repro.obs.metrics import get_registry, quantile_from_counts
from repro.parallel.supervision import Slot, SlotTable
from repro.utils.logging import get_logger
from repro.utils.parallel import lane_threads

logger = get_logger("fleet.front")

_metrics = get_registry()
_JOB_LATENCY = _metrics.histogram(
    "repro_fleet_job_latency_seconds",
    "End-to-end job latency: publish to completed result at the front.",
)

__all__ = ["FleetFront"]

#: How long a completed result waits to be fetched before the loop drops it.
RESULT_TTL = 120.0
#: How often the loop sweeps the broker, expires results and reconciles the
#: consumers; read when the loop starts (tests shorten it).
RECONCILE_INTERVAL = 0.2


@dataclass
class _JobEntry:
    future: Future = field(default_factory=Future)
    want_proba: bool = True
    expires: float = math.inf  # set when the result arrives


@dataclass
class _ConsumerSlot(Slot):
    consumer_id: str = ""  # the broker's name for this spawn: local-<n>
    drain_by: Optional[float] = None  # told to drain: finished, or killed, by then


class FleetFront(ServingTier):
    """Producer front over a one-queue broker plus managed consumers.

    A consumer is one serving lane (one job at a time), so capacity is
    ``min_consumers``..``max_consumers``.  The front is consumer 0: with
    ``spawn_local=True`` it answers on a ``front-0`` thread and runs the
    other ``desired - 1`` consumers as supervision-table children, so
    ``min_consumers=max_consumers=1`` starts no child at all.  The
    autoscaler runs when ``max_consumers > min_consumers``, steering by the
    constants of :mod:`repro.fleet.autoscaler`.  With ``spawn_local=False``
    it runs no consumer of any kind (and no autoscaler) — the caller
    attaches its own, in process or via the broker address
    (``repro fleet-worker``, on this host or another).

    A constructor that raises leaves nothing running.
    """

    lanes = "consumers_acked"

    def __init__(
        self,
        artifact: Union[str, Path],
        visibility_timeout: float = 30.0,
        method: str = "average",
        min_consumers: int = 1,
        max_consumers: int = 4,
        consumer_workers: int = 1,
        batch_size: int = 256,
        spawn_local: bool = True,
        host: str = "127.0.0.1",
        fleet_port: int = 0,
        fleet_authkey: str = "repro-fleet",
        log_format: Optional[str] = None,
        log_file: Optional[Union[str, Path]] = None,
    ):
        if min_consumers < 1:
            raise ValueError("min_consumers must be at least 1")
        if max_consumers < min_consumers:
            raise ValueError("need min_consumers <= max_consumers")
        # Accepted only as 1 because benchmarks/e2e/probes.py passes it; the
        # parameter goes once a benchmark-only change stops passing it.
        if consumer_workers != 1:
            raise ValueError("consumer_workers must be 1; scale with min_consumers / max_consumers")
        super().__init__(artifact, method)
        self.min_consumers = int(min_consumers)
        self.max_consumers = int(max_consumers)
        self.batch_size = int(batch_size)
        self.spawn_local = bool(spawn_local)
        # A local consumer's arguments after the broker address and its id.
        self._consumer_args = (
            fleet_authkey, self.path, self.method, self.batch_size, log_format or "json", log_file
        )

        self._lock = threading.Lock()
        self._entries: Dict[str, _JobEntry] = {}
        self._desired = self.min_consumers if self.spawn_local else 0
        # The local consumers beyond front-0; only the loop changes them.
        self._table = SlotTable([], consumer_slot, "repro-fleet")
        self._spawned = 0  # consumer ids are unique per spawn
        self._latency_window_counts = _JOB_LATENCY.bucket_counts()
        # What close() stops: absent, or not started, until the constructor starts it.
        self.broker: Optional[InProcBroker] = None
        self._stop_broker_server = None
        self._front_consumer: Optional[FleetConsumer] = None
        self._loop = threading.Thread(target=self._run, name="repro-fleet-loop", daemon=True)

        self.autoscaler: Optional[Autoscaler] = None
        if self.spawn_local and self.max_consumers > self.min_consumers:
            self.autoscaler = Autoscaler(
                self.min_consumers, self.max_consumers, self._signals, self.scale_up, self.scale_down
            )
        try:
            # Every consumer is a lane: its forwards get a share of the cores.
            self.broker = InProcBroker(
                visibility_timeout=visibility_timeout,
                inference_threads=lane_threads(self.max_consumers),
            )
            self.broker.set_target(self.generation)
            self.broker_address, self._stop_broker_server = serve_broker(
                self.broker, host=host, port=fleet_port, authkey=fleet_authkey
            )
            if self.spawn_local:
                # Consumer 0: this process's own lane on the broker object
                # (sharing this registry, it ships no metrics).  Built (its
                # predictor loaded) before the loop starts, so the loop counts
                # it from its first reconcile; it starts leasing last.
                self._front_consumer = FleetConsumer(
                    self.broker,
                    self.path,
                    consumer_id="front-0",
                    method=self.method,
                    batch_size=self.batch_size,
                )
            self._loop.start()
            if self._front_consumer is not None:
                self._front_consumer.start()
        except BaseException:
            self.close()
            raise
        logger.info(
            "fleet front for %s: broker %s:%d, consumers %d..%d",
            artifact,
            self.broker_address[0],
            self.broker_address[1],
            self.min_consumers,
            self.max_consumers,
        )

    # ----------------------------------------------------------------- client
    def submit(
        self,
        x: np.ndarray,
        method: Optional[str] = None,
        want_proba: bool = True,
    ) -> str:
        """Validate and publish one prediction job; returns its job id.

        The result future is registered *before* the publish, so a consumer
        can never answer a job the front does not yet know about.
        """
        job_id, payload = self._register(x, method, want_proba)
        self._publish(job_id, payload)
        return job_id

    def _register(
        self, x: np.ndarray, method: Optional[str], want_proba: bool = True
    ) -> Tuple[str, Dict[str, Any]]:
        """Validate a request and register its result future; returns the
        job id and the payload to publish."""
        if self._closed:
            raise RuntimeError("FleetFront is closed")
        from repro.api.predictor import validate_batch

        payload = {
            "x": validate_batch(x, self.input_shape),
            "method": self._resolve_method(method),
        }
        job_id = secrets.token_hex(8)
        with self._lock:
            self._entries[job_id] = _JobEntry(want_proba=want_proba)
        return job_id, payload

    def _publish(self, job_id: str, payload: Dict[str, Any], lease_to: Optional[str] = None):
        """``broker.publish`` for a registered job; one that raises is
        unregistered."""
        try:
            return self.broker.publish(payload, job_id=job_id, lease_to=lease_to)
        except BaseException:
            with self._lock:
                self._entries.pop(job_id, None)
            raise

    def result(self, job_id: str, timeout: Optional[float] = None) -> np.ndarray:
        """Block until ``job_id`` completes; returns the probabilities."""
        with self._lock:
            entry = self._entries.get(job_id)
        if entry is None:
            raise KeyError(f"unknown job id {job_id!r}")
        try:
            result = entry.future.result(
                timeout=self.REQUEST_TIMEOUT if timeout is None else timeout
            )
        finally:
            with self._lock:
                self._entries.pop(job_id, None)
        return result

    def poll(self, job_id: str) -> Tuple[str, Optional[np.ndarray], Optional[str], bool]:
        """Non-blocking result check: ``(status, proba, error, want_proba)``.

        ``status`` is ``"done"`` (the entry is consumed), ``"pending"``, or
        ``"unknown"`` (never submitted, already fetched, or expired).
        """
        with self._lock:
            entry = self._entries.get(job_id)
            if entry is None:
                return "unknown", None, None, True
            if not entry.future.done():
                return "pending", None, None, entry.want_proba
            del self._entries[job_id]
        error = entry.future.exception()
        if error is not None:
            return "done", None, str(error), entry.want_proba
        return "done", entry.future.result(), None, entry.want_proba

    def predict_proba(
        self,
        x: np.ndarray,
        method: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> np.ndarray:
        """Synchronous publish-and-wait; bitwise equal to the pool path.

        When ``front-0``'s lane is free and nothing is queued, the calling
        thread runs the lane: the job is published leased to
        ``front-0`` and answered here, through the method ``front-0``'s own
        thread uses, and its ack wakes nobody.  Any other case — a busy lane,
        queued work, a target generation ``front-0`` does not serve yet, no
        (or a retired) ``front-0``, a failed answer (nacked, so redelivered)
        — waits for the job's future as :meth:`submit` / :meth:`result` do.

        Given up for this: a forward that wedges on the calling thread is not
        redelivered to it, and ``timeout`` does not bound it.  The call
        returns when that forward does; meanwhile the broker reaps the lane
        and the loop retires ``front-0`` and starts a child in its place.
        """
        job_id, payload = self._register(x, method)
        front = self._front_consumer
        if front is None or not front.lane.acquire(blocking=False):
            self._publish(job_id, payload)
            return self.result(job_id, timeout=timeout)
        try:
            job = self._publish(job_id, payload, lease_to=front.consumer_id)
            proba = None if job is None else front.answer(job, deliver=False)
        finally:
            front.lane.release()
        if proba is None:
            return self.result(job_id, timeout=timeout)
        _JOB_LATENCY.observe(max(0.0, time.monotonic() - job.enqueued))
        with self._lock:
            self._entries.pop(job_id, None)
        return proba

    # --------------------------------------------------------------- the loop
    def _run(self) -> None:
        """The front's one thread: deliver completed jobs as they arrive and
        run each housekeeping step when it is due — and once the front is
        closed, drain the consumers and deliver what they answered."""
        steps: List[Tuple[Callable[[], Any], float]] = [
            (self.broker.sweep, RECONCILE_INTERVAL),
            (self._expire_results, RECONCILE_INTERVAL),
        ]
        if self.spawn_local:
            steps.append((self._reconcile, RECONCILE_INTERVAL))
        due = [0.0] * len(steps)
        if self.autoscaler is not None:
            # First due one interval on, so its first p99 window is a full one.
            steps.append((self.autoscaler.tick, autoscaling.TICK_INTERVAL))
            due.append(time.monotonic() + autoscaling.TICK_INTERVAL)
        try:
            while not self._closed:
                now = time.monotonic()
                for index, (step, interval) in enumerate(steps):
                    if now >= due[index]:
                        due[index] = now + interval
                        try:
                            step()
                        except Exception:
                            logger.exception("fleet front step %s failed", step.__name__)
                self._deliver(self.broker.poll_completed(timeout=min(due) - time.monotonic()))
        finally:
            self._shut_down()

    def _deliver(self, completed: List[CompletedJob]) -> None:
        now = time.monotonic()
        for job in completed:
            _JOB_LATENCY.observe(max(0.0, now - job.enqueued))
            with self._lock:
                entry = self._entries.get(job.job_id)
                if entry is None:
                    continue
                entry.expires = now + RESULT_TTL
            if job.error is not None:
                entry.future.set_exception(RuntimeError(job.error))
            else:
                entry.future.set_result(job.result)

    def _expire_results(self) -> None:
        now = time.monotonic()
        with self._lock:
            expired = [
                job_id
                for job_id, entry in self._entries.items()
                if entry.future.done() and now > entry.expires
            ]
            for job_id in expired:
                del self._entries[job_id]

    def _shut_down(self) -> None:
        """Drain the local consumers — the children on the sentinel while
        ``front-0`` finishes its job — close the broker (failing whatever is
        left) and deliver the last answers.  A retired ``front-0`` thread is
        not waited for."""
        with self._lock:
            front, self._front_consumer = self._front_consumer, None
        table = self._table
        for slot in table.slots:
            if slot.state == "ready":
                table.send(slot, None)
        if front is not None:
            front.close()  # drains while the children drain
        # Kills a booting child; sends a ready one the sentinel again (it reads one).
        table.stop(table.slots, timeout=60.0)
        table.close()
        self.broker.close()
        self._deliver(self.broker.poll_completed(timeout=0.0))

    # ------------------------------------------------------ local consumers
    def _reconcile(self) -> None:
        """Bring the children to ``desired`` less ``front-0`` with the table's
        verbs, waiting for none.  A dead child, or one the broker reaped
        (silent past its deadline: hung in a job already redelivered), is
        evicted — SIGKILLed, respawned under a new id once ``due``.  The
        surplus drains newest first: each is sent the sentinel, and its slot
        is finished once its process has exited, killed 30 s on.  ``ready``
        (attached) ends a failure streak."""
        table = self._table
        for kind, worker_id, _ in table.poll(0):
            slot = table.slots[worker_id]
            if kind == "ready" and slot.state == "starting":
                slot.state = "ready"
                table.mark_healthy(slot)
        now = time.monotonic()
        wedged = set(self.broker.take_reaped())
        with self._lock:
            front = self._front_consumer
            if front is not None and front.consumer_id in wedged:
                # Consumer 0 went silent past the broker's deadline: hung
                # mid-job (its job already redelivered) or its thread ended on
                # an exception.  A thread cannot be SIGKILLed: it stops
                # leasing and is detached, and a child takes its place.
                log_event("fleet.consumer_wedged", consumer=front.consumer_id)
                front.retire()
                self._front_consumer = None
            desired = self._desired - (self._front_consumer is not None)
        for slot in table.slots:
            if slot.drain_by is not None:
                if not slot.alive or now > slot.drain_by:
                    table.stop([slot], graceful=False)
                    slot.drain_by = None
                    self._exited(slot, draining=True)
            elif slot.state != "down" and (slot.consumer_id in wedged or not slot.alive):
                if slot.alive:
                    log_event("fleet.consumer_wedged", consumer=slot.consumer_id)
                table.evict(slot)
                self._exited(slot, draining=False)
        # A place is a child, or a respawn not yet due; the oldest children keep theirs.
        places = [s for s in table.slots if s.drain_by is None and s.down_until is not None]
        places += [s for s in table.slots if s.drain_by is None and s.state != "down"]
        places.sort(key=lambda slot: (slot.state == "down", slot.spawned_at))
        for slot in places[desired:]:
            if slot.state == "down":
                slot.down_until = None  # its respawn is called off
                continue
            slot.drain_by = now + 30.0
            table.send(slot, None)  # a booting child reads it once attached
            log_event("fleet.consumer_draining", consumer=slot.consumer_id)
        for slot in table.due(now):
            self._spawn(slot)
        idle = [s for s in table.slots if s.state == "down" and s.down_until is None]
        for _ in range(desired - len(places)):
            if not idle:
                idle.append(_ConsumerSlot(len(table.slots)))
                table.slots.append(idle[-1])
            self._spawn(idle.pop())

    def _spawn(self, slot: _ConsumerSlot) -> None:
        """Start a consumer child in ``slot`` under the next consumer id."""
        slot.consumer_id = f"local-{self._spawned}"
        self._spawned += 1
        self._table.spawn(slot, self.broker_address, slot.consumer_id, *self._consumer_args)
        log_event("fleet.consumer_spawned", consumer=slot.consumer_id, pid=slot.process.pid)

    @staticmethod
    def _exited(slot: _ConsumerSlot, draining: bool) -> None:
        log_event(
            "fleet.consumer_exited",
            level=logging.INFO if draining else logging.WARNING,
            consumer=slot.consumer_id,
            returncode=slot.process.exitcode,
            draining=draining,
        )

    def scale_up(self) -> None:
        with self._lock:
            self._desired = min(self.max_consumers, self._desired + 1)

    def scale_down(self) -> None:
        with self._lock:
            self._desired = max(self.min_consumers, self._desired - 1)

    def local_consumers(self) -> Dict[str, Any]:
        """The consumers this front runs: ``desired`` and ``running`` count
        ``front-0`` (until retired) with the children; ``pids`` lists the
        children only."""
        with self._lock:
            desired, front = self._desired, self._front_consumer is not None
        # The loop changes the slots; each one is read once, attribute by attribute.
        slots = list(self._table.slots)
        running = [slot for slot in slots if slot.state != "down" and slot.drain_by is None]
        return {
            "desired": desired,
            "running": front + len(running),
            "draining": sum(slot.drain_by is not None for slot in slots),
            "pids": [slot.process.pid for slot in running],
        }

    # -------------------------------------------------------------- signals
    def _signals(self) -> AutoscaleSignals:
        """Autoscaler inputs: backlog now, p99 over the last tick window."""
        counts = _JOB_LATENCY.bucket_counts()
        delta = [
            current - previous
            for current, previous in zip(counts, self._latency_window_counts)
        ]
        self._latency_window_counts = counts
        p99 = quantile_from_counts(_JOB_LATENCY.buckets, delta, 0.99)
        with self._lock:
            desired = self._desired
        return AutoscaleSignals(
            queue_depth=self.broker.depth(), p99_seconds=p99, consumers=desired
        )

    # -------------------------------------------------------------- hot swap
    def _roll(self, target: ServedArtifact, timeout: Optional[float]) -> int:
        """Make ``target`` the broker's target generation and block until
        every attached consumer serves it; returns how many do.

        Each consumer's next lease — a waiting one wakes at once — hands it
        the target, and it reloads its predictor between two jobs, so it
        keeps answering throughout, every response on one generation.  A
        consumer that attaches meanwhile, on whatever ``CURRENT`` it loaded,
        is moved the same way before its first job.  Raises when a consumer
        reports that it cannot load the target, or after ``timeout``
        seconds, 60 by default.
        """
        timeout = 60.0 if timeout is None else float(timeout)
        deadline = time.monotonic() + timeout
        self.broker.set_target(target.generation)
        while True:
            stats = self.broker.stats()
            if stats["target_failures"]:
                raise RuntimeError(
                    "fleet swap failed on "
                    + "; ".join(f"{c}: {error}" for c, error in stats["target_failures"].items())
                )
            generations = stats["consumer_generations"]
            behind = sorted(c for c, g in generations.items() if g != target.generation)
            if generations and not behind:
                return len(generations)
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"fleet swap timed out after {timeout:.0f}s waiting for "
                    f"consumers {behind} to serve generation {target.generation}"
                )
            time.sleep(0.02)

    # ---------------------------------------------------------- health / info
    def wait_ready(self, timeout: float = 180.0) -> None:
        """Block until ``min_consumers`` consumers are attached (predictor-warm)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.broker.consumer_count() >= self.min_consumers:
                return
            time.sleep(0.1)
        raise RuntimeError(
            f"fleet consumers failed to attach within {timeout:.0f}s "
            f"(attached {self.broker.consumer_count()}/{self.min_consumers})"
        )

    def healthz(self) -> Dict[str, Any]:
        attached = self.broker.consumer_count()
        local = self.local_consumers() if self.spawn_local else None
        if attached >= self.min_consumers:
            status = "ok"
        elif attached > 0 or (local is not None and local["running"] > 0):
            status = "degraded"
        else:
            status = "down"
        health = {
            "status": status,
            "mode": "queue",
            "generation": self.generation,
            "consumers": attached,
            "min_consumers": self.min_consumers,
            "max_consumers": self.max_consumers,
            "queue_depth": self.broker.depth(),
            "redeliveries": self.broker.redeliveries(),
        }
        if local is not None:
            health["local_consumers"] = local
        return health

    def info(self) -> Dict[str, Any]:
        """JSON-friendly description for the ``/info`` endpoint."""
        queue = self.broker.stats()
        return {
            "artifact": str(self.path),
            "approach": self.approach,
            "mode": "queue",
            "generation": self.generation,
            "num_members": self.num_members,
            "num_classes": self.num_classes,
            "input_shape": list(self.input_shape),
            "method": self.method,
            "super_learner": self._artifact.has_super_learner,
            "broker_address": list(self.broker_address),
            "queue": queue,
            "consumers": self.broker.consumer_count(),
            "inference_threads": {
                consumer: self.broker.inference_threads() for consumer in queue["consumers"]
            },
            "local_consumers": self.local_consumers() if self.spawn_local else None,
            "autoscaler": self.autoscaler.state() if self.autoscaler else None,
            "job_latency_seconds": {
                "p50": _JOB_LATENCY.quantile(0.5),
                "p99": _JOB_LATENCY.quantile(0.99),
            },
        }

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Stop scaling, drain local consumers, fail anything unresolved.

        Also what a constructor that raises calls: it stops whatever had
        started.  The loop does the draining, woken at once."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._loop.is_alive():
            self.broker.wake()
            self._loop.join()
        elif self.broker is not None:
            self._shut_down()
        if self._stop_broker_server is not None:
            self._stop_broker_server()
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
        for entry in entries:
            if not entry.future.done():
                entry.future.set_exception(RuntimeError("FleetFront closed"))
        log_event("fleet.front_closed", artifact=str(self.path))

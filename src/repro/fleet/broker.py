"""Job broker for the horizontal serving tier (stdlib only).

The queue-mode serving front (:class:`~repro.fleet.front.FleetFront`) does
not hand prediction requests to a local worker pool directly; it publishes
them onto a **broker** and lets consumer workers — in this process, in other
processes on this host, or on other hosts — lease, execute, and acknowledge
them.  The broker is one bounded FIFO queue that any attached consumer
leases from: :class:`InProcBroker` is a dependency-free stdlib
implementation built on one deque and one lock, served to out-of-process
consumers through ``multiprocessing.managers`` (see :func:`serve_broker` /
:func:`connect_broker`).

Delivery semantics — **at-least-once**:

* ``publish`` appends a job to the queue (bounded: :class:`BrokerFull` when
  it is at capacity — backpressure the HTTP front turns into a 503 rather
  than buffering unboundedly).  ``publish(..., lease_to=consumer)`` hands
  the job straight to that consumer instead, already leased, when nothing
  is queued and the consumer is attached, holds no lease and serves the
  target generation — how the front's caller thread answers a request as
  ``front-0`` (otherwise the job is queued as usual).
* ``lease`` hands whichever consumer asks the oldest queued job and starts a
  **visibility timeout**; a job not acked before the timeout is assumed lost
  with its consumer and is requeued at the head of the queue
  (``repro_fleet_redeliveries_total``).  A SIGKILL'd consumer therefore
  delays its in-flight jobs by at most one visibility window — it never
  loses them.
* ``ack`` completes a job with its result (``deliver=False``: the acking
  caller keeps the result itself, and nothing is queued for the front's
  loop).  Because a slow-but-alive consumer's lease can expire and the job
  be redelivered, the same job can be executed twice; the first ack wins
  and later acks (and the requeued duplicate) are dropped.  Execution is
  idempotent here — predictions are pure — so duplicates cost only
  compute.
* ``nack`` requeues a failed job immediately; after ``max_deliveries``
  total deliveries the job completes with an error instead of looping
  forever.

Which generation the fleet serves is one piece of broker state, the
**target**: the artifact generation every consumer must serve, set by the
front (:meth:`InProcBroker.set_target`, at start-up and for each swap; a
bare broker has none).  Next to it the broker keeps each consumer's
*reported* generation (:meth:`~InProcBroker.attach`, then
:meth:`~InProcBroker.report` after every reload) and, for the current
target only, the load failure a consumer reported.  ``lease`` returns the
next thing a consumer must do: the target generation while the consumer
serves another one and has not failed to load it — a consumer moves
between two jobs, so no answer mixes generations, and one that joins late
converges like the rest — otherwise the oldest job.  Setting a target wakes
every waiting ``lease`` and clears the failures; the front waits until
every attached consumer reports the target, or one reports a failure.

No job belongs to a consumer until it is leased, so no consumer idles
while work waits.  Consumers that stop calling in (no lease/ack within
``consumer_deadline`` seconds) are detached and reported by
:meth:`InProcBroker.take_reaped`, which is how the front tells a wedged
consumer from a busy one.  A reaped consumer that was merely slow
re-attaches implicitly on its next lease call.

Two conditions share the one lock, so an event wakes only the threads that
wait for it: ``work`` (publish, requeue, a new target, detach, close) wakes
consumers blocked in ``lease``; ``done`` (a completed job, ``wake``, close)
wakes the front's loop in ``poll_completed``.

The broker is passive: it starts no thread.  Its owner drives both clocks
(lease expiry, consumer expiry) by calling :meth:`InProcBroker.sweep`
periodically — the front's one loop does, every ``RECONCILE_INTERVAL``
seconds (a module constant of :mod:`repro.fleet.front`) — the way the
serving pool's loop drives its ``SlotTable``.  Everything happens
inside the calling thread under one broker lock — call rates are
request-scale, not row-scale, so a single lock is plenty.
"""

from __future__ import annotations

import secrets
import socket
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from multiprocessing.managers import BaseManager
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple, Union

from repro.obs.events import log_event
from repro.obs.metrics import get_registry
from repro.utils.logging import get_logger
from repro.utils.parallel import lane_threads

logger = get_logger("fleet.broker")

_metrics = get_registry()
_QUEUE_DEPTH = _metrics.gauge(
    "repro_fleet_queue_depth",
    "Jobs waiting (not leased) in the broker queue.",
)
_REDELIVERIES = _metrics.counter(
    "repro_fleet_redeliveries_total",
    "Jobs requeued after their consumer's visibility timeout expired.",
)
_CONSUMERS = _metrics.gauge(
    "repro_fleet_consumers", "Consumers currently attached to the broker."
)
_JOBS = _metrics.counter(
    "repro_fleet_jobs_total",
    "Broker job lifecycle transitions.",
    ("event",),
)


def _merge(delta: Optional[Dict[str, Dict[str, object]]]) -> None:
    """Fold a consumer's shipped registry delta into this process's."""
    if delta is not None:
        _metrics.merge_snapshot(delta)


__all__ = [
    "BrokerFull",
    "CompletedJob",
    "InProcBroker",
    "Job",
    "connect_broker",
    "serve_broker",
]


class BrokerFull(RuntimeError):
    """The queue is at capacity; the caller should shed load."""


@dataclass
class Job:
    """One unit of work as the consumer sees it (small and picklable).

    ``deliveries`` counts how many times the job has been handed out
    (1 on first delivery); ``enqueued`` is the broker process's monotonic
    clock at publish time — meaningful only broker-side, where it feeds the
    oldest-job-age stat and the end-to-end job latency histogram.
    """

    job_id: str
    payload: Any
    enqueued: float
    deliveries: int = 0


@dataclass
class CompletedJob:
    """One finished job as the front drains it from the broker."""

    job_id: str
    result: Any
    error: Optional[str]
    deliveries: int
    enqueued: float


@dataclass
class _Lease:
    job: Job
    consumer_id: str
    deadline: float


class InProcBroker:
    """Stdlib in-process broker: one bounded deque under one lock.

    Lives in the serving front's process; out-of-process consumers reach it
    through a ``multiprocessing.managers`` proxy (every proxy call executes
    *here*, in a manager server thread, so the metrics it touches land in
    the front's registry — exactly what ``/metrics`` scrapes).  So do the
    registry deltas consumers ship with ``ack`` and ``detach``: merged on
    arrival, so ``/metrics`` aggregates the whole fleet.

    ``inference_threads`` is what a consumer reads before it loads: the
    threads its forwards may run on, one lane's share of the host's cores
    (default: all of them).
    """

    def __init__(
        self,
        capacity: int = 4096,
        visibility_timeout: float = 30.0,
        max_deliveries: int = 5,
        consumer_deadline: Optional[float] = None,
        partitions: int = 1,
        inference_threads: Optional[int] = None,
    ):
        # Accepted only as 1 because benchmarks/e2e/probes.py passes it; the
        # parameter goes once a benchmark-only change stops passing it.
        if partitions != 1:
            raise ValueError("partitions must be 1; the broker is one queue")
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if visibility_timeout <= 0:
            raise ValueError("visibility_timeout must be positive")
        if max_deliveries < 1:
            raise ValueError("max_deliveries must be at least 1")
        self.capacity = int(capacity)
        self.visibility_timeout = float(visibility_timeout)
        self.max_deliveries = int(max_deliveries)
        self._inference_threads = (
            lane_threads(1) if inference_threads is None else int(inference_threads)
        )
        # A consumer that has not called in for this long is presumed dead
        # and is detached; default scales with (but never below) the
        # visibility window so both clocks tell one story.
        self.consumer_deadline = (
            float(consumer_deadline)
            if consumer_deadline is not None
            else max(2.0, 2.0 * self.visibility_timeout)
        )

        self._lock = threading.Lock()
        # Consumers blocked in lease() wait on _work, the front's loop in
        # poll_completed() on _done.
        self._work = threading.Condition(self._lock)
        self._done = threading.Condition(self._lock)
        self._queue: Deque[Job] = deque()
        self._inflight: Dict[str, _Lease] = {}
        # Jobs acked (or failed) whose CompletedJob the front has not drained
        # yet, in completion order; _finished_ids (job id -> finish time, in
        # completion order too, so a sweep pops stale ids off its front)
        # dedupes late acks and makes lease() drop requeued duplicates of
        # already-completed jobs.
        self._completed: Deque[CompletedJob] = deque()
        self._finished_ids: "OrderedDict[str, float]" = OrderedDict()
        # consumer_id -> last time it called in, in attach order.
        self._consumers: Dict[str, float] = {}
        # Consumers a sweep detached for silence, until take_reaped().
        self._reaped: List[str] = []
        self._redeliveries = 0
        # The generation every consumer must serve (None: no target), the one
        # each attached consumer reported (None until it has), and the load
        # failures reported for the current target.
        self._target: Optional[int] = None
        self._generations: Dict[str, Optional[int]] = {}
        self._failures: Dict[str, str] = {}
        self._closed = False
        self._woken = False

    # -------------------------------------------------------------- producer
    def publish(
        self, payload: Any, job_id: Optional[str] = None, lease_to: Optional[str] = None
    ) -> Union[str, Job, None]:
        """Enqueue a job and return its id; raises :class:`BrokerFull` when
        the queue is at capacity.  ``job_id`` may be supplied by the caller
        (the front does, so it can register a result future *before* any
        consumer can possibly answer).

        With ``lease_to``, the job is published already leased to that
        consumer — and returned, to be answered by the caller — when nothing
        is queued (FIFO holds), the consumer is attached, holds no lease and
        serves the target generation; no consumer is woken for it
        (``repro_fleet_jobs_total{event="inline"}``).  Otherwise it is
        queued as usual and ``None`` is returned.
        """
        job_id = job_id if job_id is not None else secrets.token_hex(8)
        with self._lock:
            if self._closed:
                raise RuntimeError("broker is closed")
            now = time.monotonic()
            job = Job(job_id=job_id, payload=payload, enqueued=now)
            if lease_to is not None and self._leasable_inline(lease_to):
                self._touch(lease_to)
                job.deliveries = 1
                self._inflight[job_id] = _Lease(
                    job=job, consumer_id=lease_to, deadline=now + self.visibility_timeout
                )
                _JOBS.labels("published").inc()
                _JOBS.labels("leased").inc()
                _JOBS.labels("inline").inc()
                return job
            if len(self._queue) >= self.capacity:
                raise BrokerFull(f"the broker queue is at capacity ({self.capacity} jobs)")
            self._queue.append(job)
            self._set_depth()
            _JOBS.labels("published").inc()
            self._work.notify()
            return None if lease_to is not None else job_id

    def _leasable_inline(self, consumer_id: str) -> bool:
        """May a job skip the queue onto ``consumer_id``? (lock held)"""
        if self._queue or consumer_id not in self._consumers:
            return False
        if any(lease.consumer_id == consumer_id for lease in self._inflight.values()):
            return False
        return self._target is None or self._generations[consumer_id] == self._target

    # -------------------------------------------------------------- consumers
    def attach(self, consumer_id: str, generation: Optional[int] = None) -> None:
        """Register a consumer serving ``generation`` — ``lease`` attaches
        implicitly too, with the generation unknown until the consumer
        reports one.  A re-attach starts afresh: no earlier load failure
        counts."""
        with self._lock:
            self._attach_locked(consumer_id, time.monotonic())
            self._generations[consumer_id] = generation
            self._failures.pop(consumer_id, None)

    def _attach_locked(self, consumer_id: str, now: float) -> None:
        fresh = consumer_id not in self._consumers
        self._consumers[consumer_id] = now
        if fresh:
            self._generations[consumer_id] = None
            log_event("fleet.consumer_attached", consumer=consumer_id)
            _CONSUMERS.set(len(self._consumers))

    def report(
        self, consumer_id: str, generation: int, target: int, error: Optional[str] = None
    ) -> None:
        """Record the generation an attached consumer serves after it was
        handed ``target``; with ``error``, that it could not load it — kept
        while ``target`` is still the target, and until then the consumer
        leases jobs on the generation it has.  A detached consumer's report
        changes nothing."""
        with self._lock:
            if consumer_id not in self._consumers:
                return
            self._touch(consumer_id)
            self._generations[consumer_id] = generation
            if error is not None and target == self._target:
                self._failures[consumer_id] = error
            log_event(
                "fleet.consumer_reported",
                consumer=consumer_id,
                generation=generation,
                target=target,
                error=error,
            )

    def _touch(self, consumer_id: str) -> None:
        """Keepalive from an attached consumer (lock held)."""
        if consumer_id in self._consumers:
            self._consumers[consumer_id] = time.monotonic()

    def detach(
        self, consumer_id: str, metrics: Optional[Dict[str, Dict[str, object]]] = None
    ) -> None:
        """Unregister a consumer; ``metrics`` is its parting registry delta."""
        _merge(metrics)
        with self._lock:
            self._detach_locked(consumer_id, reason="detach")

    def _detach_locked(self, consumer_id: str, reason: str) -> None:
        if consumer_id not in self._consumers:
            return
        del self._consumers[consumer_id]
        del self._generations[consumer_id]
        self._failures.pop(consumer_id, None)
        _CONSUMERS.set(len(self._consumers))
        if reason == "deadline":
            self._reaped.append(consumer_id)
        log_event("fleet.consumer_detached", consumer=consumer_id, reason=reason)
        self._work.notify_all()

    def inference_threads(self) -> int:
        """The threads one consumer's forwards may run on."""
        return self._inference_threads

    def take_reaped(self) -> List[str]:
        """Consumers detached for missing ``consumer_deadline`` since the last call."""
        with self._lock:
            reaped, self._reaped = self._reaped, []
            return reaped

    def lease(self, consumer_id: str, timeout: float = 1.0) -> Union[Job, int, None]:
        """The next thing ``consumer_id`` must do: the target generation (an
        ``int``) while it serves another one and has not failed to load it,
        else the oldest queued job; ``None`` when there is neither.

        Blocks up to ``timeout`` for either; a new target ends the wait at
        once.  An unknown consumer (never attached, or reaped while slow) is
        attached implicitly, so a consumer that went quiet long enough to be
        detached heals by simply calling ``lease`` again.
        """
        deadline = time.monotonic() + max(0.0, float(timeout))
        with self._work:
            while not self._closed:
                now = time.monotonic()
                self._attach_locked(consumer_id, now)
                if (
                    self._target is not None
                    and self._generations[consumer_id] != self._target
                    and consumer_id not in self._failures
                ):
                    return self._target
                job = self._take_job(consumer_id, now)
                if job is not None:
                    return job
                remaining = deadline - now
                if remaining <= 0:
                    return None
                self._work.wait(min(remaining, 0.25))
            return None

    def _take_job(self, consumer_id: str, now: float) -> Optional[Job]:
        """Pop the next deliverable job off the queue (lock held)."""
        while self._queue:
            job = self._queue.popleft()
            if job.job_id in self._finished_ids:
                # A requeued duplicate of a job another delivery already
                # completed — drop it silently (first ack won).
                continue
            self._set_depth()
            job.deliveries += 1
            self._inflight[job.job_id] = _Lease(
                job=job,
                consumer_id=consumer_id,
                deadline=now + self.visibility_timeout,
            )
            _JOBS.labels("leased").inc()
            return job
        self._set_depth()
        return None

    def ack(
        self,
        consumer_id: str,
        job_id: str,
        result: Any,
        metrics: Optional[Dict[str, Dict[str, object]]] = None,
        deliver: bool = True,
    ) -> bool:
        """Complete a job with its result; ``False`` for a late duplicate.

        ``metrics`` (a registry delta) is merged first, duplicate or not: the
        work was done, and the front's view is at least as fresh as the
        results it serves.  ``deliver=False`` records the job as finished
        without queueing its :class:`CompletedJob` — the acking caller is the
        one waiting for the result and already holds it."""
        _merge(metrics)
        with self._lock:
            self._touch(consumer_id)
            if job_id in self._finished_ids:
                _JOBS.labels("duplicate_ack").inc()
                return False
            lease = self._inflight.pop(job_id, None)
            if lease is not None:
                job = lease.job
            else:
                # The lease expired and the duplicate is still queued: find
                # and remove it so nobody executes it a second time.
                job = self._remove_queued(job_id)
                if job is None:
                    _JOBS.labels("duplicate_ack").inc()
                    return False
            self._finish(job, result=result, error=None, deliver=deliver)
            return True

    def nack(self, consumer_id: str, job_id: str, error: str) -> None:
        """Return a failed job for redelivery (or fail it for good once
        ``max_deliveries`` is spent).  Only the lease holder can: a consumer
        whose lease expired meanwhile gives back nothing — the job is queued
        again or leased to another consumer already."""
        with self._lock:
            self._touch(consumer_id)
            lease = self._inflight.get(job_id)
            if lease is None or lease.consumer_id != consumer_id:
                return
            del self._inflight[job_id]
            self._requeue(lease.job, error=error)

    def _remove_queued(self, job_id: str) -> Optional[Job]:
        for job in self._queue:
            if job.job_id == job_id:
                self._queue.remove(job)
                self._set_depth()
                return job
        return None

    def _requeue(self, job: Job, error: str) -> None:
        """Redeliver (head of the queue, next to lease) or give up."""
        if job.deliveries >= self.max_deliveries:
            self._finish(
                job,
                result=None,
                error=(
                    f"job {job.job_id} failed after {job.deliveries} deliveries: "
                    f"{error}"
                ),
            )
            return
        self._queue.appendleft(job)
        self._set_depth()
        _JOBS.labels("requeued").inc()
        self._work.notify()

    def _finish(
        self,
        job: Job,
        result: Any,
        error: Optional[str],
        deliver: bool = True,
    ) -> None:
        """Record a terminal outcome and, when it is to be delivered, wake the
        front (lock held)."""
        self._finished_ids[job.job_id] = time.monotonic()
        _JOBS.labels("completed" if error is None else "failed").inc()
        if not deliver:
            return
        self._completed.append(
            CompletedJob(
                job_id=job.job_id,
                result=result,
                error=error,
                deliveries=job.deliveries,
                enqueued=job.enqueued,
            )
        )
        self._done.notify_all()

    # ---------------------------------------------------------------- target
    def set_target(self, generation: int) -> None:
        """Make ``generation`` the one every consumer must serve: each is
        handed it by its next :meth:`lease` (a waiting one wakes now) and
        reports back with :meth:`report`.  The load failures reported for
        the previous target are forgotten."""
        with self._lock:
            if self._closed:
                raise RuntimeError("broker is closed")
            self._target = int(generation)
            self._failures.clear()
            log_event("fleet.target_set", generation=self._target)
            self._work.notify_all()

    # ----------------------------------------------------------------- front
    def poll_completed(self, timeout: float = 0.2) -> List[CompletedJob]:
        """Drain finished jobs, waiting up to ``timeout`` for the first one
        or a :meth:`wake` (the front's loop calls this)."""
        deadline = time.monotonic() + max(0.0, float(timeout))
        with self._done:
            while not self._completed and not self._closed and not self._woken:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._done.wait(min(remaining, 0.25))
            self._woken = False
            drained = list(self._completed)
            self._completed.clear()
            return drained

    def wake(self) -> None:
        """End the current (or the next) :meth:`poll_completed` wait now."""
        with self._done:
            self._woken = True
            self._done.notify_all()

    # ----------------------------------------------------------------- clocks
    def sweep(self) -> None:
        """Advance both clocks once: redeliver expired leases, detach silent
        consumers, forget finished ids past any duplicate.  The broker runs no
        thread; its owner calls this every few tenths of a second."""
        with self._lock:
            if self._closed:
                return
            now = time.monotonic()
            # 1. Expired leases: the consumer holding the job is presumed dead
            #    (or wedged past the visibility window); redeliver.
            expired = [lease for lease in self._inflight.values() if now > lease.deadline]
            for lease in expired:
                del self._inflight[lease.job.job_id]
                self._redeliveries += 1
                _REDELIVERIES.inc()
                logger.warning(
                    "job %s visibility timeout expired on consumer %s (delivery %d); "
                    "redelivering",
                    lease.job.job_id,
                    lease.consumer_id,
                    lease.job.deliveries,
                )
                log_event(
                    "fleet.job_redelivered",
                    job=lease.job.job_id,
                    consumer=lease.consumer_id,
                    deliveries=lease.job.deliveries,
                )
                self._requeue(lease.job, error="visibility timeout expired")
            # 2. Silent consumers: detach them (the front kills and replaces
            #    its own through take_reaped).
            for consumer_id, last_seen in list(self._consumers.items()):
                if now - last_seen > self.consumer_deadline:
                    logger.warning(
                        "consumer %s silent for %.1fs; detaching it",
                        consumer_id,
                        now - last_seen,
                    )
                    self._detach_locked(consumer_id, reason="deadline")
            # 3. Prune the finished-id dedupe set: anything older than one full
            #    delivery cycle can no longer have a duplicate in flight.  It is
            #    in completion order, so the stale ids are a prefix.
            horizon = now - (self.max_deliveries + 1) * self.visibility_timeout
            while self._finished_ids and next(iter(self._finished_ids.values())) < horizon:
                self._finished_ids.popitem(last=False)

    # ------------------------------------------------------------- introspection
    def _set_depth(self) -> None:
        _QUEUE_DEPTH.set(len(self._queue))

    def depth(self) -> int:
        """Jobs waiting (not leased, not finished)."""
        with self._lock:
            return len(self._queue)

    def consumer_count(self) -> int:
        with self._lock:
            return len(self._consumers)

    def redeliveries(self) -> int:
        with self._lock:
            return self._redeliveries

    def stats(self) -> Dict[str, Any]:
        """JSON-friendly broker snapshot for ``/info``."""
        with self._lock:
            # A redelivered job goes back to the head, so the head is not
            # always the oldest.
            oldest = min((job.enqueued for job in self._queue), default=None)
            return {
                "capacity": self.capacity,
                "visibility_timeout_seconds": self.visibility_timeout,
                "max_deliveries": self.max_deliveries,
                "depth": len(self._queue),
                "oldest_job_age_seconds": None if oldest is None else time.monotonic() - oldest,
                "inflight": len(self._inflight),
                "redeliveries": self._redeliveries,
                "target_generation": self._target,
                "consumers": list(self._consumers),
                "consumer_generations": dict(self._generations),
                "target_failures": dict(self._failures),
            }

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Fail everything still queued or in flight."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            error = "broker closed"
            for lease in list(self._inflight.values()):
                self._finish(lease.job, result=None, error=error)
            self._inflight.clear()
            while self._queue:
                self._finish(self._queue.popleft(), result=None, error=error)
            self._set_depth()
            self._work.notify_all()
            self._done.notify_all()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InProcBroker(capacity={self.capacity}, "
            f"visibility_timeout={self.visibility_timeout})"
        )


# --------------------------------------------------------------------- manager
# The in-process broker crosses process boundaries through the stdlib
# multiprocessing manager: the front serves its broker on a TCP socket and
# `repro fleet-worker` processes connect with the shared authkey.  Every
# proxy call runs inside the front's process, which is what keeps the broker
# "in-process" (one lock, one metrics registry) while the
# consumers scale out horizontally.


class _BrokerManager(BaseManager):
    """The manager both ends use; ``get_broker`` is its one typeid."""


_BrokerManager.register("get_broker")


def serve_broker(
    broker: InProcBroker, host: str = "127.0.0.1", port: int = 0, authkey: str = "repro-fleet"
) -> Tuple[Tuple[str, int], Callable[[], None]]:
    """Expose ``broker`` on ``host:port`` (0 picks an ephemeral port).

    Returns ``((host, port), stop)`` — ``stop()`` shuts the listener down.
    One daemon thread, ``repro-fleet-broker-accept``, accepts connections
    (plus one per connection serving its calls); ``authkey`` must match what
    consumers pass to :func:`connect_broker` (loopback + shared key is the
    intended deployment; put a real transport in front of it for untrusted
    networks).
    """
    server = _BrokerManager(address=(host, int(port)), authkey=authkey.encode()).get_server()
    # The class registers the typeid once; *which* broker a server hands out
    # is that server's own, so two fronts in one process never share one.
    server.registry = {"get_broker": (lambda: broker, *server.registry["get_broker"][1:])}
    # Set by serve_forever, which is not run: it only waits on a thread of
    # its own, and on its way out points sys.stdout / sys.stderr back at
    # sys.__stdout__ / sys.__stderr__, replacing the caller's streams.
    server.stop_event = threading.Event()

    def accept_until_stopped() -> None:
        # The stdlib accepter, except that it ends with the server: that one
        # retries accept() forever (its process is expected to exit), and on
        # our closed listener that is a busy loop convoying the GIL for every
        # other thread of a process that lives on.
        while not server.stop_event.is_set():
            try:
                conn = server.listener.accept()
            except OSError:
                continue
            threading.Thread(target=server.handle_request, args=(conn,), daemon=True).start()

    threading.Thread(
        target=accept_until_stopped, name="repro-fleet-broker-accept", daemon=True
    ).start()

    def stop() -> None:
        server.stop_event.set()
        # Closing a listener does not wake a thread blocked in accept() on
        # it; one throwaway connection does.
        try:
            socket.create_connection(server.address, timeout=1.0).close()
        except OSError:  # pragma: no cover - listener already gone
            pass
        try:
            server.listener.close()
        except Exception:  # pragma: no cover
            pass

    return server.address, stop


def connect_broker(
    address: Tuple[str, int], authkey: str = "repro-fleet"
) -> InProcBroker:
    """Connect to a broker served by :func:`serve_broker`; returns a proxy
    that duck-types :class:`InProcBroker`."""
    manager = _BrokerManager(
        address=(address[0], int(address[1])), authkey=authkey.encode()
    )
    manager.connect()
    return manager.get_broker()

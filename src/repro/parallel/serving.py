"""Multi-worker serving pool on top of the ensemble artifact format.

:class:`PoolPredictor` runs N worker processes that each warm-load one
:class:`~repro.api.predictor.EnsemblePredictor` from the *same* artifact
directory, and hands coalesced micro-batches of requests to the least-loaded
ready worker.  Any number of client threads can call :meth:`predict` /
:meth:`predict_proba` at once; each call blocks only on its own future.

**One loop.**  Everything between the clients and the workers happens on one
thread, ``repro-serve-loop``, built like the training executor's ``train()``
loop.  Each worker fills one slot of a
:class:`~repro.parallel.supervision.SlotTable` (process, private queues,
``starting | ready | down``, backoff; plus the pool's load and artifact
generation), and each pass waits once, in its ``poll``, on every worker's
result queue plus a :class:`~repro.parallel.supervision.LocalQueue` that
``predict_proba`` posts each request to; then it resolves replies and
ready/fatal handshakes, health-checks every ``supervise_interval`` seconds
until the pool is closed, and ships what :func:`dispatch_reason` says should
ship: a group of queued requests goes as soon as

(a) it holds ``max_batch`` rows (``full``), or
(b) some ready worker has nothing in flight (``idle``), or
(c) ``max_wait_ms`` has passed since its first request was enqueued
    (``deadline``).

Waiting therefore only ever happens under contention — every ready worker
busy — where the time is spent coalescing instead of queueing behind a worker
anyway; a lone request on an idle pool costs its work, not a timer.  Inside the
worker each request still runs through ``EnsemblePredictor.predict_proba`` with
its own rows, so every answer is **bitwise identical** to what a
single-process ``EnsemblePredictor`` returns for the same call.  Only the loop
spawns or stops a worker, so ``close()`` — which lets the loop stop them on
its way out — cannot race a spawn.

* *Self-healing.*  A dead worker, or one holding a dispatch past
  ``dispatch_timeout`` (wedged: it is SIGKILLed), is evicted: its in-flight
  requests fail promptly and the slot is respawned under the core's bounded
  exponential backoff (``restart_backoff`` doubling per consecutive failed
  attempt — a process that cannot even start counts — up to
  ``restart_backoff_max``; reaching ``ready`` starts it over).  :meth:`healthz`
  reports ``degraded`` until the respawn is warm; every transition is a
  structured event (``serve.worker_died`` / ``_hung`` / ``_respawned`` /
  ``_spawn_failed`` / ``_ready``) and counted in the ``repro_serve_*`` metrics.
* *Hot-swap is a reload.*  :meth:`~repro.core.artifact_store.ServingTier.swap`
  publishes the target and :meth:`PoolPredictor._roll`, in the swapping
  thread, puts ``("reload", request_id, path)`` on one worker's queue at a
  time: claimed under the pool lock like a dispatch, timed and failed like
  one.  The queue is FIFO, so whatever was dispatched before the reload is
  answered on the old generation and everything after on the new one; no
  process or queue is replaced.
* *Parent death.*  Workers watch their parent and exit when it is gone
  (:mod:`repro.parallel.worker`), so a SIGKILLed server leaves no orphan.

Data plane: a dispatch is a list of ``(request_id, rows, method)`` entries,
each carrying its request's rows inline on the worker's queue; no request is
ever refused for size.  Probabilities come back inline as raw bytes
(:func:`~repro.parallel.worker.answer_entry`).  Nothing outlives a request
but its answer, so a dead worker strands nothing the pool must reclaim.
"""

from __future__ import annotations

import atexit
import itertools
import math
import multiprocessing as mp
import pickle
import threading
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Union

import numpy as np

from repro.core.artifact_store import ServedArtifact, ServingTier
from repro.obs.events import log_event
from repro.obs.metrics import get_registry
from repro.parallel.supervision import STARTUP_TIMEOUT, LocalQueue, Slot, SlotTable
from repro.parallel.worker import _serving_worker_main
from repro.utils.logging import get_logger

#: How long a closing pool waits for its in-flight answers before it kills
#: the workers still holding some.
_DRAIN_TIMEOUT = 10.0

logger = get_logger("parallel.serving")

# Serving telemetry (repro.obs).  Request counters/latency are observed in
# the client-facing predict path (the parent process — exactly what the HTTP
# front scrapes); dispatch histograms and worker lifecycle counters in the
# loop thread.
_metrics = get_registry()
_REQUESTS = _metrics.counter(
    "repro_serve_requests_total", "Predict requests answered by the pool.", ("status",)
)
_REQUESTS_OK = _REQUESTS.labels("ok")
_REQUESTS_ERROR = _REQUESTS.labels("error")
_REQUEST_LATENCY = _metrics.histogram(
    "repro_serve_request_latency_seconds",
    "End-to-end predict latency (validation, dispatch, IPC, inference).",
)
_REQUEST_ROWS = _metrics.histogram(
    "repro_serve_request_rows",
    "Rows per predict request.",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048),
)
_DISPATCHES = _metrics.counter(
    "repro_serve_dispatches_total",
    "Micro-batch dispatches handed to workers, by why the group stopped "
    "coalescing (see dispatch_reason).",
    ("reason",),
)
_DISPATCH_WAIT = _metrics.histogram(
    "repro_serve_dispatch_wait_seconds",
    "Per request: enqueued by the client thread to handed to a worker "
    "(coalescing wait plus the loop's own work).",
)
_DISPATCH_ROWS = _metrics.histogram(
    "repro_serve_dispatch_rows",
    "Coalesced rows per micro-batch dispatch.",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048),
)
_WORKERS_ALIVE = _metrics.gauge(
    "repro_serve_workers_alive", "Pool workers currently loaded and serving."
)
_WORKERS_CONFIGURED = _metrics.gauge(
    "repro_serve_workers", "Pool workers configured at start-up."
)
_WORKER_DEATHS = _metrics.counter(
    "repro_serve_worker_deaths_total", "Pool worker processes found dead."
)
_WORKER_RESTARTS = _metrics.counter(
    "repro_serve_worker_restarts_total", "Pool worker processes respawned."
)
_WORKER_HANGS = _metrics.counter(
    "repro_serve_worker_hangs_total",
    "Pool workers killed for exceeding the dispatch deadline (wedged).",
)
_TRANSPORT_BYTES = _metrics.counter(
    "repro_serve_transport_bytes_total",
    "Bytes crossing the parent<->worker queues (pickled messages plus the "
    "rows and results they carry inline), by direction.",
    ("direction",),
)
_REQUEST_BYTES = _TRANSPORT_BYTES.labels("request")
_RESPONSE_BYTES = _TRANSPORT_BYTES.labels("response")


def _wire_nbytes(message: object) -> int:
    """Pickled size of a queue message; the bytes of the tensors it carries
    inline are counted out of band, not copied."""
    buffers: List[pickle.PickleBuffer] = []
    head = pickle.dumps(
        message, protocol=pickle.HIGHEST_PROTOCOL, buffer_callback=buffers.append
    )
    return len(head) + sum(memoryview(buffer).nbytes for buffer in buffers)


def _latency_quantiles(histogram) -> Dict[str, Optional[float]]:
    """p50/p99 of a latency histogram, JSON-friendly (``None`` when empty)."""
    out: Dict[str, Optional[float]] = {}
    for name, q in (("p50", 0.5), ("p99", 0.99)):
        value = histogram.quantile(q)
        out[name] = None if math.isnan(value) else value
    return out


@dataclass
class _Request:
    request_id: int
    x: Optional[np.ndarray]  # None for a reload
    method: str
    future: Future = field(default_factory=Future)
    enqueued: float = field(default_factory=time.monotonic)
    # Set together, under the pool lock, when the loop claims a worker.
    worker_id: Optional[int] = None
    dispatched: float = 0.0

    @property
    def rows(self) -> int:
        return int(self.x.shape[0])


@dataclass
class _PoolSlot(Slot):
    """A serving worker's slot: the supervision record plus what the pool
    keeps per worker."""

    load: int = 0  # its dispatched-but-unanswered requests (pool lock)
    generation: int = 0  # what its process loaded, or was last told to reload


def dispatch_reason(
    rows: int, max_batch: int, idle_worker: bool, waited: float, max_wait: float
) -> Optional[str]:
    """Why a coalesced group ships *now* — or ``None``: keep coalescing.

    ``rows`` is what the group holds, ``idle_worker`` whether some ready
    worker has nothing in flight, ``waited`` the seconds since the group's
    first request was enqueued and ``max_wait`` the bound on that wait.  The
    returned reason labels ``repro_serve_dispatches_total``.
    """
    if rows >= max_batch:
        return "full"
    if idle_worker:
        return "idle"
    if waited >= max_wait:
        return "deadline"
    return None


class PoolPredictor(ServingTier):
    """Serve one saved ensemble artifact from a pool of worker processes.

    Construct directly or via :meth:`load` (mirrors
    ``EnsemblePredictor.load``).  Always ``close()`` the pool — or use it as a
    context manager — so worker processes and queues shut down promptly; an
    ``atexit`` hook covers forgotten pools.

    Dispatch parameters (see :func:`dispatch_reason`)
    -------------------------------------------------
    max_batch:
        Rows at which a coalesced group ships whatever the workers are doing.
    max_wait_ms:
        Upper bound on how long a group keeps coalescing while every ready
        worker is busy; no request waits while a worker is idle.  ``0`` means
        never wait.

    Resilience parameters
    ---------------------
    restart_backoff / restart_backoff_max:
        Initial and maximum delay before respawning, doubling per consecutive
        failed attempt (a worker that reaches "ready" resets its backoff).
    supervise_interval:
        How often the loop health-checks the workers.
    worker_wait:
        How long a request waits for *some* worker to become available
        before it fails.
    dispatch_timeout:
        Per-dispatch deadline in seconds.  A worker holding a request in
        flight longer than this is treated as *wedged* (hung in a syscall,
        looping, SIGSTOPped): the loop SIGKILLs it, fails its in-flight
        requests promptly, and respawns it like any other dead worker.
        ``0`` disables hang detection (the pre-deadline behaviour).

    ``transport`` takes ``"pickle"`` only: rows and results travel inline.
    """

    def __init__(
        self,
        path: Union[str, Path],
        workers: int = 2,
        method: str = "average",
        batch_size: int = 256,
        max_batch: int = 1024,
        max_wait_ms: float = 2.0,
        request_timeout: float = 300.0,
        restart_backoff: float = 0.5,
        restart_backoff_max: float = 30.0,
        supervise_interval: float = 0.25,
        worker_wait: float = 60.0,
        dispatch_timeout: float = 120.0,
        transport: str = "pickle",
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        if supervise_interval <= 0:
            raise ValueError("supervise_interval must be positive")
        if dispatch_timeout < 0:
            raise ValueError("dispatch_timeout must be non-negative (0 disables)")
        # Accepted only as "pickle" because benchmarks/e2e/probes.py passes
        # it; the parameter goes once a benchmark-only change stops passing it.
        if transport != "pickle":
            raise ValueError(f"unknown transport {transport!r}; the pool has only 'pickle'")

        super().__init__(path, method)
        self.workers = int(workers)
        self.batch_size = int(batch_size)
        self.max_batch = int(max_batch)
        self.max_wait_ms = float(max_wait_ms)
        self.request_timeout = float(request_timeout)
        self.supervise_interval = float(supervise_interval)
        self.worker_wait = float(worker_wait)
        self.dispatch_timeout = float(dispatch_timeout)

        # One record per worker (process, queues, state, backoff, load):
        # only the loop thread spawns, evicts and stops, and ``state``,
        # ``load`` and ``generation`` change under the pool lock — a swap
        # claims workers from its own thread.
        self._table = SlotTable(
            mp.get_context("spawn"),
            [_PoolSlot(worker_id) for worker_id in range(self.workers)],
            _serving_worker_main,
            "repro-serve",
            backoff=restart_backoff,
            backoff_max=restart_backoff_max,
        )
        self._slots: List[_PoolSlot] = self._table.slots
        self._lock = threading.Lock()
        # The constructor and a swap waiting for a booting worker sleep on
        # it: notified by a ready/fatal handshake and by close().
        self._lifecycle = threading.Condition(self._lock)
        # The loop's in-process end of its wait set: predict_proba posts
        # ("request", None, request), close() a wake-up.
        self._inbox = LocalQueue()
        # Every unanswered request, queued or dispatched; a dispatched one
        # names its worker, so a death fails exactly that worker's requests
        # and its dispatch time feeds the hung-worker deadline.
        self._requests: Dict[int, _Request] = {}
        self._next_worker = 0  # round-robin tie-break; loop thread only
        self._restarts_total = 0
        self._load_failure: Optional[str] = None  # last "fatal" handshake
        self._request_ids = itertools.count()
        self._loop = threading.Thread(target=self._run, name="repro-serve-loop", daemon=True)
        _WORKERS_CONFIGURED.set(self.workers)
        try:
            # All workers boot concurrently; the pool is warm once every slot
            # has said ready.
            for slot in self._slots:
                self._spawn(slot)
            self._loop.start()
            with self._lock:
                warm = self._lifecycle.wait_for(
                    lambda: self._load_failure is not None
                    or all(slot.state == "ready" for slot in self._slots),
                    timeout=STARTUP_TIMEOUT,
                )
                failure = self._load_failure
            if failure is not None or not warm:
                raise RuntimeError(failure or "serving workers failed to start in time")
        except BaseException:
            self.close()
            raise
        atexit.register(self.close)
        logger.info(
            "serving %s ensemble (%d members) from %s with %d workers",
            self.approach,
            self.num_members,
            path,
            self.workers,
        )

    # ------------------------------------------------------------ factories
    @classmethod
    def load(cls, path: Union[str, Path], **kwargs) -> "PoolPredictor":
        """Mirror of ``EnsemblePredictor.load`` for the pooled server."""
        return cls(path, **kwargs)

    def _spawn(self, slot: _PoolSlot) -> None:
        """Start the slot's worker from the artifact the pool serves *now*.
        Loop thread only (and the constructor, before the loop starts)."""
        served = self._artifact
        slot.generation = served.generation
        self._table.spawn(slot, str(served.path), self.method, self.batch_size)

    # ------------------------------------------------------------- the loop
    def _run(self) -> None:
        """The pool's one thread: collect, supervise, dispatch — and once the
        pool is closed, ship what is queued, collect what is in flight (for
        up to ``_DRAIN_TIMEOUT`` seconds) and stop the workers."""
        pending: Deque[_Request] = deque()
        check_at = 0.0
        drained_by: Optional[float] = None
        timeout = 0.0
        graceful = False
        try:
            while True:
                self._collect(pending, timeout)
                now = time.monotonic()
                if now >= check_at:
                    if not self._closed:
                        self._supervise(now)
                    check_at = now + self.supervise_interval
                wait = self._dispatch(pending, now)
                timeout = check_at - now if wait is None else min(wait, check_at - now)
                if self._closed:
                    drained_by = drained_by or now + _DRAIN_TIMEOUT
                    graceful = not any(
                        slot.load > 0 and slot.process.is_alive() for slot in self._slots
                    )
                    if graceful or now >= drained_by:
                        break
        finally:
            self._shut_down(graceful)

    def _collect(self, pending: Deque[_Request], timeout: float) -> None:
        """One wait on the workers and the inbox; queue what the clients
        posted, resolve what the workers answered."""
        for kind, worker_id, payload in self._table.poll(timeout, self._inbox):
            if kind == "request":
                pending.append(payload)
            elif kind == "result":
                self._collect_result(payload)
            elif kind == "ready":
                slot = self._slots[worker_id]
                with self._lock:
                    if slot.state != "starting":
                        continue  # stale: the slot was evicted meanwhile
                    slot.state = "ready"
                    self._table.mark_healthy(slot)
                    self._lifecycle.notify_all()
                _WORKERS_ALIVE.set(self.alive_workers())
                log_event("serve.worker_ready", worker=worker_id)
                logger.info("serving worker %d is ready", worker_id)
            elif kind == "fatal":
                # The worker failed to load and exited; the next health
                # check finds the dead process and schedules the next attempt.
                logger.error("serving worker %d failed to load: %s", worker_id, payload)
                log_event("serve.worker_load_failed", worker=worker_id, error=str(payload))
                with self._lock:
                    self._load_failure = f"serving worker {worker_id} failed to load: {payload}"
                    self._lifecycle.notify_all()

    def _dispatch(self, pending: Deque[_Request], now: float) -> Optional[float]:
        """Ship micro-batches off the head of ``pending`` while
        :func:`dispatch_reason` says so — or fail them, if no worker is left
        to take them; returns how long the head group may wait for its next
        look, or ``None`` once nothing is pending.

        The worker is picked and claimed (its ``load`` raised, the requests
        stamped with it) under one hold of the pool lock — the
        way :meth:`_roll` claims one from the swapping thread — so an
        eviction that follows finds the group among the worker's in-flight
        requests and fails it with them.  A group that finds no ready worker
        waits up to ``worker_wait`` from its first request for capacity to
        come back before it fails; a closing pool never waits.
        """
        while pending:
            group: List[_Request] = []
            rows = 0
            for request in pending:
                if rows >= self.max_batch:
                    break
                group.append(request)
                rows += request.rows
            max_wait = 0.0 if self._closed else self.max_wait_ms / 1000.0
            waited = now - group[0].enqueued
            with self._lock:
                ready = [slot for slot in self._slots if slot.state == "ready"]
                idle = any(slot.load == 0 for slot in ready)
                reason = dispatch_reason(rows, self.max_batch, idle, waited, max_wait)
                if reason is None:
                    return max_wait - waited
                # Fewest requests in flight first — the idle one when the
                # reason is "idle" — round-robin among equals.
                ready.sort(
                    key=lambda s: (s.load, (s.worker_id - self._next_worker) % self.workers)
                )
                slot = next((s for s in ready if s.process.is_alive()), None)
                if slot is not None:
                    for request in group:
                        request.worker_id, request.dispatched = slot.worker_id, now
                    slot.load += len(group)
                    self._next_worker = (slot.worker_id + 1) % self.workers
            if slot is None and not self._closed and waited < self.worker_wait:
                return self.worker_wait - waited
            for _ in group:
                pending.popleft()
            if slot is None:
                error = "PoolPredictor closed" if self._closed else "no serving workers alive"
                for request in group:
                    self._resolve(request.request_id, exception=RuntimeError(error))
                continue
            item = self._build_dispatch(group)
            # Counted before the worker can see the item, so a client that
            # has its answer also finds its dispatch in the metrics.
            if _metrics.enabled:
                _DISPATCHES.labels(reason).inc()
                _DISPATCH_ROWS.observe(rows)
                handed = time.monotonic()
                for request in group:
                    _DISPATCH_WAIT.observe(handed - request.enqueued)
            slot.request_queue.put(item)
        return None

    def _shut_down(self, graceful: bool) -> None:
        """Stop the workers — each answers what is on its queue first, unless
        not ``graceful`` — resolve their last replies and release every
        queue."""
        self._table.stop(self._slots, graceful=graceful)
        self._collect(deque(), 0)
        self._table.close()
        self._inbox.close()

    # ------------------------------------------------------------ data plane
    def _build_dispatch(self, group: List[_Request]) -> List[tuple]:
        """Encode a micro-batch for the worker's request queue, every
        request's rows inline (the format is
        :func:`repro.parallel.worker.answer_entry`'s)."""
        entries = [(request.request_id, request.x, request.method) for request in group]
        if _metrics.enabled:
            _REQUEST_BYTES.inc(_wire_nbytes(entries))
        return entries

    def _collect_result(self, replies: List[tuple]) -> None:
        """Resolve one dispatch's replies, each result rebuilt from its raw
        bytes into one owned array (a reload's reply carries none)."""
        if _metrics.enabled:
            _RESPONSE_BYTES.inc(_wire_nbytes(replies))
        for request_id, proba, error in replies:
            if error is not None:
                self._resolve(request_id, exception=RuntimeError(error))
            elif proba is None:
                self._resolve(request_id)
            else:
                shape, dtype, data = proba
                result = np.frombuffer(data, dtype=dtype).reshape(shape).copy()
                self._resolve(request_id, result=result)

    # ------------------------------------------------------------ supervision
    def _supervise(self, now: float) -> None:
        """Evict dead and wedged workers, respawn the slots that are due.

        A wedged worker (hung in a syscall, looping, SIGSTOPped) holding a
        dispatch past ``dispatch_timeout`` still has a live process, so its
        clients would burn the whole request timeout; evicting it SIGKILLs it
        and fails them promptly, like any other death.  A respawn whose
        process cannot even start is a failed attempt of its own: the table
        puts the next one further out under the same backoff.
        """
        wedged = set()
        if self.dispatch_timeout > 0:
            with self._lock:
                wedged = {
                    request.worker_id
                    for request in self._requests.values()
                    if request.worker_id is not None
                    and now - request.dispatched > self.dispatch_timeout
                }
        for slot in self._slots:
            if slot.state == "down":
                continue
            if slot.process.is_alive():
                if slot.worker_id not in wedged:
                    continue
                _WORKER_HANGS.inc()
                logger.error(
                    "serving worker %d exceeded the %.0fs dispatch deadline; killing it",
                    slot.worker_id,
                    self.dispatch_timeout,
                )
                log_event(
                    "serve.worker_hung",
                    worker=slot.worker_id,
                    dispatch_timeout_seconds=self.dispatch_timeout,
                )
            self._evict(slot)
        for slot in self._table.due(now):
            try:
                self._spawn(slot)
            except Exception as exc:
                retry_in = slot.down_until - time.monotonic()
                logger.error(
                    "serving worker %d could not be started (%s); retrying in %.1fs",
                    slot.worker_id,
                    exc,
                    retry_in,
                )
                log_event(
                    "serve.worker_spawn_failed",
                    worker=slot.worker_id,
                    attempt=slot.failures,
                    error=f"{type(exc).__name__}: {exc}",
                    restart_in_seconds=round(retry_in, 3),
                )
                continue
            self._restarts_total += 1
            _WORKER_RESTARTS.inc()
            logger.info(
                "respawned serving worker %d (attempt %d)", slot.worker_id, slot.failures
            )
            log_event("serve.worker_respawned", worker=slot.worker_id, attempt=slot.failures)
        _WORKERS_ALIVE.set(self.alive_workers())

    def _evict(self, slot: _PoolSlot) -> None:
        """Take a dead worker out of dispatch, fail its in-flight requests,
        schedule its respawn."""
        exitcode, backoff = self._table.evict(slot)
        with self._lock:
            orphaned = [
                request.request_id
                for request in self._requests.values()
                if request.worker_id == slot.worker_id
            ]
        _WORKER_DEATHS.inc()
        logger.error(
            "serving worker %d died (exit code %s); failing %d in-flight requests, "
            "respawning in %.1fs",
            slot.worker_id,
            exitcode,
            len(orphaned),
            backoff,
        )
        log_event(
            "serve.worker_died",
            worker=slot.worker_id,
            exitcode=exitcode,
            inflight_failed=len(orphaned),
            restart_in_seconds=backoff,
        )
        error = RuntimeError(f"serving worker {slot.worker_id} died")
        for request_id in orphaned:
            self._resolve(request_id, exception=error)

    # -------------------------------------------------------------- hot swap
    def _roll(self, target: ServedArtifact, timeout: Optional[float]) -> int:
        """Reload every worker's predictor onto ``target`` (already published
        by :meth:`~repro.core.artifact_store.ServingTier.swap`), one worker at
        a time; returns how many were reloaded.

        A reload is one more request on the worker's own queue, claimed like
        a dispatch — the loop prefers the other workers meanwhile, the
        dispatch deadline and eviction apply — so FIFO order keeps every
        answer on one generation.  A worker that is not ready is waited for
        until it is, or until its respawn — which loads the target — begins.
        """
        deadline = time.monotonic() + (
            STARTUP_TIMEOUT * self.workers if timeout is None else timeout
        )
        timed_out = (
            f"timed out rolling workers onto generation {target.generation} during swap"
        )
        rolled = 0
        for slot in self._slots:
            with self._lock:
                while slot.generation != target.generation and not (
                    slot.state == "ready" and slot.process.is_alive()
                ):
                    remaining = deadline - time.monotonic()
                    if self._closed or remaining <= 0:
                        break
                    # A ready handshake wakes us; an eviction or a respawn
                    # shows at the loop's health-check pace.
                    self._lifecycle.wait(min(remaining, self.supervise_interval))
                if self._closed:
                    raise RuntimeError("PoolPredictor closed during swap")
                if slot.generation == target.generation:
                    continue
                if slot.state != "ready" or not slot.process.is_alive():
                    raise RuntimeError(f"{timed_out} ({rolled} of {self.workers} rolled)")
                reload = _Request(next(self._request_ids), None, "reload")
                reload.worker_id, reload.dispatched = slot.worker_id, time.monotonic()
                self._requests[reload.request_id] = reload
                slot.load += 1
                # From here the worker will end up on the target, whatever
                # becomes of this call: a rollback must reload it.
                slot.generation = target.generation
            slot.request_queue.put(("reload", reload.request_id, str(target.path)))
            try:
                reload.future.result(timeout=max(0.0, deadline - time.monotonic()))
                error = None
            except FutureTimeout:
                error = f"{timed_out} ({rolled} of {self.workers} rolled)"
            except RuntimeError as exc:
                error = (
                    f"worker {slot.worker_id} failed to load generation "
                    f"{target.generation} during swap: {exc}"
                )
            # A worker that finished its reload while close() drained it
            # still leaves a pool that serves nothing.
            if self._closed:
                raise RuntimeError("PoolPredictor closed during swap")
            if error is not None:
                raise RuntimeError(error)
            rolled += 1
            log_event("swap.worker_rolled", worker=slot.worker_id, generation=target.generation)
        return rolled

    def _resolve(self, request_id: int, result=None, exception=None) -> None:
        """Answer a request once: a late reply for one already failed finds
        nothing."""
        with self._lock:
            request = self._requests.pop(request_id, None)
            if request is not None and request.worker_id is not None:
                self._slots[request.worker_id].load -= 1
        if request is None:
            return
        if exception is not None:
            request.future.set_exception(exception)
        else:
            request.future.set_result(result)

    # --------------------------------------------------------------- client
    def predict_proba(
        self,
        x: np.ndarray,
        method: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> np.ndarray:
        """Combined class probabilities, shape ``(samples, classes)``.

        Bitwise identical to ``EnsemblePredictor.predict_proba`` on the same
        input.  Safe to call from many threads at once.
        """
        start = time.perf_counter()
        try:
            from repro.api.predictor import validate_batch

            x = validate_batch(x, self.input_shape)
            resolved = self._resolve_method(method)
            request = _Request(next(self._request_ids), x, resolved)
            # Registered under the lock that close() sets _closed under: a
            # request either fails here or is answered or failed by close().
            with self._lock:
                if self._closed:
                    raise RuntimeError("PoolPredictor closed")
                self._requests[request.request_id] = request
            self._inbox.put(("request", None, request))
            result = request.future.result(timeout=timeout or self.request_timeout)
        except BaseException:
            _REQUESTS_ERROR.inc()
            raise
        if _metrics.enabled:
            _REQUESTS_OK.inc()
            _REQUEST_ROWS.observe(x.shape[0])
            _REQUEST_LATENCY.observe(time.perf_counter() - start)
        return result

    # ------------------------------------------------------------ lifecycle
    def alive_workers(self) -> int:
        """Workers that are loaded *and* whose process is alive right now."""
        with self._lock:
            ready = [slot.process for slot in self._slots if slot.state == "ready"]
        return sum(process.is_alive() for process in ready)

    def healthz(self) -> Dict[str, Any]:
        """Health summary for the ``/healthz`` endpoint.

        ``status`` is ``ok`` at full capacity, ``degraded`` while some (but
        not all) workers are down — e.g. during the death-to-respawn-to-warm
        gap — and ``down`` when no worker can answer.
        """
        alive = self.alive_workers()
        if alive == self.workers:
            status = "ok"
        elif alive > 0:
            status = "degraded"
        else:
            status = "down"
        return {
            "status": status,
            "alive_workers": alive,
            "workers": self.workers,
            "generation": self.generation,
            "restarts": self._restarts_total,
        }

    def info(self) -> Dict[str, Any]:
        """JSON-friendly description of the pool (CLI ``serve`` /info)."""
        return {
            "artifact": str(self.path),
            "approach": self.approach,
            "generation": self.generation,
            "swaps": self._swaps_total,
            "workers": self.workers,
            "alive_workers": self.alive_workers(),
            "worker_pids": [slot.process.pid for slot in self._slots],
            "restarts": self._restarts_total,
            "num_members": self.num_members,
            "num_classes": self.num_classes,
            "input_shape": list(self.input_shape),
            "method": self.method,
            "max_batch": self.max_batch,
            "max_wait_ms": self.max_wait_ms,
            "super_learner": self._artifact.has_super_learner,
            "request_latency_seconds": _latency_quantiles(_REQUEST_LATENCY),
        }

    def close(self) -> None:
        """Close the pool: the loop ships what is queued, collects what is in
        flight and stops the workers; whatever is still unanswered then fails.

        Idempotent; after it returns no child process or thread of the pool
        is left.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._lifecycle.notify_all()
        if self._loop.ident is None:  # the constructor failed before starting it
            self._shut_down(graceful=False)
        else:
            self._inbox.put(("close", None, None))
            self._loop.join()
        with self._lock:
            leftovers = list(self._requests.values())
            self._requests.clear()
        for request in leftovers:
            request.future.set_exception(RuntimeError("PoolPredictor closed"))
        atexit.unregister(self.close)
        log_event("serve.pool_closed", artifact=str(self.path))
        logger.info("serving pool for %s shut down", self.path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PoolPredictor(artifact={str(self.path)!r}, workers={self.workers}, "
            f"method={self.method!r})"
        )

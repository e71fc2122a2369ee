"""Multi-worker serving pool on top of the ensemble artifact format.

:class:`PoolPredictor` closes the ROADMAP "multi-process serving" item: N
worker processes each warm-load one :class:`~repro.api.predictor.EnsemblePredictor`
from the *same* artifact directory, and a dispatcher coalesces incoming
requests into micro-batches that are handed to the least-loaded ready worker.
Client calls are thread-safe: any number of application threads can call
:meth:`predict` / :meth:`predict_proba` concurrently; each call blocks only
on its own future.

Dispatch rule (:func:`dispatch_reason`): the dispatcher first takes whatever
is *already* queued, without blocking, then ships the group as soon as

(a) it holds ``max_batch`` rows (``full``), or
(b) some ready worker has nothing in flight (``idle``), or
(c) ``max_wait_ms`` has passed since the group's first request was enqueued
    (``deadline``),

sleeping in between until a request arrives or a worker goes idle.  Waiting
therefore only ever happens under contention — every ready worker busy — where
the time is spent coalescing instead of queueing behind a worker anyway; a
lone request on an idle pool costs its work, not a timer.  ``max_wait_ms`` is
the upper bound on that contended wait; ``0`` means never wait.

Micro-batching semantics: coalescing groups *requests* into one IPC dispatch
(amortising queue/pickle overhead); inside the worker each request still runs
through ``EnsemblePredictor.predict_proba`` with its own rows and the
configured ``batch_size``, so every answer is **bitwise identical** to what a
single-process ``EnsemblePredictor`` would return for the same call.

Self-healing: a supervisor thread health-checks the worker processes every
``supervise_interval`` seconds.  A dead worker has its in-flight requests
failed promptly, is evicted from dispatch, and — when ``restart_workers`` is
on (the default) — is respawned from the artifact directory under a bounded
exponential backoff (``restart_backoff`` doubling per consecutive failed
attempt up to ``restart_backoff_max``).  :meth:`healthz` reports ``degraded``
while capacity is reduced and returns to ``ok`` once the respawned worker has
its predictor warm again; every transition is recorded as a structured event
(``serve.worker_died`` / ``serve.worker_respawned`` / ``serve.worker_ready``)
and counted in the ``repro_serve_*`` metrics.

Crash-safe IPC layout: every worker owns a private request queue (parent
writes, worker reads) and a private result queue (worker writes, parent
reads), so each internal queue lock ever has exactly one process on each
side.  A worker SIGKILLed while holding a lock — e.g. mid-``get`` on its
request queue — therefore poisons only its *own* queues, and the supervisor
replaces both with fresh ones at respawn; with a lock shared across workers
(the naive single result queue) one crash could deadlock the whole pool.
The collector multiplexes the per-worker result queues through
``multiprocessing.connection.wait``.

Transports: with ``transport="shm"`` (the default) each worker additionally
owns a shared-memory arena (:class:`~repro.parallel.shm_transport.ShmArena`)
and the queues carry only fixed-size descriptors — request rows are written
once into the worker's arena and probabilities come back as zero-copy views
of worker-written result regions.  ``transport="pickle"`` keeps the original
tensors-through-the-queue path as the bitwise reference; the shm dispatcher
also falls back to it per dispatch whenever a request does not fit the arena.
A dead worker's arena is retired wholesale (name unlinked immediately, the
mapping closed once the last client-held result view is garbage collected)
and the respawned worker gets a fresh generation, so a SIGKILL mid-slot-write
can never wedge the dispatcher or leak ``/dev/shm`` segments.
"""

from __future__ import annotations

import atexit
import itertools
import math
import pickle
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from math import prod
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

import multiprocessing as mp

import numpy as np

from repro.core.artifact_store import (
    ARTIFACT_GENERATION,
    resolve_artifact,
)
from repro.core.ensemble import resolve_combination_method
from repro.obs.events import log_event
from repro.obs.metrics import get_registry
from repro.parallel.shm_transport import RESULT_ITEMSIZE, ShmArena, _align
from repro.parallel.supervision import poll_results
from repro.parallel.worker import _serving_worker_main
from repro.utils.logging import get_logger

TRANSPORTS = ("shm", "pickle")

logger = get_logger("parallel.serving")

# Serving telemetry (repro.obs).  Request counters/latency are observed in
# the client-facing predict path (the parent process — exactly what the HTTP
# front scrapes); dispatch histograms in the dispatcher thread; worker
# lifecycle counters in the supervisor.
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
    "(coalescing wait plus the dispatcher's own work).",
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
    "Bytes crossing the parent<->worker process boundary, by transport and "
    "direction (shm counts only the queue descriptors; pickle counts the "
    "tensor payloads).",
    ("transport", "direction"),
)
_TRANSPORT_FALLBACKS = _metrics.counter(
    "repro_serve_transport_fallbacks_total",
    "Dispatches the shm transport handed to the pickle path instead.",
    ("reason",),
)
_TRANSPORT_PHASE = _metrics.histogram(
    "repro_serve_transport_phase_seconds",
    "Per-dispatch transport phases: copying rows into the arena (shm) or "
    "building the tensor payload (pickle).",
    ("transport", "phase"),
)
_SWAPS = _metrics.counter(
    "repro_swap_total", "Artifact hot-swaps attempted by the pool.", ("status",)
)
_SWAP_WORKERS = _metrics.counter(
    "repro_swap_workers_respawned_total",
    "Pool workers rolled onto a new artifact generation during swaps.",
)
_SWAP_SECONDS = _metrics.histogram(
    "repro_swap_seconds",
    "Swap makespan: first worker drained to last worker warm on the new "
    "generation.",
)

#: Estimated per-request pickle framing on the reference transport; the
#: tensor bytes dominate, so the counter is a (tight) lower bound of the
#: true pickled size — conservative for any shm-vs-pickle ratio claim.
_PICKLE_OVERHEAD = 64


def _descriptor_nbytes(message: object) -> int:
    """Actual pickled size of a (small) queue descriptor."""
    return len(pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))


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
    x: np.ndarray
    method: str
    future: Future = field(default_factory=Future)
    enqueued: float = field(default_factory=time.monotonic)

    @property
    def rows(self) -> int:
        return int(self.x.shape[0])


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


class PoolPredictor:
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
    restart_workers:
        When true (default), dead workers are automatically respawned from
        the artifact directory; when false the pool only evicts them (the
        pre-supervisor behaviour).
    restart_backoff / restart_backoff_max:
        Initial and maximum delay before respawning, doubling per consecutive
        failed attempt (a worker that reaches "ready" resets its backoff).
    supervise_interval:
        How often the supervisor thread health-checks the workers.
    worker_wait:
        How long a dispatch waits for *some* worker to become available
        before failing its requests, when respawn is enabled.
    dispatch_timeout:
        Per-dispatch deadline in seconds.  A worker holding a request in
        flight longer than this is treated as *wedged* (hung in a syscall,
        looping, SIGSTOPped): the supervisor SIGKILLs it, fails its in-flight
        requests promptly, and respawns it like any other dead worker.
        ``0`` disables hang detection (the pre-deadline behaviour).

    Transport parameters
    --------------------
    transport:
        ``"shm"`` (default) moves request rows and result probabilities
        through per-worker shared-memory arenas; the queues carry only small
        fixed-size descriptors.  ``"pickle"`` is the reference path with the
        tensors pickled through the queues; both produce bitwise-identical
        predictions.
    arena_slots:
        Arena capacity in units of ``max_batch``-row dispatches.  A single
        request larger than ``max_batch`` rows occupies several slots' worth
        of contiguous bytes; anything that exceeds the whole arena falls back
        to the pickle path for that dispatch.
    """

    def __init__(
        self,
        path: Union[str, Path],
        workers: int = 2,
        method: str = "average",
        batch_size: int = 256,
        max_batch: int = 1024,
        max_wait_ms: float = 2.0,
        warm: bool = True,
        request_timeout: float = 300.0,
        startup_timeout: float = 180.0,
        restart_workers: bool = True,
        restart_backoff: float = 0.5,
        restart_backoff_max: float = 30.0,
        supervise_interval: float = 0.25,
        worker_wait: float = 60.0,
        dispatch_timeout: float = 120.0,
        transport: str = "shm",
        arena_slots: int = 4,
    ):
        from repro.api.artifacts import read_manifest

        if workers < 1:
            raise ValueError("workers must be at least 1")
        resolve_combination_method(method, has_super_learner=True)
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        if restart_backoff <= 0 or restart_backoff_max < restart_backoff:
            raise ValueError("need 0 < restart_backoff <= restart_backoff_max")
        if supervise_interval <= 0:
            raise ValueError("supervise_interval must be positive")
        if dispatch_timeout < 0:
            raise ValueError("dispatch_timeout must be non-negative (0 disables)")
        if transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {transport!r}; valid choices: "
                + ", ".join(repr(t) for t in TRANSPORTS)
            )
        if arena_slots < 1:
            raise ValueError("arena_slots must be positive")

        # Resolve the (possibly store-layout) artifact path once: workers
        # spawn from the concrete generation directory, while self.path keeps
        # the caller's root so swap() can re-resolve CURRENT later.
        resolved = resolve_artifact(path)
        self.path = Path(path)
        self._artifact_dir = resolved.path
        self.generation = resolved.generation
        manifest = read_manifest(self._artifact_dir)
        self.method = method
        self.workers = int(workers)
        self.batch_size = int(batch_size)
        self.warm = bool(warm)
        self.max_batch = int(max_batch)
        self.max_wait_ms = float(max_wait_ms)
        self.request_timeout = float(request_timeout)
        self.transport = transport
        self.arena_slots = int(arena_slots)
        self.restart_workers = bool(restart_workers)
        self.restart_backoff = float(restart_backoff)
        self.restart_backoff_max = float(restart_backoff_max)
        self.supervise_interval = float(supervise_interval)
        self.worker_wait = float(worker_wait)
        self.dispatch_timeout = float(dispatch_timeout)
        self.startup_timeout = float(startup_timeout)
        self.input_shape = tuple(int(d) for d in manifest["input_shape"])
        self.num_classes = int(manifest["num_classes"])
        self.num_members = len(manifest["members"])
        self.approach = manifest["approach"]
        self._has_super_learner = manifest.get("super_learner_weights") is not None
        resolve_combination_method(
            method, has_super_learner=self._has_super_learner
        )

        self._feature_size = prod(self.input_shape)
        self._ctx = mp.get_context("spawn")
        self._request_queues = []
        self._result_queues = []
        self._processes: List[mp.Process] = []
        self._arenas: List[Optional[ShmArena]] = [None] * self.workers
        self._arena_generation = [0] * self.workers
        self._closed = False
        self._lock = threading.Lock()
        # The dispatcher sleeps on this condition (same lock as everything
        # below): notified when a request is enqueued, when a worker's
        # in-flight count drops to zero or a worker turns ready, and by
        # close().
        self._wake = threading.Condition(self._lock)
        self._pending: Deque[_Request] = deque()
        self._futures: Dict[int, Future] = {}
        # request_id -> worker_id for dispatched-but-unanswered requests, so
        # a worker death fails exactly its in-flight futures (promptly,
        # instead of letting clients run into the full request timeout);
        # request_id -> dispatch time feeds the hung-worker deadline.
        # _load[worker_id] counts that worker's entries in _inflight and
        # changes only together with it, under _lock — so "idle", the rolling
        # swap's drain check and a death's orphan list read one picture.
        self._inflight: Dict[int, int] = {}
        self._inflight_since: Dict[int, float] = {}
        self._load: List[int] = [0] * self.workers
        self._next_worker = 0  # round-robin tie-break; dispatcher thread only
        # Worker lifecycle state.  _ready holds the ids whose predictor is
        # loaded (guarded by _lock, written by the collector/supervisor);
        # _down maps a dead worker to the monotonic time its respawn is due
        # (None = respawn disabled) and _attempts counts consecutive failed
        # starts since the worker last reached "ready" (drives the backoff).
        # Both are touched only by the supervisor thread (and close()).
        self._ready: set = set()
        self._down: Dict[int, Optional[float]] = {}
        self._attempts: Dict[int, int] = {i: 0 for i in range(self.workers)}
        self._restarts_total = 0
        # Hot-swap state.  _swapping (guarded by _lock) marks workers whose
        # lifecycle the rolling swap temporarily owns — the supervisor must
        # not race it with its own respawn; _lifecycle_lock serialises the
        # swap's process replacement against _check_workers wholesale; the
        # non-reentrant _swap_lock admits one swap at a time.
        self._swapping: set = set()
        self._lifecycle_lock = threading.Lock()
        self._swap_lock = threading.Lock()
        self._swaps_total = 0
        self._request_ids = itertools.count()
        for worker_id in range(self.workers):
            self._request_queues.append(self._ctx.Queue())
            self._result_queues.append(self._ctx.Queue())
            if self.transport == "shm":
                self._arenas[worker_id] = self._new_arena(worker_id)
            self._processes.append(self._spawn_worker(worker_id))
        _WORKERS_CONFIGURED.set(self.workers)

        # Wait until every worker has its predictor loaded (warm pool).
        deadline = time.monotonic() + float(startup_timeout)
        try:
            while len(self._ready) < self.workers:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise RuntimeError("serving workers failed to start in time")
                for kind, worker_id, info in poll_results(self._result_queues, remaining):
                    if kind == "ready":
                        self._ready.add(worker_id)
                    elif kind == "fatal":
                        raise RuntimeError(
                            f"serving worker {worker_id} failed to load: {info}"
                        )
        except BaseException:
            self._shutdown_processes()
            self._retire_arenas()
            raise
        _WORKERS_ALIVE.set(len(self._ready))

        self._stop_supervisor = threading.Event()
        self._stop_collector = threading.Event()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch", daemon=True
        )
        self._collector = threading.Thread(
            target=self._collect_loop, name="repro-serve-collect", daemon=True
        )
        self._supervisor = threading.Thread(
            target=self._supervise_loop, name="repro-serve-supervise", daemon=True
        )
        self._dispatcher.start()
        self._collector.start()
        self._supervisor.start()
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

    def _new_arena(self, worker_id: int) -> ShmArena:
        return ShmArena(
            worker_id,
            max_batch=self.max_batch,
            feature_size=self._feature_size,
            num_classes=self.num_classes,
            slots=self.arena_slots,
            generation=self._arena_generation[worker_id],
        )

    def _retire_arenas(self) -> None:
        for worker_id, arena in enumerate(self._arenas):
            if arena is not None:
                arena.retire()
            self._arenas[worker_id] = None

    def _spawn_worker(self, worker_id: int) -> mp.Process:
        """Start the worker process for ``worker_id`` on that worker's
        *current* private queues and arena (respawns install fresh ones
        first — see :meth:`_respawn_worker`)."""
        arena = self._arenas[worker_id]
        process = self._ctx.Process(
            target=_serving_worker_main,
            args=(
                worker_id,
                str(self._artifact_dir),
                self.method,
                self.batch_size,
                self.warm,
                arena.meta if arena is not None else None,
                self._request_queues[worker_id],
                self._result_queues[worker_id],
            ),
            daemon=True,
            name=f"repro-serve-{worker_id}",
        )
        process.start()
        return process

    # ------------------------------------------------------- internal loops
    def _dispatch_loop(self) -> None:
        while True:
            taken = self._next_group()
            if taken is None:
                break
            self._dispatch_group(*taken)
            # Drop the request references before blocking for the next group:
            # each _Request pins its input tensor and (through its future)
            # the eventual result view — holding them across the idle wait
            # would keep arena result regions reserved long after the client
            # dropped its copy.
            taken = None

    def _next_group(self) -> Optional[Tuple[List[_Request], int, str]]:
        """Block until a micro-batch should ship; ``(group, rows, reason)``,
        or ``None`` once the pool is closed and nothing is queued.

        Takes what is already queued without blocking, asks
        :func:`dispatch_reason`, and otherwise sleeps until a request
        arrives, a worker goes idle or the group's deadline passes.
        """
        group: List[_Request] = []
        rows = 0
        with self._wake:
            while True:
                while self._pending and rows < self.max_batch:
                    request = self._pending.popleft()
                    group.append(request)
                    rows += request.rows
                if not group:
                    if self._closed:
                        return None
                    self._wake.wait()
                    continue
                # A closing pool never waits.
                max_wait = 0.0 if self._closed else self.max_wait_ms / 1000.0
                waited = time.monotonic() - group[0].enqueued
                idle = any(self._load[worker_id] == 0 for worker_id in self._ready)
                reason = dispatch_reason(rows, self.max_batch, idle, waited, max_wait)
                if reason is not None:
                    return group, rows, reason
                self._wake.wait(max_wait - waited)

    def _dispatch_group(self, group: List[_Request], rows: int, reason: str) -> None:
        """Hand one micro-batch to a ready worker, or fail it if none is left.

        The in-flight registration double-checks the chosen worker is still
        in ``_ready`` under the pool lock before anything lands on its
        queue.  A rolling swap removes a worker from ``_ready`` under the
        same lock and only drains/stops it once no in-flight request maps to
        it — so a dispatch either commits *before* the drain check (the old
        worker answers it on the old generation) or re-targets another
        worker.  Without the recheck, a dispatch could slip onto a worker's
        queue after the swap observed it idle and sent the stop sentinel,
        stranding the requests until the client timeout.
        """
        while True:
            worker_id = self._pick_worker(group)
            if worker_id is None:
                return
            item = self._build_dispatch(worker_id, group)
            dispatched = time.monotonic()
            with self._lock:
                claimed = worker_id in self._ready
                if claimed:
                    for request in group:
                        self._inflight[request.request_id] = worker_id
                        self._inflight_since[request.request_id] = dispatched
                    self._load[worker_id] += len(group)
            if not claimed:
                self._abort_dispatch(worker_id, item)
                continue
            # Counted before the worker can see the item, so a client that
            # has its answer also finds its dispatch in the metrics.
            if _metrics.enabled:
                _DISPATCHES.labels(reason).inc()
                _DISPATCH_ROWS.observe(rows)
                for request in group:
                    _DISPATCH_WAIT.observe(dispatched - request.enqueued)
            self._request_queues[worker_id].put(item)
            return

    def _abort_dispatch(self, worker_id: int, item: tuple) -> None:
        """Release arena regions reserved for a dispatch that never shipped
        (its worker left the ready set between pick and claim)."""
        if item[0] != "shm":
            return
        generation, request_region, entries = item[1]
        arena = self._arenas[worker_id]
        if arena is None or arena.generation != generation:
            return  # the arena was already retired wholesale
        for entry in entries:
            arena.free_result(entry[5])
        arena.free_request(request_region)

    # ------------------------------------------------------------ transports
    def _build_dispatch(self, worker_id: int, group: List[_Request]) -> tuple:
        """Encode a micro-batch for ``worker_id``'s queue.

        On the shm transport the rows are written into the worker's arena and
        the queue item is a fixed-size descriptor; when the arena cannot hold
        the dispatch (ring momentarily full, or a request bigger than the
        whole arena) the dispatch degrades to the pickle encoding — the
        worker accepts either, so no request is ever refused for size.
        """
        if self.transport == "shm":
            item = self._build_shm_dispatch(worker_id, group)
            if item is not None:
                return item
        with _TRANSPORT_PHASE.labels("pickle", "request_serialize").time():
            payload = [
                (request.request_id, request.x, request.method) for request in group
            ]
        if _metrics.enabled:
            _TRANSPORT_BYTES.labels("pickle", "request").inc(
                sum(request.x.nbytes for request in group)
                + _PICKLE_OVERHEAD * len(group)
            )
        return ("pickle", payload)

    def _build_shm_dispatch(
        self, worker_id: int, group: List[_Request]
    ) -> Optional[tuple]:
        """Reserve arena regions and copy the rows in; ``None`` on any
        capacity miss (the caller falls back to pickle)."""
        arena = self._arenas[worker_id]
        if arena is None:  # pragma: no cover - shm transport always has one
            return None
        request_region = arena.alloc_request(
            sum(_align(request.x.nbytes) for request in group)
        )
        if request_region is None:
            _TRANSPORT_FALLBACKS.labels("request_ring_full").inc()
            return None
        entries: List[tuple] = []
        result_offsets: List[int] = []
        cursor = request_region
        for request in group:
            result_capacity = _align(request.rows * self.num_classes * RESULT_ITEMSIZE)
            result_offset = arena.alloc_result(result_capacity)
            if result_offset is None:
                for offset in result_offsets:
                    arena.free_result(offset)
                arena.free_request(request_region)
                _TRANSPORT_FALLBACKS.labels("result_ring_full").inc()
                return None
            result_offsets.append(result_offset)
            entries.append(
                (
                    request.request_id,
                    cursor,
                    tuple(request.x.shape),
                    str(request.x.dtype),
                    request.method,
                    result_offset,
                    result_capacity,
                )
            )
            cursor += _align(request.x.nbytes)
        with _TRANSPORT_PHASE.labels("shm", "request_copy").time():
            for request, entry in zip(group, entries):
                arena.write_request(entry[1], request.x)
        item = ("shm", (arena.generation, request_region, entries))
        if _metrics.enabled:
            _TRANSPORT_BYTES.labels("shm", "request").inc(_descriptor_nbytes(item))
        return item

    def _pick_worker(self, group: List[_Request]) -> Optional[int]:
        """The ready worker with the fewest requests in flight — the idle one
        when :func:`dispatch_reason` said ``idle`` — round-robin among equals;
        with respawn enabled, wait up to ``worker_wait`` for capacity to come
        back before failing the group."""
        deadline = time.monotonic() + self.worker_wait
        while True:
            with self._lock:
                ranked = sorted(
                    self._ready,
                    key=lambda w: (self._load[w], (w - self._next_worker) % self.workers),
                )
            for worker_id in ranked:
                if self._processes[worker_id].is_alive():
                    self._next_worker = (worker_id + 1) % self.workers
                    return worker_id
            if self._closed or not self.restart_workers or time.monotonic() >= deadline:
                break
            time.sleep(0.05)
        error = RuntimeError("no serving workers alive")
        for request in group:
            self._resolve(request.request_id, exception=error)
        return None

    def _collect_loop(self) -> None:
        while not self._stop_collector.is_set():
            for kind, worker_id, payload in poll_results(self._result_queues, 0.2):
                if kind == "result":
                    if payload[0] == "shm":
                        self._collect_shm_result(worker_id, payload)
                    else:
                        replies = payload[1]
                        if _metrics.enabled:
                            _TRANSPORT_BYTES.labels("pickle", "response").inc(
                                sum(
                                    proba.nbytes
                                    for _, proba, _ in replies
                                    if proba is not None
                                )
                                + _PICKLE_OVERHEAD * len(replies)
                            )
                        for request_id, proba, error in replies:
                            if error is not None:
                                self._resolve(request_id, exception=RuntimeError(error))
                            else:
                                self._resolve(request_id, result=proba)
                elif kind == "ready":
                    # A respawned worker finished loading its predictor.
                    with self._wake:
                        self._ready.add(worker_id)
                        self._attempts[worker_id] = 0
                        self._wake.notify()
                    _WORKERS_ALIVE.set(self.alive_workers())
                    log_event("serve.worker_ready", worker=worker_id)
                    logger.info("serving worker %d is ready", worker_id)
                elif kind == "fatal":
                    # The worker failed to load and exited; the supervisor
                    # will notice the dead process and schedule the next
                    # attempt.
                    logger.error(
                        "serving worker %d failed to load: %s", worker_id, payload
                    )
                    log_event(
                        "serve.worker_load_failed", worker=worker_id, error=str(payload)
                    )

    def _collect_shm_result(self, worker_id: int, payload: tuple) -> None:
        """Resolve one shm-transport reply: hand out zero-copy result views,
        release the dispatch's request region.

        Replies from a *retired* arena generation (a worker that answered
        after its death was already handled and its arena swapped) are
        resolved for any still-waiting future but never touch the successor
        arena's book-keeping — stale offsets must not free live regions.
        """
        _, generation, request_region, replies = payload
        arena = self._arenas[worker_id]
        live = arena is not None and arena.generation == generation
        if live:
            arena.free_request(request_region)
        if _metrics.enabled:
            _TRANSPORT_BYTES.labels("shm", "response").inc(
                _descriptor_nbytes(payload)
            )
        for request_id, result_offset, shape, dtype, inline, error in replies:
            if error is not None:
                if live:
                    arena.free_result(result_offset)
                self._resolve(request_id, exception=RuntimeError(error))
            elif inline is not None:  # reservation overflow: came via queue
                if live:
                    arena.free_result(result_offset)
                self._resolve(request_id, result=inline)
            elif live:
                try:
                    with _TRANSPORT_PHASE.labels("shm", "response_view").time():
                        view = arena.take_result_view(result_offset, shape, dtype)
                except Exception as exc:
                    # The arena was retired between the liveness check and the
                    # view (a concurrent respawn); the collector must outlive
                    # any such race, and this future's client gets the same
                    # worker-died story the death handler tells.
                    self._resolve(
                        request_id,
                        exception=RuntimeError(
                            f"serving worker {worker_id} arena retired mid-reply: {exc}"
                        ),
                    )
                else:
                    self._resolve(request_id, result=view)
            # else: stale generation — the death handler already failed the
            # future; the retired arena is reclaimed wholesale.

    # ------------------------------------------------------------ supervisor
    def _supervise_loop(self) -> None:
        while not self._stop_supervisor.wait(self.supervise_interval):
            try:
                self._check_workers()
            except Exception:  # pragma: no cover - supervisor must survive
                logger.exception("pool supervisor check failed")

    def _check_workers(self) -> None:
        # Serialised against a rolling swap's process-replacement phase: both
        # paths mutate _processes/_down/queues/arenas for a worker, and the
        # swap additionally owns the workers it marked in _swapping.
        with self._lifecycle_lock:
            self._check_workers_locked()

    def _check_workers_locked(self) -> None:
        now = time.monotonic()
        self._kill_wedged_workers(now)
        with self._lock:
            swapping = set(self._swapping)
        for worker_id, process in enumerate(self._processes):
            if worker_id in swapping:
                continue  # the swap owns this worker's lifecycle right now
            if process.is_alive():
                continue
            if worker_id not in self._down:
                self._on_worker_death(worker_id, process)
            else:
                restart_at = self._down[worker_id]
                if (
                    restart_at is None
                    or self._closed
                    or not self.restart_workers
                    or now < restart_at
                ):
                    continue
                self._respawn_worker(worker_id)
        _WORKERS_ALIVE.set(self.alive_workers())

    def _kill_wedged_workers(self, now: float) -> None:
        """SIGKILL workers holding a dispatch past ``dispatch_timeout``.

        A wedged worker (hung in a syscall, looping, SIGSTOPped) still has a
        live process, so the death path alone never notices it and its
        clients would burn the whole request timeout.  Killing it converts
        the hang into an ordinary death, which the loop right after this
        call handles: in-flight requests fail promptly and the worker is
        respawned under the usual backoff.
        """
        if self.dispatch_timeout <= 0:
            return
        with self._lock:
            wedged = {
                owner
                for request_id, owner in self._inflight.items()
                if now - self._inflight_since.get(request_id, now) > self.dispatch_timeout
            }
        for worker_id in wedged:
            process = self._processes[worker_id]
            if worker_id in self._down or not process.is_alive():
                continue
            _WORKER_HANGS.inc()
            logger.error(
                "serving worker %d exceeded the %.0fs dispatch deadline; killing it",
                worker_id,
                self.dispatch_timeout,
            )
            log_event(
                "serve.worker_hung",
                worker=worker_id,
                dispatch_timeout_seconds=self.dispatch_timeout,
            )
            process.kill()
            process.join(timeout=10)

    def _on_worker_death(self, worker_id: int, process: mp.Process) -> None:
        """Evict a dead worker: fail its in-flight requests, schedule respawn."""
        with self._lock:
            self._ready.discard(worker_id)
            attempts = self._attempts[worker_id]
            self._attempts[worker_id] = attempts + 1
            orphaned = [
                request_id
                for request_id, owner in self._inflight.items()
                if owner == worker_id
            ]
        backoff = min(self.restart_backoff * (2 ** attempts), self.restart_backoff_max)
        restart = self.restart_workers and not self._closed
        self._down[worker_id] = (time.monotonic() + backoff) if restart else None
        _WORKER_DEATHS.inc()
        logger.error(
            "serving worker %d died (exit code %s); failing %d in-flight requests%s",
            worker_id,
            process.exitcode,
            len(orphaned),
            f", respawning in {backoff:.1f}s" if restart else "",
        )
        log_event(
            "serve.worker_died",
            worker=worker_id,
            exitcode=process.exitcode,
            inflight_failed=len(orphaned),
            restart_in_seconds=backoff if restart else None,
        )
        error = RuntimeError(f"serving worker {worker_id} died")
        for request_id in orphaned:
            self._resolve(request_id, exception=error)

    def _install_fresh_ipc(self, worker_id: int) -> None:
        """Replace a worker's queues and arena before (re)spawning it.

        A SIGKILL can land while the worker holds one of its queue locks
        (it spends its life blocked in request_queue.get(), and replies
        under the result queue's write lock), leaving that lock acquired
        forever.  The successor therefore gets *fresh* queues rather than
        inheriting potentially poisoned ones; undelivered payloads on the
        old queues belong to futures that were already failed at death.
        The arena is replaced wholesale for the same reason: a SIGKILL
        mid-slot-write leaves regions reserved for descriptors that will
        never arrive.  The old generation's name is unlinked now (no
        /dev/shm leak); its mapping survives only as long as clients hold
        result views into it.  Shared with the rolling swap, which rolls a
        worker through the same replacement path a death would.
        """
        old_queues = (self._request_queues[worker_id], self._result_queues[worker_id])
        self._request_queues[worker_id] = self._ctx.Queue()
        self._result_queues[worker_id] = self._ctx.Queue()
        if self.transport == "shm":
            old_arena = self._arenas[worker_id]
            self._arena_generation[worker_id] += 1
            self._arenas[worker_id] = self._new_arena(worker_id)
            if old_arena is not None:
                old_arena.retire()
        for old_queue in old_queues:
            try:
                old_queue.close()
            except Exception:  # pragma: no cover - feeder already gone
                pass

    def _respawn_worker(self, worker_id: int) -> None:
        self._install_fresh_ipc(worker_id)
        self._processes[worker_id] = self._spawn_worker(worker_id)
        del self._down[worker_id]
        self._restarts_total += 1
        _WORKER_RESTARTS.inc()
        with self._lock:
            attempt = self._attempts[worker_id]
        logger.info("respawned serving worker %d (attempt %d)", worker_id, attempt)
        log_event("serve.worker_respawned", worker=worker_id, attempt=attempt)

    # -------------------------------------------------------------- hot swap
    def swap(
        self, generation: Optional[int] = None, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Roll every worker onto a new artifact generation, zero-downtime.

        Re-resolves the path the pool was constructed with — for a store
        root that picks up whatever ``CURRENT`` now points at, or the
        explicitly requested ``generation``.  Workers are rolled one at a
        time through the same fresh-IPC replacement path the supervisor uses
        for crashed workers: each is removed from dispatch, drained of its
        in-flight requests (they complete on the old generation), stopped
        gracefully, and respawned from the new generation directory; the
        next worker only rolls once its predecessor's successor is warm, so
        the pool never drops below ``workers - 1`` ready workers.  Every
        response therefore comes entirely from one generation — never a mix.

        Raises ``RuntimeError`` if another swap is already in progress, and
        refuses generations whose input shape or class count differ from the
        serving pool's (the shared-memory arenas are sized for them).
        """
        if self._closed:
            raise RuntimeError("PoolPredictor is closed")
        if not self._swap_lock.acquire(blocking=False):
            raise RuntimeError("swap already in progress")
        try:
            return self._swap_locked(generation, timeout)
        finally:
            self._swap_lock.release()

    def _swap_locked(
        self, generation: Optional[int], timeout: Optional[float]
    ) -> Dict[str, Any]:
        from repro.api.artifacts import read_manifest

        resolved = resolve_artifact(self.path, generation=generation)
        manifest = read_manifest(resolved.path)
        new_shape = tuple(int(d) for d in manifest["input_shape"])
        new_classes = int(manifest["num_classes"])
        if new_shape != self.input_shape or new_classes != self.num_classes:
            raise ValueError(
                f"cannot hot-swap to generation {resolved.generation}: its "
                f"input_shape={new_shape} / num_classes={new_classes} differ "
                f"from the pool's {self.input_shape} / {self.num_classes} "
                "(the shared-memory arenas are sized for the serving shapes)"
            )
        previous_generation = self.generation
        if resolved.path == self._artifact_dir:
            # CURRENT did not move (or the pool serves a bare directory):
            # nothing to roll, and the call stays idempotent.
            return {
                "status": "noop",
                "generation": self.generation,
                "previous_generation": previous_generation,
                "workers_respawned": 0,
                "swap_seconds": 0.0,
            }
        start = time.monotonic()
        deadline = start + (
            timeout if timeout is not None else self.startup_timeout * self.workers
        )
        log_event(
            "swap.started",
            artifact=str(self.path),
            from_generation=previous_generation,
            to_generation=resolved.generation,
        )
        # Point every spawn path at the new generation *before* rolling: a
        # supervisor respawn racing the swap (for a worker that crashed on
        # its own) then also lands on the new artifact.
        self._artifact_dir = resolved.path
        self.generation = resolved.generation
        self.num_members = len(manifest["members"])
        self.approach = manifest["approach"]
        self._has_super_learner = manifest.get("super_learner_weights") is not None
        rolled = 0
        try:
            for worker_id in range(self.workers):
                self._roll_worker(worker_id, deadline)
                rolled += 1
                _SWAP_WORKERS.inc()
                log_event(
                    "swap.worker_rolled",
                    worker=worker_id,
                    generation=self.generation,
                )
        except BaseException as exc:
            _SWAPS.labels("error").inc()
            log_event(
                "swap.failed",
                from_generation=previous_generation,
                to_generation=self.generation,
                workers_rolled=rolled,
                error=str(exc),
            )
            raise
        elapsed = time.monotonic() - start
        self._swaps_total += 1
        _SWAPS.labels("ok").inc()
        _SWAP_SECONDS.observe(elapsed)
        ARTIFACT_GENERATION.set(self.generation)
        log_event(
            "swap.completed",
            from_generation=previous_generation,
            to_generation=self.generation,
            workers=rolled,
            seconds=elapsed,
        )
        logger.info(
            "hot-swapped %s: generation %d -> %d (%d workers rolled in %.2fs)",
            self.path,
            previous_generation,
            self.generation,
            rolled,
            elapsed,
        )
        return {
            "status": "ok",
            "generation": self.generation,
            "previous_generation": previous_generation,
            "workers_respawned": rolled,
            "swap_seconds": elapsed,
        }

    def _roll_worker(self, worker_id: int, deadline: float) -> None:
        """Drain one worker and respawn it from ``self._artifact_dir``.

        Marking the worker in ``_swapping`` hands its lifecycle to the swap
        (the supervisor skips it); removing it from ``_ready`` under the
        pool lock, combined with the dispatcher's claim-recheck, guarantees
        no new dispatch lands on its queue after the drain check — see
        :meth:`_dispatch_group`.
        """
        with self._lock:
            self._swapping.add(worker_id)
            self._ready.discard(worker_id)
        try:
            # Drain: every in-flight request this worker owns was claimed
            # before the _ready removal above, so the (still running) worker
            # will answer it on the old generation.
            while True:
                with self._lock:
                    busy = self._load[worker_id] > 0
                if not busy:
                    break
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        f"timed out draining worker {worker_id} during swap"
                    )
                time.sleep(0.005)
            process = self._processes[worker_id]
            with self._lifecycle_lock:
                if worker_id in self._down:
                    # Crashed earlier and awaiting the supervisor's backoff;
                    # the roll takes over the replacement right now.
                    del self._down[worker_id]
                elif process.is_alive():
                    try:
                        self._request_queues[worker_id].put(None)
                    except Exception:  # pragma: no cover - queue poisoned
                        pass
                    process.join(timeout=30)
                    if process.is_alive():  # pragma: no cover - stuck worker
                        process.kill()
                        process.join(timeout=10)
                self._install_fresh_ipc(worker_id)
                self._processes[worker_id] = self._spawn_worker(worker_id)
            # Wait until the successor reports ready (the collector adds it
            # to _ready) before rolling the next worker: capacity never
            # drops below workers - 1.
            while True:
                with self._lock:
                    if worker_id in self._ready:
                        break
                if not self._processes[worker_id].is_alive():
                    raise RuntimeError(
                        f"worker {worker_id} failed to load generation "
                        f"{self.generation} during swap"
                    )
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        f"timed out waiting for worker {worker_id} to warm "
                        f"generation {self.generation} during swap"
                    )
                time.sleep(0.01)
        finally:
            with self._lock:
                self._swapping.discard(worker_id)

    def _resolve(self, request_id: int, result=None, exception=None) -> None:
        with self._wake:
            future = self._futures.pop(request_id, None)
            worker_id = self._inflight.pop(request_id, None)
            self._inflight_since.pop(request_id, None)
            if worker_id is not None:
                self._load[worker_id] -= 1
                if self._load[worker_id] == 0:
                    self._wake.notify()
        if future is None:  # pragma: no cover - duplicate/late reply
            return
        if exception is not None:
            future.set_exception(exception)
        else:
            future.set_result(result)

    # --------------------------------------------------------------- client
    def _resolve_method(self, method: Optional[str]) -> str:
        return resolve_combination_method(
            method, default=self.method, has_super_learner=self._has_super_learner
        )

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
            if self._closed:
                raise RuntimeError("PoolPredictor is closed")
            from repro.api.predictor import validate_batch

            x = validate_batch(x, self.input_shape)
            resolved = self._resolve_method(method)
            request = _Request(next(self._request_ids), x, resolved)
            with self._wake:
                self._futures[request.request_id] = request.future
                self._pending.append(request)
                self._wake.notify()
            result = request.future.result(timeout=timeout or self.request_timeout)
        except BaseException:
            _REQUESTS_ERROR.inc()
            raise
        if _metrics.enabled:
            _REQUESTS_OK.inc()
            _REQUEST_ROWS.observe(x.shape[0])
            _REQUEST_LATENCY.observe(time.perf_counter() - start)
        return result

    def predict(
        self,
        x: np.ndarray,
        method: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> np.ndarray:
        """Predicted class labels, shape ``(samples,)``."""
        return self.predict_proba(x, method=method, timeout=timeout).argmax(axis=1)

    # ------------------------------------------------------------ lifecycle
    def alive_workers(self) -> int:
        """Workers that are loaded *and* whose process is alive right now."""
        with self._lock:
            ready = list(self._ready)
        return sum(1 for worker_id in ready if self._processes[worker_id].is_alive())

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
            "restart_workers": self.restart_workers,
        }

    def info(self) -> Dict[str, Any]:
        """JSON-friendly description of the pool (CLI ``serve`` /info)."""
        arenas = [
            arena.stats() if arena is not None else None for arena in self._arenas
        ]
        return {
            "artifact": str(self.path),
            "approach": self.approach,
            "generation": self.generation,
            "swaps": self._swaps_total,
            "workers": self.workers,
            "alive_workers": self.alive_workers(),
            "worker_pids": [process.pid for process in self._processes],
            "restarts": self._restarts_total,
            "restart_workers": self.restart_workers,
            "num_members": self.num_members,
            "num_classes": self.num_classes,
            "input_shape": list(self.input_shape),
            "method": self.method,
            "max_batch": self.max_batch,
            "max_wait_ms": self.max_wait_ms,
            "super_learner": self._has_super_learner,
            "transport": self.transport,
            "arena_slots": self.arena_slots if self.transport == "shm" else None,
            "arena_bytes_per_worker": (
                self._arenas[0].total_bytes
                if self.transport == "shm" and self._arenas[0] is not None
                else None
            ),
            "arenas": arenas,
            "request_latency_seconds": _latency_quantiles(_REQUEST_LATENCY),
        }

    def _shutdown_processes(self) -> None:
        for request_queue in self._request_queues:
            try:
                request_queue.put(None)
            except Exception:  # pragma: no cover
                pass
        for process in self._processes:
            process.join(timeout=10)
        for process in self._processes:
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=5)
        for request_queue in self._request_queues:
            request_queue.close()
            request_queue.join_thread()

    def close(self) -> None:
        """Stop the supervisor and dispatcher, drain the workers, fail
        pending requests.

        Idempotent; after it returns no child process of the pool is alive.
        """
        if self._closed:
            return
        self._closed = True
        self._stop_supervisor.set()
        self._supervisor.join(timeout=10)
        with self._wake:
            self._wake.notify()
        self._dispatcher.join(timeout=10)
        self._shutdown_processes()
        self._stop_collector.set()
        self._collector.join(timeout=10)
        for result_queue in self._result_queues:
            result_queue.close()
            result_queue.join_thread()
        with self._lock:
            leftovers = list(self._futures.values())
            self._futures.clear()
            self._pending.clear()
            self._inflight.clear()
            self._inflight_since.clear()
            self._load = [0] * self.workers
        for future in leftovers:
            if not future.done():
                future.set_exception(RuntimeError("PoolPredictor closed"))
        self._retire_arenas()
        try:
            atexit.unregister(self.close)
        except Exception:  # pragma: no cover
            pass
        log_event("serve.pool_closed", artifact=str(self.path))
        logger.info("serving pool for %s shut down", self.path)

    def __enter__(self) -> "PoolPredictor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PoolPredictor(artifact={str(self.path)!r}, workers={self.workers}, "
            f"method={self.method!r})"
        )

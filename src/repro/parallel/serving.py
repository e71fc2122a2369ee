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

Worker life cycle: each worker fills one slot of a
:class:`~repro.parallel.supervision.SlotTable` — the record holds its process,
its private queues, its state (``starting | ready | draining | down``) and its
backoff, plus the pool's arena, load and artifact generation — and **process
replacement has exactly one owner, the supervisor thread**.  It wakes every
``supervise_interval`` seconds to health-check, and at once when another
thread posts a lifecycle fact under the pool lock (a ``ready`` / ``fatal``
handshake, a draining slot's load reaching zero, a swap published, the pool
closing); nothing else stops or spawns a worker, which is why ``close()`` —
stopping the supervisor first — cannot race a spawn.

* *Self-healing.*  A dead worker, or one holding a dispatch past
  ``dispatch_timeout`` (wedged: it is SIGKILLed), is evicted: its in-flight
  requests fail promptly and the slot is respawned from the artifact
  directory under the core's bounded exponential backoff
  (``restart_backoff`` doubling per consecutive failed attempt up to
  ``restart_backoff_max``; reaching ``ready`` starts it over).
  :meth:`healthz` reports ``degraded`` while capacity is reduced and returns
  to ``ok`` once the respawned worker has its predictor warm again; every
  transition is a structured event (``serve.worker_died`` /
  ``serve.worker_hung`` / ``serve.worker_respawned`` / ``serve.worker_ready``)
  and counted in the ``repro_serve_*`` metrics.
* *Hot-swap is a supervised replacement.*  :meth:`PoolPredictor.swap` only
  validates the target, publishes it as the pool's artifact and waits; the
  supervisor rolls one stale-generation slot at a time (``draining`` → load 0
  → graceful stop → spawn from the target, no backoff → ``ready`` → next).
  The dispatcher claims its worker under the same lock the supervisor flips
  ``draining`` under, so a group either belongs to the old worker before the
  drain check — and is answered on the old generation — or never reaches it.
* *Parent death.*  Workers watch their parent and exit when it is gone
  (:mod:`repro.parallel.worker`), so a SIGKILLed server leaves no orphan
  pinning its ``/dev/shm`` segments.

Data plane: a dispatch is a list of ``(request_id, rows, method)`` entries,
one per request.  Each entry names its rows either as a reference ``(offset,
shape, dtype)`` into the worker's shared-memory arena
(:class:`~repro.parallel.shm_transport.ShmArena`) — the rows were copied
there once, the queue carries about a hundred bytes — or as the array itself,
*inline*, when the arena cannot place them (a request bigger than the whole
arena, an arena momentarily full); no request is ever refused for size.  The
probabilities come back inline as raw bytes (:func:`~repro.parallel.worker.
answer_entry`) and the collector rebuilds one owned array per reply.  A
region belongs to its request: it is recorded on the request at dispatch and
freed when the request resolves, whichever way.  ``transport="pickle"`` is
the all-inline case of the same code: a pool that owns no arena, kept
constructible as the bitwise oracle of the tests and the baseline the
benchmark times the arenas against.  Like its queues, a worker's arena lives
exactly as long as the worker: every spawn retires the old one wholesale
(unlinked and closed), which reclaims whatever regions a dead worker's
requests still held, so a SIGKILL can never wedge the dispatcher or leak
``/dev/shm`` segments.
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
from dataclasses import dataclass, field
from math import prod
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.artifact_store import ARTIFACT_GENERATION, served_artifact
from repro.core.ensemble import resolve_combination_method
from repro.obs.events import log_event
from repro.obs.metrics import get_registry
from repro.parallel.shm_transport import ShmArena
from repro.parallel.supervision import Slot, SlotTable
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
    "Bytes crossing the parent<->worker queues, by the pool's transport and "
    "direction: row references cost their pickled size, inline rows their "
    "bytes on top; results are always inline.",
    ("transport", "direction"),
)
_TRANSPORT_FALLBACKS = _metrics.counter(
    "repro_serve_transport_fallbacks_total",
    "Dispatch entries whose rows found no room in the worker's arena and "
    "travelled inline instead.",
    ("reason",),
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
    x: np.ndarray
    method: str
    future: Future = field(default_factory=Future)
    enqueued: float = field(default_factory=time.monotonic)
    # Set together, under the pool lock, when the dispatcher claims a worker.
    worker_id: Optional[int] = None
    dispatched: float = 0.0
    arena: Optional[ShmArena] = None
    # Where the dispatcher placed the rows in ``arena``; freed on resolve.
    rows_offset: Optional[int] = None

    @property
    def rows(self) -> int:
        return int(self.x.shape[0])


@dataclass
class _PoolSlot(Slot):
    """A serving worker's slot: the supervision record plus what the pool
    keeps per worker."""

    arena: Optional[ShmArena] = None
    load: int = 0  # its dispatched-but-unanswered requests (pool lock)
    generation: int = 0  # the artifact generation its process loaded


@dataclass
class _Swap:
    """A published hot-swap; the supervisor rolls the pool towards it.

    ``rolling`` and ``rolled`` belong to the supervisor thread; ``done`` and
    ``error`` are posted under the pool lock for the waiting ``swap()`` call.
    """

    rolling: Optional[_PoolSlot] = None
    rolled: int = 0
    done: bool = False
    error: Optional[str] = None


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
    restart_backoff / restart_backoff_max:
        Initial and maximum delay before respawning, doubling per consecutive
        failed attempt (a worker that reaches "ready" resets its backoff).
    supervise_interval:
        How often the supervisor thread health-checks the workers.
    worker_wait:
        How long a dispatch waits for *some* worker to become available
        before failing its requests.
    dispatch_timeout:
        Per-dispatch deadline in seconds.  A worker holding a request in
        flight longer than this is treated as *wedged* (hung in a syscall,
        looping, SIGSTOPped): the supervisor SIGKILLs it, fails its in-flight
        requests promptly, and respawns it like any other dead worker.
        ``0`` disables hang detection (the pre-deadline behaviour).

    Transport parameters
    --------------------
    transport:
        ``"shm"`` (default) gives every worker a shared-memory arena sized
        for four ``max_batch``-row dispatches: request rows travel as
        references into it, and only rows the arena cannot place travel
        inline.  ``"pickle"`` is the pool without arenas — every entry inline
        through the same code — kept as the reference the tests and the
        benchmark compare against; both produce bitwise-identical
        predictions.  Results travel inline either way.
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
        restart_backoff: float = 0.5,
        restart_backoff_max: float = 30.0,
        supervise_interval: float = 0.25,
        worker_wait: float = 60.0,
        dispatch_timeout: float = 120.0,
        transport: str = "shm",
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        resolve_combination_method(method, has_super_learner=True)
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        if supervise_interval <= 0:
            raise ValueError("supervise_interval must be positive")
        if dispatch_timeout < 0:
            raise ValueError("dispatch_timeout must be non-negative (0 disables)")
        if transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {transport!r}; valid choices: "
                + ", ".join(repr(t) for t in TRANSPORTS)
            )

        # Resolve the (possibly store-layout) artifact path once: workers
        # spawn from the concrete generation directory, while self.path keeps
        # the caller's root so swap() can re-resolve CURRENT later.
        self.path = Path(path)
        self._artifact = served_artifact(path)
        resolve_combination_method(
            method, has_super_learner=self._artifact.has_super_learner
        )
        self.method = method
        self.workers = int(workers)
        self.batch_size = int(batch_size)
        self.warm = bool(warm)
        self.max_batch = int(max_batch)
        self.max_wait_ms = float(max_wait_ms)
        self.request_timeout = float(request_timeout)
        self.transport = transport
        self.supervise_interval = float(supervise_interval)
        self.worker_wait = float(worker_wait)
        self.dispatch_timeout = float(dispatch_timeout)
        self.startup_timeout = float(startup_timeout)

        # One record per worker (process, queues, state, backoff, arena,
        # load): every field but ``load`` is written by the supervisor thread
        # only, and ``state`` and ``load`` change under the pool lock.
        self._table = SlotTable(
            mp.get_context("spawn"),
            [_PoolSlot(worker_id) for worker_id in range(self.workers)],
            _serving_worker_main,
            "repro-serve",
            backoff=restart_backoff,
            backoff_max=restart_backoff_max,
        )
        self._slots: List[_PoolSlot] = self._table.slots
        self._closed = False
        self._lock = threading.Lock()
        # Two conditions on the one pool lock.  The dispatcher sleeps on
        # _wake: notified when a request is enqueued, when a worker's load
        # drops to zero or a worker turns ready, and by close().  The
        # supervisor (and a waiting swap() or constructor) sleeps on
        # _lifecycle: notified by _post() for lifecycle facts only — a
        # ready/fatal handshake, a draining slot's load reaching zero, a
        # swap published, finished or abandoned, close() — never per request.
        self._wake = threading.Condition(self._lock)
        self._lifecycle = threading.Condition(self._lock)
        self._facts_posted = False
        self._pending: Deque[_Request] = deque()
        # Every unanswered request, queued or dispatched; a dispatched one
        # names its worker, so a death fails exactly that worker's requests
        # and its dispatch time feeds the hung-worker deadline.
        self._requests: Dict[int, _Request] = {}
        self._next_worker = 0  # round-robin tie-break; dispatcher thread only
        self._restarts_total = 0
        self._load_failure: Optional[str] = None  # last "fatal" handshake
        self._swap: Optional[_Swap] = None  # published under _lock
        self._swap_lock = threading.Lock()  # admits one swap() at a time
        self._swaps_total = 0
        self._request_ids = itertools.count()
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
        for thread in (self._dispatcher, self._collector, self._supervisor):
            thread.start()
        _WORKERS_CONFIGURED.set(self.workers)
        try:
            # All workers boot concurrently, each arena created before its
            # spawn; the pool is warm once every slot has said ready.
            for slot in self._slots:
                self._spawn(slot)
            with self._lock:
                warm = self._lifecycle.wait_for(
                    lambda: self._load_failure is not None
                    or all(slot.state == "ready" for slot in self._slots),
                    timeout=self.startup_timeout,
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

    generation = property(lambda self: self._artifact.generation)
    input_shape = property(lambda self: self._artifact.input_shape)
    num_classes = property(lambda self: self._artifact.num_classes)
    num_members = property(lambda self: self._artifact.num_members)
    approach = property(lambda self: self._artifact.approach)

    # ------------------------------------------------------------ factories
    @classmethod
    def load(cls, path: Union[str, Path], **kwargs) -> "PoolPredictor":
        """Mirror of ``EnsemblePredictor.load`` for the pooled server."""
        return cls(path, **kwargs)

    def _spawn(self, slot: _PoolSlot) -> None:
        """Start the slot's worker from the artifact the pool serves *now*,
        on a fresh arena next to the table's fresh queues.

        The arena is replaced wholesale for the queues' reason: a worker
        that died with requests in flight leaves regions nobody will free.
        The old one is retired — unlinked and closed — on the spot.
        Supervisor thread only (and the constructor).
        """
        served = self._artifact
        if self.transport == "shm":
            if slot.arena is not None:
                slot.arena.retire()
            slot.arena = ShmArena(slot.worker_id, self.max_batch, prod(served.input_shape))
        slot.generation = served.generation
        self._table.spawn(
            slot,
            str(served.path),
            self.method,
            self.batch_size,
            self.warm,
            slot.arena.name if slot.arena is not None else None,
        )

    def _post(self) -> None:
        """Tell the supervisor (and whoever waits on it) that a lifecycle
        fact changed; call with the pool lock held."""
        self._facts_posted = True
        self._lifecycle.notify_all()

    # ------------------------------------------------------- internal loops
    def _dispatch_loop(self) -> None:
        while True:
            taken = self._next_group()
            if taken is None:
                break
            self._dispatch_group(*taken)
            # Each _Request pins its input tensor: holding the last group
            # across the idle wait keeps up to max_batch rows alive while the
            # next request is parsed (+1 % peak RSS at 256-row requests).
            taken = None

    def _dispatch_group(
        self, group: List[_Request], rows: int, reason: str, slot: Optional[_PoolSlot]
    ) -> None:
        """Ship one micro-batch to the worker claimed for it — or fail it,
        if :meth:`_next_group` found none."""
        if slot is None:
            error = RuntimeError("no serving workers alive")
            for request in group:
                self._resolve(request.request_id, exception=error)
            return
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

    def _next_group(self) -> Optional[Tuple[List[_Request], int, str, Optional[_PoolSlot]]]:
        """Block until a micro-batch should ship and a worker is claimed for
        it: ``(group, rows, reason, slot)``, or ``None`` once the pool is
        closed and nothing is queued.

        Takes what is already queued without blocking, asks
        :func:`dispatch_reason`, and otherwise sleeps until a request
        arrives, a worker goes idle or the group's deadline passes.  The
        worker is picked and claimed (its ``load`` raised, the requests
        stamped with it and its arena) under the one lock hold: a slot the
        supervisor turns ``draining`` or ``down`` — under the same lock —
        either already owns the group, and answers it or has it failed with
        the rest of its in-flight requests, or is never picked.  A group that
        finds no ready worker waits up to ``worker_wait`` for capacity to
        come back before it gives up (``slot`` is ``None``).
        """
        group: List[_Request] = []
        rows = 0
        give_up: Optional[float] = None
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
                now = time.monotonic()
                waited = now - group[0].enqueued
                ready = [slot for slot in self._slots if slot.state == "ready"]
                idle = any(slot.load == 0 for slot in ready)
                reason = dispatch_reason(rows, self.max_batch, idle, waited, max_wait)
                if reason is None:
                    self._wake.wait(max_wait - waited)
                    continue
                # Fewest requests in flight first — the idle one when the
                # reason is "idle" — round-robin among equals.
                ready.sort(
                    key=lambda s: (s.load, (s.worker_id - self._next_worker) % self.workers)
                )
                slot = next((s for s in ready if s.process.is_alive()), None)
                if slot is not None:
                    for request in group:
                        request.worker_id, request.dispatched = slot.worker_id, now
                        request.arena = slot.arena
                    slot.load += len(group)
                    self._next_worker = (slot.worker_id + 1) % self.workers
                    return group, rows, reason, slot
                if give_up is None:
                    give_up = now + self.worker_wait
                if self._closed or now >= give_up:
                    return group, rows, reason, None
                self._wake.wait(give_up - now)

    # ------------------------------------------------------------ data plane
    def _build_dispatch(self, group: List[_Request]) -> List[tuple]:
        """Encode a micro-batch for the worker's request queue (the format is
        :func:`repro.parallel.worker.answer_entry`'s).

        Each request's rows are written into the arena it was claimed with,
        and the region is recorded on the request, which frees it when it
        resolves; rows the arena cannot place (a request bigger than the
        whole arena, an arena momentarily full, no arena at all on
        ``transport="pickle"``) travel inline instead.
        """
        entries: List[tuple] = []
        for request in group:
            rows = request.x
            if request.arena is not None:
                request.rows_offset = request.arena.write_request(rows)
                if request.rows_offset is not None:
                    rows = (request.rows_offset, rows.shape, str(rows.dtype))
                else:
                    _TRANSPORT_FALLBACKS.labels("request_ring_full").inc()
            entries.append((request.request_id, rows, request.method))
        if _metrics.enabled:
            _TRANSPORT_BYTES.labels(self.transport, "request").inc(_wire_nbytes(entries))
        return entries

    def _collect_result(self, replies: List[tuple]) -> None:
        """Resolve one dispatch's replies, each result rebuilt from its raw
        bytes into one owned array."""
        if _metrics.enabled:
            _TRANSPORT_BYTES.labels(self.transport, "response").inc(_wire_nbytes(replies))
        for request_id, proba, error in replies:
            if error is not None:
                self._resolve(request_id, exception=RuntimeError(error))
            else:
                shape, dtype, data = proba
                result = np.frombuffer(data, dtype=dtype).reshape(shape).copy()
                self._resolve(request_id, result=result)

    def _collect_loop(self) -> None:
        while not self._stop_collector.is_set():
            for kind, worker_id, payload in self._table.poll(0.2):
                if kind == "result":
                    self._collect_result(payload)
                elif kind == "ready":
                    # The worker finished loading its predictor.
                    slot = self._slots[worker_id]
                    with self._lock:
                        if slot.state != "starting":
                            continue  # stale: the slot was evicted meanwhile
                        slot.state = "ready"
                        self._table.mark_healthy(slot)
                        self._wake.notify()
                        self._post()
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
                    with self._lock:
                        self._load_failure = (
                            f"serving worker {worker_id} failed to load: {payload}"
                        )
                        self._post()

    # ------------------------------------------------------------ supervisor
    def _supervise_loop(self) -> None:
        """The one owner of process replacement: evict, respawn, roll.

        Every other thread only posts facts under the pool lock
        (:meth:`_post`).  This loop wakes for them, and every
        ``supervise_interval`` seconds to health-check, until the pool is
        closed — ``close()`` waits for it to end before it stops a single
        worker, so nothing can spawn behind a closed pool.
        """
        while True:
            with self._lock:
                if not (self._facts_posted or self._closed):
                    self._lifecycle.wait(self.supervise_interval)
                self._facts_posted = False
                if self._closed:
                    return
                swap = self._swap
                if swap is None:
                    for slot in self._slots:
                        if slot.state == "draining":  # its swap was abandoned
                            slot.state = "ready"
                            self._wake.notify()
            try:
                self._check_workers(time.monotonic())
                if swap is not None:
                    self._advance_swap(swap)
            except Exception:  # pragma: no cover - supervisor must survive
                logger.exception("pool supervisor check failed")
            _WORKERS_ALIVE.set(self.alive_workers())

    def _check_workers(self, now: float) -> None:
        """Evict dead and wedged workers, respawn the slots that are due.

        A wedged worker (hung in a syscall, looping, SIGSTOPped) holding a
        dispatch past ``dispatch_timeout`` still has a live process, so its
        clients would burn the whole request timeout; evicting it SIGKILLs it
        and fails them promptly, like any other death.
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
            self._spawn(slot)
            self._restarts_total += 1
            _WORKER_RESTARTS.inc()
            logger.info(
                "respawned serving worker %d (attempt %d)", slot.worker_id, slot.failures
            )
            log_event("serve.worker_respawned", worker=slot.worker_id, attempt=slot.failures)

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

    def _advance_swap(self, swap: _Swap) -> None:
        """Roll the pool towards the published artifact, one slot at a time.

        A ``ready`` slot still on another generation turns ``draining`` (no
        new dispatch can claim it); when its load reaches zero it is stopped
        gracefully and spawned from the target directory without backoff; the
        next slot only rolls once that successor is ``ready``.  A successor
        that dies first fails the swap.  A slot that crashes on its own is
        not rolled: it respawns — on the target — under its normal backoff.
        """
        target = self._artifact.generation
        while not swap.done and swap.error is None:
            slot = swap.rolling
            if slot is None:
                with self._lock:
                    stale = [
                        s for s in self._slots if s.state != "down" and s.generation != target
                    ]
                    slot = next((s for s in stale if s.state in ("ready", "draining")), None)
                    if slot is not None:
                        slot.state = "draining"
                        swap.rolling = slot
                    elif not stale:
                        swap.done = True
                        self._lifecycle.notify_all()
                if slot is None:
                    return  # finished, or the stale slots left are still starting
            elif slot.state == "draining":
                with self._lock:
                    if slot.load > 0:
                        return  # its last answer posts the next fact
                self._table.stop([slot], timeout=30.0)
                # Due at once: should this spawn fail (no room for the new
                # arena), the next pass retries it like any other respawn.
                slot.down_until = 0.0
                self._spawn(slot)
            elif slot.state == "starting":
                return  # its ready handshake posts the next fact
            else:
                swap.rolling = None
                if slot.state == "ready":
                    swap.rolled += 1
                    _SWAP_WORKERS.inc()
                    log_event("swap.worker_rolled", worker=slot.worker_id, generation=target)
                elif slot.generation == target:  # evicted before it said ready
                    with self._lock:
                        swap.error = (
                            f"worker {slot.worker_id} failed to load generation "
                            f"{target} during swap"
                        )
                        self._lifecycle.notify_all()

    # -------------------------------------------------------------- hot swap
    def swap(
        self, generation: Optional[int] = None, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Roll every worker onto a new artifact generation, zero-downtime.

        Re-resolves the path the pool was constructed with — for a store
        root that picks up whatever ``CURRENT`` now points at, or the
        explicitly requested ``generation`` — publishes it as the pool's
        artifact and waits while the supervisor rolls the workers onto it
        (:meth:`_advance_swap`): in-flight requests complete on the old
        generation, the pool never drops below ``workers - 1`` ready workers,
        and every response comes entirely from one generation — never a mix.

        Raises ``RuntimeError`` if another swap is already in progress, if a
        rolled worker fails to load the new generation, on timeout (default
        ``startup_timeout`` per worker) or when the pool is closed meanwhile,
        and refuses generations whose input shape or class count differ from
        the serving pool's (the shared-memory arenas are sized for its rows).
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
        previous = self._artifact
        target = served_artifact(self.path, generation, serving=previous)
        if target.path == previous.path:
            # CURRENT did not move (or the pool serves a bare directory):
            # nothing to roll, and the call stays idempotent.
            return {
                "status": "noop",
                "generation": previous.generation,
                "previous_generation": previous.generation,
                "workers_respawned": 0,
                "swap_seconds": 0.0,
            }
        start = time.monotonic()
        log_event(
            "swap.started",
            artifact=str(self.path),
            from_generation=previous.generation,
            to_generation=target.generation,
        )
        swap = _Swap()
        with self._lock:
            # Publishing points every spawn at the target from here on — a
            # slot that crashes on its own mid-swap respawns on it too.
            self._artifact, self._swap = target, swap
            self._post()
            self._lifecycle.wait_for(
                lambda: swap.done or swap.error is not None or self._closed,
                timeout=timeout if timeout is not None else self.startup_timeout * self.workers,
            )
            self._swap = None  # finished or abandoned: a draining slot serves on
            self._post()
            error = swap.error
            if error is None and not swap.done:
                error = (
                    "PoolPredictor closed during swap"
                    if self._closed
                    else f"timed out rolling workers onto generation {target.generation} "
                    f"during swap ({swap.rolled} of {self.workers} rolled)"
                )
        if error is not None:
            _SWAPS.labels("error").inc()
            log_event(
                "swap.failed",
                from_generation=previous.generation,
                to_generation=target.generation,
                workers_rolled=swap.rolled,
                error=error,
            )
            raise RuntimeError(error)
        elapsed = time.monotonic() - start
        self._swaps_total += 1
        _SWAPS.labels("ok").inc()
        _SWAP_SECONDS.observe(elapsed)
        ARTIFACT_GENERATION.set(target.generation)
        log_event(
            "swap.completed",
            from_generation=previous.generation,
            to_generation=target.generation,
            workers=swap.rolled,
            seconds=elapsed,
        )
        logger.info(
            "hot-swapped %s: generation %d -> %d (%d workers rolled in %.2fs)",
            self.path,
            previous.generation,
            target.generation,
            swap.rolled,
            elapsed,
        )
        return {
            "status": "ok",
            "generation": target.generation,
            "previous_generation": previous.generation,
            "workers_respawned": swap.rolled,
            "swap_seconds": elapsed,
        }

    def _resolve(self, request_id: int, result=None, exception=None) -> None:
        """Answer a request once — a late reply for one already failed finds
        nothing — and free its arena region before its client sees it."""
        with self._lock:
            request = self._requests.pop(request_id, None)
            if request is not None and request.worker_id is not None:
                slot = self._slots[request.worker_id]
                slot.load -= 1
                if slot.load == 0:
                    self._wake.notify()
                    if slot.state == "draining":
                        self._post()
        if request is None:
            return
        if request.arena is not None:
            request.arena.free_request(request.rows_offset)
        if exception is not None:
            request.future.set_exception(exception)
        else:
            request.future.set_result(result)

    # --------------------------------------------------------------- client
    def _resolve_method(self, method: Optional[str]) -> str:
        return resolve_combination_method(
            method, default=self.method, has_super_learner=self._artifact.has_super_learner
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
                self._requests[request.request_id] = request
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
        arenas = [slot.arena for slot in self._slots]
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
            "transport": self.transport,
            "arena_bytes_per_worker": arenas[0].capacity if arenas[0] is not None else None,
            "arenas": [arena.stats() if arena is not None else None for arena in arenas],
            "request_latency_seconds": _latency_quantiles(_REQUEST_LATENCY),
        }

    def close(self) -> None:
        """Stop the supervisor and dispatcher, drain the workers, fail
        pending requests.

        Idempotent; after it returns no child process of the pool is alive.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._post()
            self._wake.notify()
        # The owner first: once the supervisor has ended nothing spawns any
        # more, so every process stopped below stays stopped.
        self._supervisor.join(timeout=60)
        self._dispatcher.join(timeout=10)
        self._table.stop(self._slots)
        self._stop_collector.set()
        self._collector.join(timeout=10)
        self._table.close()
        with self._lock:
            leftovers = list(self._requests.values())
            self._requests.clear()
            self._pending.clear()
            for slot in self._slots:
                slot.load = 0
        for request in leftovers:
            if not request.future.done():
                request.future.set_exception(RuntimeError("PoolPredictor closed"))
        for slot in self._slots:
            if slot.arena is not None:
                slot.arena.retire()
            slot.arena = None
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

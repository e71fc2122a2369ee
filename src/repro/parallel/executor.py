"""Fault-tolerant process-based parallel training of ensemble members.

:class:`ParallelExecutor` is the engine behind ``TrainingConfig(workers=N)``:
one persistent, ``spawn``-safe pool of worker processes per training run.
The workers attach the training set through shared memory exactly once (see
:mod:`repro.parallel.shared_data`), fit
:class:`~repro.core.trainer.MemberTask` records with the same
:func:`~repro.core.trainer.fit_task` the trainers call in-process, and ship
back :class:`~repro.core.trainer.TrainedNetwork` records.  It runs whatever is
submitted, highest ``priority`` first, and a result may submit follow-up tasks:
that is all the pool sees of the trainers' dependency graph (``_run_tasks``).

Key properties
--------------

* **Deterministic** — a task record fully determines its fit and outcomes
  come back in submission order.  With matching BLAS thread counts the trained
  members are *bitwise* identical run to run, in-process to pool, and
  fault-free to retried-after-a-crash.
* **No oversubscription** — worker start-up happens inside
  :func:`~repro.utils.parallel.blas_thread_limit`, so every worker's BLAS
  pool is capped (``BLAS_THREADS_PER_WORKER``, one thread) before numpy is
  imported.
* **Fault-tolerant** — a worker crash (SIGKILL, OOM kill, segfault), hang
  (wedged syscall, infinite loop), or in-process exception does not kill the
  run.  The workers fill the slots of a
  :class:`~repro.parallel.supervision.SlotTable` — the same supervision core
  the serving pool runs on: spawn on fresh private queues, evict, bounded
  exponential backoff, respawn — which the single-threaded :meth:`train` loop
  drives between polls.  What is the executor's own is *detection* and what
  happens to the task: a failed :class:`~repro.core.trainer.MemberTask` is
  retried up to ``max_task_retries`` times, then the run fails with a
  :class:`RuntimeError` naming the member.  Three signals evict a worker:

  - **process death** — ``Process.is_alive()`` turning false;
  - **per-task deadline** — a task running longer than ``task_timeout``
    seconds marks its worker wedged (a hung worker cannot be asked nicely: it
    is SIGKILLed).  Tasks only go to slots that are ``ready`` (data set
    attached), so the clock never runs while an interpreter is still booting;
  - **heartbeat loss** — each worker's daemon heartbeat thread pings every
    ``HEARTBEAT_INTERVAL`` seconds; a silent-but-alive process (SIGSTOP,
    scheduler starvation) past ``HEARTBEAT_TIMEOUT`` is treated as wedged.

  A worker that returns a result is healthy again: its next eviction starts
  the backoff over.
* **Makespan accounting** — :meth:`train` returns the critical-path wall
  clock of the whole run next to the per-member in-worker seconds, so cost
  ledgers can report both "total compute" and "time you actually waited".
* **Streaming results** — as each task finishes (in completion order)
  :meth:`train` first asks ``follow_up`` for the tasks the result unblocked
  and dispatches, then calls ``on_outcome``, which is how checkpointing
  journals networks to disk *during* the run without idling a worker.  The
  ``train.worker_ready`` / ``task_dispatched`` / ``task_finished`` events are
  the run's per-worker timeline.
"""

from __future__ import annotations

import heapq
import multiprocessing as mp
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.trainer import MemberTask, TrainedNetwork
from repro.nn.serialization import unpack_model_state
from repro.obs.events import log_event
from repro.obs.metrics import get_registry
from repro.parallel.shared_data import SharedDataset
from repro.parallel.supervision import Slot, SlotTable
from repro.parallel.worker import _worker_main
from repro.utils.logging import get_logger
from repro.utils.parallel import blas_thread_limit, cpu_count

logger = get_logger("parallel.executor")

# Parallel-phase telemetry (repro.obs): how many member tasks ran on pools,
# the compute they burned, the critical path of the latest batch, and the
# fault-tolerance lifecycle (retries, evictions, respawns, heartbeat misses).
_metrics = get_registry()
_TASKS_TOTAL = _metrics.counter(
    "repro_parallel_tasks_total", "Member-training tasks completed on worker pools."
)
_TASK_SECONDS = _metrics.counter(
    "repro_parallel_task_seconds_total",
    "Summed in-worker training seconds of completed pool tasks.",
)
_LAST_MAKESPAN = _metrics.gauge(
    "repro_parallel_last_makespan_seconds",
    "Critical-path wall clock of the most recent parallel training batch.",
)
_POOL_WORKERS = _metrics.gauge(
    "repro_parallel_pool_workers", "Worker processes of the most recent training pool."
)
_TASK_RETRIES = _metrics.counter(
    "repro_training_task_retries_total",
    "Member-training tasks re-enqueued after a worker fault.",
)
_WORKER_EVICTIONS = _metrics.counter(
    "repro_training_worker_evictions_total",
    "Training workers evicted from the pool.",
    ("reason",),
)
_WORKER_RESTARTS = _metrics.counter(
    "repro_training_worker_restarts_total", "Training workers respawned after eviction."
)
_HEARTBEAT_MISSES = _metrics.counter(
    "repro_training_heartbeat_misses_total",
    "Alive-but-silent training workers detected via heartbeat loss.",
)

__all__ = ["MemberTask", "ParallelExecutor"]

#: BLAS thread cap applied to each worker before its numpy import: with
#: ``workers ~= cores`` one thread each uses the machine fully without
#: oversubscription.  Bitwise in-process/pool equivalence holds when the
#: in-process run's BLAS pool has this same size (``OMP_NUM_THREADS=1``).
BLAS_THREADS_PER_WORKER = 1
#: Workers ping every ``HEARTBEAT_INTERVAL`` seconds; an alive process silent
#: past ``HEARTBEAT_TIMEOUT`` is treated as wedged.  The timeout must
#: comfortably cover worker start-up (spawn + numpy import).
HEARTBEAT_INTERVAL = 0.5
HEARTBEAT_TIMEOUT = 60.0
#: First respawn delay of an evicted slot; doubles per consecutive eviction up
#: to the supervision core's cap, and a returned result starts it over.
RESTART_BACKOFF = 0.25
#: How long one scheduler round waits for worker messages.
POLL_INTERVAL = 0.1


@dataclass
class _Dispatch:
    """Parent-side record of one task currently running on a worker."""

    task_index: int
    attempt: int
    deadline: float  # monotonic time after which the worker counts as hung


class ParallelExecutor:
    """Persistent spawn-based worker pool over a shared-memory dataset.

    Parameters
    ----------
    data:
        The arrays to publish once for all workers — the trainers pass
        ``{"x": x_train, "y": y_train}``.
    workers:
        Number of worker processes.
    task_timeout:
        Per-task deadline in seconds.  A worker that exceeds it is treated
        as wedged: SIGKILLed, evicted, respawned, and its task retried.
    max_task_retries:
        How many times a failed task (crash, hang, in-worker exception) is
        re-enqueued before the run fails with an error naming the member.
    """

    def __init__(
        self,
        data: Dict[str, np.ndarray],
        workers: int,
        task_timeout: float = 900.0,
        max_task_retries: int = 2,
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if task_timeout <= 0:
            raise ValueError("task_timeout must be positive")
        if max_task_retries < 0:
            raise ValueError("max_task_retries must be non-negative")
        self.workers = int(workers)
        self.task_timeout = float(task_timeout)
        self.max_task_retries = int(max_task_retries)
        self._shared = SharedDataset(data)
        self._table = SlotTable(
            mp.get_context("spawn"),
            [Slot(worker_id) for worker_id in range(self.workers)],
            _worker_main,
            "repro-train",
            backoff=RESTART_BACKOFF,
        )
        self._last_beat: Dict[int, float] = {}  # worker -> when it last said anything
        self._started = False
        if self.workers * BLAS_THREADS_PER_WORKER > cpu_count():
            logger.info(
                "workers (%d) x blas threads (%d) exceeds the %d usable cores; "
                "expect time-slicing rather than speedup",
                self.workers,
                BLAS_THREADS_PER_WORKER,
                cpu_count(),
            )

    # ---------------------------------------------------------------- pool
    def _spawn_worker(self, slot: Slot) -> None:
        # The env cap must surround process creation: spawn children inherit
        # the environment at exec time and size their BLAS pools from it when
        # they import numpy.
        with blas_thread_limit(BLAS_THREADS_PER_WORKER):
            self._table.spawn(
                slot, self._shared.meta, BLAS_THREADS_PER_WORKER, HEARTBEAT_INTERVAL
            )
        self._last_beat[slot.worker_id] = slot.spawned_at

    def _evict_worker(self, slot: Slot, reason: str, member: Optional[str]) -> None:
        """Take a dead or wedged worker out of rotation and schedule respawn."""
        exitcode, backoff = self._table.evict(slot)
        if _metrics.enabled:
            _WORKER_EVICTIONS.labels(reason).inc()
            if reason == "heartbeat":
                _HEARTBEAT_MISSES.inc()
        logger.error(
            "training worker %d evicted (%s, exit code %s)%s; respawning in %.2fs",
            slot.worker_id,
            reason,
            exitcode,
            f" while training {member!r}" if member else "",
            backoff,
        )
        log_event(
            "train.worker_evicted",
            worker=slot.worker_id,
            reason=reason,
            exitcode=exitcode,
            member=member,
            restart_in_seconds=round(backoff, 3),
        )

    # ---------------------------------------------------------------- run
    def train(
        self,
        tasks: Iterable[MemberTask],
        on_outcome: Optional[Callable[[int, TrainedNetwork], None]] = None,
        follow_up: Optional[Callable[[int, TrainedNetwork], Iterable[MemberTask]]] = None,
    ) -> Tuple[List[TrainedNetwork], float]:
        """Train every task; returns ``(networks_in_submission_order, makespan)``.

        ``makespan`` is the parent-side wall clock from first submission to
        last result — the critical path of the run, as opposed to the sum of
        the per-network ``TrainedNetwork.seconds``.  Pending tasks go to
        workers highest ``MemberTask.priority`` first, ties in submission
        order.  Per result, in completion order, ``follow_up(task_index,
        network)`` yields the tasks that join the run because of it (their
        indices continue the submission order) and only then
        ``on_outcome(task_index, network)`` fires — the checkpoint-journal
        hook; an exception from either aborts the run.
        """
        try:
            if not self._started:
                for slot in self._table.slots:
                    self._spawn_worker(slot)
                self._started = True
            start = time.perf_counter()
            submitted: List[MemberTask] = []
            outcomes: List[Optional[TrainedNetwork]] = []
            attempts: List[int] = []
            queued_at: Dict[int, float] = {}  # when each task last became runnable
            pending: List[Tuple[float, int]] = []  # heap of (-priority, task index)
            busy: Dict[int, _Dispatch] = {}
            done = 0
            retries = 0

            def enqueue(task_index: int) -> None:
                queued_at[task_index] = time.monotonic()
                heapq.heappush(pending, (-submitted[task_index].priority, task_index))

            def submit(task: MemberTask) -> None:
                submitted.append(task)
                outcomes.append(None)
                attempts.append(0)
                enqueue(len(submitted) - 1)
                dispatch_pending()

            def dispatch_pending() -> None:
                # Only to workers that reported ready: a task's deadline
                # starts here, never while its worker is still booting.
                for slot in self._table.slots:
                    if not pending:
                        break
                    worker_id = slot.worker_id
                    if worker_id in busy or slot.state != "ready" or not slot.process.is_alive():
                        continue
                    _, task_index = heapq.heappop(pending)
                    if outcomes[task_index] is not None:
                        continue  # a late straggler already answered it
                    task, attempt = submitted[task_index], attempts[task_index]
                    now = time.monotonic()
                    slot.request_queue.put((task_index, attempt, task))
                    busy[worker_id] = _Dispatch(task_index, attempt, now + self.task_timeout)
                    log_event(
                        "train.task_dispatched",
                        member=task.name,
                        worker=worker_id,
                        attempt=attempt,
                        waited_seconds=round(now - queued_at[task_index], 4),
                    )

            def fail_or_retry(task_index: int, reason: str) -> None:
                nonlocal retries
                name = submitted[task_index].name
                attempts[task_index] += 1
                if attempts[task_index] > self.max_task_retries:
                    log_event(
                        "train.retries_exhausted",
                        member=name,
                        attempts=attempts[task_index],
                        reason=reason,
                    )
                    raise RuntimeError(
                        f"training of member {name!r} failed "
                        f"{attempts[task_index]} times (max_task_retries="
                        f"{self.max_task_retries}); last failure: {reason}"
                    )
                retries += 1
                _TASK_RETRIES.inc()
                enqueue(task_index)
                logger.warning(
                    "retrying member %r (attempt %d/%d): %s",
                    name,
                    attempts[task_index] + 1,
                    self.max_task_retries + 1,
                    reason,
                )
                log_event(
                    "train.task_retried", member=name, attempt=attempts[task_index], reason=reason
                )

            for task in tasks:
                submit(task)
            while done < len(submitted):
                # 1. Dispatch pending tasks to idle, ready workers.
                dispatch_pending()

                # 2. Collect messages (ready, results, errors, heartbeats).
                for kind, worker_id, payload in self._table.poll(POLL_INTERVAL):
                    now = time.monotonic()
                    slot = self._table.slots[worker_id]
                    if kind == "ready" and slot.state == "starting":
                        slot.state = "ready"
                        boot = round(now - slot.spawned_at, 3)
                        log_event("train.worker_ready", worker=worker_id, boot_seconds=boot)
                    self._last_beat[worker_id] = now
                    if kind == "result":
                        task_index, attempt, outcome, worker_metrics = payload
                        busy.pop(worker_id, None)
                        self._table.mark_healthy(slot)
                        if outcomes[task_index] is None:
                            # The model crossed the process boundary packed
                            # as plain data (worker._worker_main).
                            outcome.model = unpack_model_state(outcome.model)
                            outcomes[task_index] = outcome
                            done += 1
                            if worker_metrics:
                                _metrics.merge_snapshot(worker_metrics)
                            log_event(
                                "train.task_finished",
                                member=outcome.name,
                                worker=worker_id,
                                seconds=round(outcome.seconds, 4),
                            )
                            # Keep the workers fed before anything slower:
                            # tasks this result unblocked, then the journal.
                            for task in (follow_up(task_index, outcome) if follow_up else ()):
                                submit(task)
                            dispatch_pending()
                            if on_outcome is not None:
                                on_outcome(task_index, outcome)
                    elif kind == "error":
                        task_index, attempt, message = payload
                        busy.pop(worker_id, None)
                        if outcomes[task_index] is None:
                            fail_or_retry(task_index, message)
                    elif kind == "fatal":  # worker could not start (attach failed)
                        self._evict_worker(slot, "startup", None)

                now = time.monotonic()

                # 3. Health checks: deaths, deadlines, heartbeat loss.
                for slot in self._table.slots:
                    if slot.state == "down":
                        continue
                    worker_id = slot.worker_id
                    dispatch = busy.get(worker_id)
                    if not slot.process.is_alive():
                        reason = "died"
                    elif dispatch is not None and now >= dispatch.deadline:
                        reason = "deadline"
                    elif now - self._last_beat[worker_id] > HEARTBEAT_TIMEOUT:
                        reason = "heartbeat"
                    else:
                        continue
                    member = None if dispatch is None else submitted[dispatch.task_index].name
                    self._evict_worker(slot, reason, member)
                    busy.pop(worker_id, None)
                    if dispatch is not None and outcomes[dispatch.task_index] is None:
                        fail_or_retry(
                            dispatch.task_index,
                            f"worker {worker_id} {reason}"
                            + (
                                f" after {self.task_timeout:.0f}s deadline"
                                if reason == "deadline"
                                else ""
                            ),
                        )

                # 4. Bring evicted pool slots back under backoff.
                for slot in self._table.due(now):
                    self._spawn_worker(slot)
                    _WORKER_RESTARTS.inc()
                    logger.info(
                        "respawned training worker %d (eviction %d)",
                        slot.worker_id,
                        slot.failures,
                    )
                    log_event(
                        "train.worker_respawned", worker=slot.worker_id, eviction=slot.failures
                    )

            makespan = time.perf_counter() - start
        except BaseException:
            # A failed run must not hang the caller a second time: waiting
            # for stuck tasks could block forever, so kill the pool outright
            # before the exception propagates.
            self._shutdown(graceful=False)
            raise
        if _metrics.enabled:
            _TASKS_TOTAL.inc(len(outcomes))
            _TASK_SECONDS.inc(sum(outcome.seconds for outcome in outcomes))
            _LAST_MAKESPAN.set(makespan)
            _POOL_WORKERS.set(self.workers)
        logger.info(
            "trained %d members on %d workers: makespan %.2fs, member-seconds %.2fs"
            "%s",
            len(outcomes),
            self.workers,
            makespan,
            sum(outcome.seconds for outcome in outcomes),
            f", {retries} task retries" if retries else "",
        )
        return outcomes, makespan  # type: ignore[return-value]

    # ------------------------------------------------------------- cleanup
    def _shutdown(self, graceful: bool) -> None:
        self._table.stop(self._table.slots, graceful=graceful)
        self._table.close()
        self._started = False
        self._shared.close()

    def close(self) -> None:
        """Shut the pool down, then destroy the shared segments (idempotent)."""
        self._shutdown(graceful=True)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort safety net
        try:
            self.close()
        except Exception:
            pass

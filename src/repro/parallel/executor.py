"""Fault-tolerant parallel training of ensemble members.

:class:`ParallelExecutor` is the engine behind ``TrainingConfig(workers=N)``:
one persistent pool of ``N`` *lanes* per training run, each fitting one
:class:`~repro.core.trainer.MemberTask` at a time with the same
:func:`~repro.core.trainer.fit_task` the trainers call in-process.  **Lane 0
is the calling process** — the one that already holds numpy, ``repro`` and the
training set: a daemon thread (:class:`_CallerLane`) that fits on the caller's
own arrays and hands its :class:`~repro.core.trainer.TrainedNetwork` over as
an object.  Lanes ``1..N-1`` are worker processes that map the training set
read-only from one anonymous memory file the executor writes once (see
:mod:`repro.parallel.shared_data`) and ship their networks back packed.  So
``workers=2`` starts one process, not two, and the first task starts the
moment :meth:`~ParallelExecutor.train` does instead of after an interpreter
boot.  The pool runs whatever is submitted, highest ``priority`` first, and a
result may submit follow-up tasks: that is all it sees of the trainers'
dependency graph (``_run_tasks``).

Key properties
--------------

* **Deterministic** — a task record fully determines its fit and outcomes
  come back in submission order.  With matching BLAS thread counts the trained
  members are *bitwise* identical run to run, in-process to pool, lane to lane
  and fault-free to retried-after-a-crash.
* **No oversubscription** — worker start-up happens inside
  :func:`~repro.utils.parallel.blas_thread_limit`, so every worker's BLAS
  pool is capped (``BLAS_THREADS_PER_WORKER``, one thread) before numpy is
  imported.  Lane 0 computes on the caller's BLAS pool as it is.
* **One scheduler** — every lane fills a slot of one
  :class:`~repro.parallel.supervision.SlotTable` (the supervision core the
  serving pool runs on as well) and reports into its one ``poll`` wait set;
  the single-threaded :meth:`~ParallelExecutor.train` loop dispatches,
  retries, evicts and respawns between polls and never blocks on a fit —
  lane 0's included.
* **Fault-tolerant** — a worker crash (SIGKILL, OOM kill, segfault), hang
  (wedged syscall, infinite loop), or an exception inside any lane's fit does
  not kill the run: a failed :class:`~repro.core.trainer.MemberTask` is
  retried up to ``max_task_retries`` times, then the run fails with a
  :class:`RuntimeError` naming the member.  Three signals evict a lane:

  - **process death** — the worker's pidfd turning readable (lane 0 cannot
    die alone: it ends with the run's own process);
  - **per-task deadline** — a task running longer than ``task_timeout``
    seconds marks its lane wedged.  A hung worker cannot be asked nicely: it
    is SIGKILLed and respawned under bounded exponential backoff.  A thread
    cannot be killed at all: lane 0 is *retired* — never dispatched to again,
    never respawned — and its task retried on a process lane; whichever
    answer lands first wins.  Tasks only go to slots that are ``ready`` (data
    set mapped), so the clock never runs while an interpreter is booting;
  - **heartbeat loss** — each worker's daemon heartbeat thread pings every
    ``HEARTBEAT_INTERVAL`` seconds; a silent-but-alive process (SIGSTOP,
    scheduler starvation) past ``HEARTBEAT_TIMEOUT`` is treated as wedged.
    Lane 0 needs none: if the caller is not scheduled, neither is the loop.

  A worker that returns a result is healthy again: its next eviction starts
  the backoff over.
* **Makespan accounting** — :meth:`~ParallelExecutor.train` returns the
  critical-path wall clock of the whole run next to the per-member fit
  seconds, so cost ledgers can report both "total compute" and "time you
  actually waited".
* **Streaming results** — as each task finishes (in completion order)
  :meth:`~ParallelExecutor.train` first asks ``follow_up`` for the tasks the
  result unblocked and dispatches, then calls ``on_outcome``, which is how
  checkpointing journals networks to disk *during* the run without idling a
  lane.  The ``train.worker_ready`` / ``task_dispatched`` / ``task_finished``
  events are the run's per-lane timeline (``worker`` is the lane number; lane
  0 announces itself with ``boot_seconds`` 0).
"""

from __future__ import annotations

import heapq
import logging
import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.trainer import MemberTask, TrainedNetwork, fit_task
from repro.nn.serialization import unpack_model_state
from repro.obs.events import log_event
from repro.obs.metrics import get_registry
from repro.parallel.shared_data import SharedDataset
from repro.parallel.supervision import LocalQueue, Slot, SlotTable
from repro.parallel.worker import _worker_main
from repro.utils.logging import get_logger
from repro.utils.parallel import blas_thread_limit, cpu_count

logger = get_logger("parallel.executor")

# Parallel-phase telemetry (repro.obs): how many member tasks ran on pools,
# the compute they burned, the critical path of the latest batch, and the
# fault-tolerance lifecycle (retries, evictions, respawns, heartbeat misses).
_metrics = get_registry()
_TASKS_TOTAL = _metrics.counter(
    "repro_parallel_tasks_total", "Member-training tasks completed on training pools."
)
_TASK_SECONDS = _metrics.counter(
    "repro_parallel_task_seconds_total",
    "Summed in-lane training seconds of completed pool tasks.",
)
_LAST_MAKESPAN = _metrics.gauge(
    "repro_parallel_last_makespan_seconds",
    "Critical-path wall clock of the most recent parallel training batch.",
)
_POOL_WORKERS = _metrics.gauge(
    "repro_parallel_pool_workers",
    "Lanes (concurrent fits, the caller's included) of the most recent training pool.",
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
#: How long one scheduler round waits for lane messages.
POLL_INTERVAL = 0.1


@dataclass
class _Dispatch:
    """Loop-side record of one task currently running on a lane."""

    task_index: int
    attempt: int
    deadline: float  # monotonic time after which the lane counts as hung


def _pop_live(pending: List[Tuple[float, int]], outcomes: Sequence[object]) -> Optional[int]:
    """Pop the most urgent task index still unanswered off the ``pending``
    heap, or ``None`` once it is empty.  An index a late straggler already
    answered is skipped *here*, so it never costs the lane asking its turn."""
    while pending:
        _, task_index = heapq.heappop(pending)
        if outcomes[task_index] is None:
            return task_index
    return None


def _died(slot: Slot) -> bool:
    """Whether the slot's worker process is gone (lane 0 has none to lose)."""
    return slot.process is not None and not slot.process.is_alive()


class _CallerLane(LocalQueue):
    """Lane 0: a daemon thread of the calling process, seen through the
    channel a worker process has.

    :meth:`send` takes the ``(task_index, attempt, task)`` items a worker's
    request pipe takes (``None`` ends the thread) and the lane itself — a
    :class:`~repro.parallel.supervision.LocalQueue` — is what the slot's
    results come back on, so lane 0 wakes the same ``SlotTable.poll`` the
    workers do and its network arrives as an object, nothing pickled.

    What a worker has and this has not: no ``fire("train")`` (a train fault
    can only ever kill a replaceable worker), no heartbeat, no registry
    snapshot (the fit counts straight into the caller's registry) and no way
    to be killed — :meth:`close` makes it deliver nothing more and leave after
    the fit it is in, if any.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        super().__init__()
        self.tasks: "queue.SimpleQueue" = queue.SimpleQueue()
        self._thread = threading.Thread(
            target=self._run, args=(x, y), name="repro-train-0", daemon=True
        )
        self._thread.start()

    def _run(self, x: np.ndarray, y: np.ndarray) -> None:
        for task_index, attempt, task in iter(self.tasks.get, None):
            if self._closed:
                return
            try:
                message = ("result", 0, (task_index, attempt, fit_task(task, x, y), None))
            except Exception as exc:
                message = ("error", 0, (task_index, attempt, f"{type(exc).__name__}: {exc}"))
            if not self.put(message):
                return

    def send(self, message) -> int:
        """Hand the lane a task (``None``: leave); nothing is encoded."""
        self.tasks.put(message)
        return 0

    def close(self) -> None:
        """Stop the lane (idempotent): a fit under way runs to its end — a
        thread cannot be killed — but is delivered nowhere."""
        super().close()
        self.tasks.put(None)


class ParallelExecutor:
    """Persistent training pool: the caller's lane plus spawned workers that
    map one copy of the data set.

    Parameters
    ----------
    data:
        The arrays to train on — the trainers pass ``{"x": x_train, "y":
        y_train}``.  Lane 0 fits on these very arrays; they are written once
        into a memfd that every worker process inherits.
    workers:
        Number of lanes, i.e. fits running at a time: the calling process is
        one of them, so ``workers - 1`` processes are spawned.
    task_timeout:
        Per-task deadline in seconds.  A lane that exceeds it is treated as
        wedged and its task retried: a worker is SIGKILLed, evicted and
        respawned, lane 0 is retired for the rest of the pool's life.
    max_task_retries:
        How many times a failed task (crash, hang, exception inside the fit)
        is re-enqueued before the run fails with an error naming the member.
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
        self._data = data
        self._shared = SharedDataset(data)
        # Slot i is lane i.  Slot 0 never gets a process: `_start_lane` fills
        # it with the caller's thread, and the table only ever spawns, evicts
        # and stops the others — every one inheriting the data set's memfd.
        try:
            self._table = SlotTable(
                [Slot(worker_id) for worker_id in range(self.workers)],
                _worker_main,
                "repro-train",
                inherit_fds=(self._shared.fd,),
            )
        except BaseException:
            self._shared.close()
            raise
        self._lane: Optional[_CallerLane] = None
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
    def _start_lane(self) -> None:
        """Fill slot 0 with the caller's own thread: ready at once."""
        slot = self._table.slots[0]
        self._lane = _CallerLane(self._data["x"], self._data["y"])
        slot.channel, slot.state = self._lane, "ready"
        log_event("train.worker_ready", worker=0, boot_seconds=0.0)

    def _close_lane(self) -> None:
        """Take lane 0 out of the wait set for good (see ``_CallerLane.close``)."""
        if self._lane is not None:
            slot = self._table.slots[0]
            slot.channel, slot.state = None, "down"
            self._lane.close()

    def _spawn_worker(self, slot: Slot) -> None:
        # The env cap must surround process creation: workers inherit the
        # environment at exec time and size their BLAS pools from it when
        # they import numpy.
        with blas_thread_limit(BLAS_THREADS_PER_WORKER):
            self._table.spawn(
                slot,
                self._shared.fd,
                self._shared.layout,
                BLAS_THREADS_PER_WORKER,
                HEARTBEAT_INTERVAL,
            )
        self._last_beat[slot.worker_id] = slot.spawned_at

    def _evict_worker(self, slot: Slot, reason: str, member: Optional[str]) -> None:
        """Take a dead or wedged lane out of rotation: a worker is killed and
        scheduled for respawn, lane 0 (a thread cannot be killed) is retired —
        ``down`` with nothing scheduled, so never dispatched to again."""
        if slot.process is None:
            slot.state, exitcode, backoff = "down", None, None
        else:
            exitcode, backoff = self._table.evict(slot)
        if _metrics.enabled:
            _WORKER_EVICTIONS.labels(reason).inc()
            if reason == "heartbeat":
                _HEARTBEAT_MISSES.inc()
        log_event(
            "train.worker_evicted",
            level=logging.ERROR,
            worker=slot.worker_id,
            reason=reason,
            exitcode=exitcode,
            member=member,
            restart_in_seconds=None if backoff is None else round(backoff, 3),
        )

    # ---------------------------------------------------------------- run
    def train(
        self,
        tasks: Iterable[MemberTask],
        on_outcome: Optional[Callable[[int, TrainedNetwork], None]] = None,
        follow_up: Optional[Callable[[int, TrainedNetwork], Iterable[MemberTask]]] = None,
    ) -> Tuple[List[TrainedNetwork], float]:
        """Train every task; returns ``(networks_in_submission_order, makespan)``.

        ``makespan`` is the caller's wall clock from first submission to last
        result — the critical path of the run, as opposed to the sum of the
        per-network ``TrainedNetwork.seconds``.  Pending tasks go to free
        lanes highest ``MemberTask.priority`` first, ties in submission
        order; lane 0 — the caller, ready before any worker has booted —
        stands first, so the head of the critical path starts at once.  Per
        result, in completion order, ``follow_up(task_index, network)`` yields
        the tasks that join the run because of it (their indices continue the
        submission order) and only then ``on_outcome(task_index, network)``
        fires — the checkpoint-journal hook; an exception from either aborts
        the run.
        """
        try:
            if not self._started:
                self._start_lane()
                for slot in self._table.slots[1:]:
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
                # Only to lanes that are ready: a task's deadline starts
                # here, never while its worker is still booting.
                for slot in self._table.slots:
                    if not pending:
                        break
                    worker_id = slot.worker_id
                    if worker_id in busy or slot.state != "ready" or _died(slot):
                        continue
                    task_index = _pop_live(pending, outcomes)
                    if task_index is None:
                        break
                    task, attempt = submitted[task_index], attempts[task_index]
                    now = time.monotonic()
                    self._table.send(slot, (task_index, attempt, task))
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
                log_event(
                    "train.task_retried",
                    level=logging.WARNING,
                    member=name,
                    attempt=attempts[task_index],
                    reason=reason,
                )

            for task in tasks:
                submit(task)
            while done < len(submitted):
                # 1. Dispatch pending tasks to idle, ready lanes.
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
                            if slot.process is not None:
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
                            # Keep the lanes fed before anything slower:
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
                    elif kind == "fatal":  # worker could not start (mapping failed)
                        self._evict_worker(slot, "startup", None)

                now = time.monotonic()

                # 3. Health checks: deaths, deadlines, heartbeat loss — of
                # which only the deadline can befall lane 0 (no process).
                for slot in self._table.slots:
                    if slot.state == "down":
                        continue
                    worker_id = slot.worker_id
                    dispatch = busy.get(worker_id)
                    if _died(slot):
                        reason = "died"
                    elif dispatch is not None and now >= dispatch.deadline:
                        reason = "deadline"
                    elif (
                        slot.process is not None
                        and now - self._last_beat[worker_id] > HEARTBEAT_TIMEOUT
                    ):
                        reason = "heartbeat"
                    else:
                        continue
                    member = None if dispatch is None else submitted[dispatch.task_index].name
                    self._evict_worker(slot, reason, member)
                    busy.pop(worker_id, None)
                    if self.workers == 1:  # lane 0 was all there is: nothing can retry
                        raise RuntimeError(
                            f"training of member {member!r} outran its {self.task_timeout:g}s "
                            "deadline on the pool's only lane, the calling process"
                        )
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
                    log_event(
                        "train.worker_respawned", worker=slot.worker_id, eviction=slot.failures
                    )

            makespan = time.perf_counter() - start
            if self._table.slots[0].state == "down":
                # Retired mid-run: what it still finishes belongs to no run.
                self._close_lane()
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
            "trained %d members on %d lanes: makespan %.2fs, member-seconds %.2fs"
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
        self._close_lane()
        self._table.stop(self._table.slots, graceful=graceful)
        self._table.close()
        self._started = False
        self._shared.close()

    def close(self) -> None:
        """Shut the pool down, then close the data set's memfd (idempotent)."""
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

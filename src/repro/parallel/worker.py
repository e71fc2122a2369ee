"""Worker-process side of the parallel engine (training *and* serving).

Everything here runs inside ``spawn``-started worker processes, so it is all
module-level (picklable by reference).  There is **one worker loop**,
:func:`_run_worker` — the mirror image of the parent-side supervision core
(:mod:`repro.parallel.supervision`):

1. set up; then announce ``("ready", worker_id, None)`` — only then does the
   owner hand the worker anything, so no deadline ever runs while an
   interpreter is still booting — or ``("fatal", worker_id, reason)`` and exit;
2. ``get`` an item off the private request queue, handle it, reply on the
   private result queue; one item at a time, ``None`` ends the loop.  Queue
   locks are never shared across workers, so a SIGKILL mid-operation poisons
   only this worker's queues, which its owner replaces at respawn;
3. throughout, **exit when the parent is gone**: a daemon thread waits on the
   parent's sentinel and calls ``os._exit``, whatever the main thread is doing
   (blocked in ``get``, mid-fit, mid-inference).  A SIGKILLed parent runs no
   cleanup; workers that outlived it would pin its shared-memory segments
   through the inherited resource-tracker pipe forever.

:func:`_worker_main` (training) and :func:`_serving_worker_main` (serving)
each give that loop a set-up and a handle function.

A training worker receives picklable :class:`~repro.core.trainer.MemberTask`
records and fits each with the very function the trainers call in-process,
:func:`repro.core.trainer.fit_task`, against the shared-memory data set
attached at set-up; every input of that function comes from the task record —
so a member is bitwise the same wherever it trains, and a task *retried* on
another worker after a crash is bitwise identical to a fault-free first
attempt, provided the BLAS thread count matches (floating-point summation
order inside GEMM depends on it; the executor caps workers to one BLAS thread
each).  What is specific to running *in a worker* stays on this side of the
process boundary, never in ``fit_task``:

* a daemon heartbeat thread emits ``("heartbeat", worker_id, None)`` every
  ``heartbeat_interval`` seconds so the executor can tell a *stopped*
  process (SIGSTOP, scheduler starvation) from a merely slow one; a worker
  wedged inside the training call keeps heartbeating, which is exactly why
  the executor additionally enforces per-task deadlines;
* the resulting :class:`~repro.core.trainer.TrainedNetwork` ships back with
  its model packed as plain data, next to the :mod:`repro.obs` registry
  snapshot of the fit, so per-member training metrics survive worker exit
  (the registry is reset after each snapshot: snapshots are deltas, and the
  parent merges them without double counting — the parent's own registry is
  never reset);
* the :func:`repro.faults.fire` ``train`` injection point sits directly
  before the fit for chaos tests — free when ``REPRO_FAULTS`` is unset, and
  absent from in-process fits and from the executor's lane 0 (the calling
  process fitting in a thread), so a train fault can only ever kill a worker.

A serving worker answers the dispatches of
:class:`~repro.parallel.serving.PoolPredictor` entry by entry
(:func:`answer_entry`): an entry carries its rows inline, and its
probabilities go back as raw bytes.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
from multiprocessing.connection import wait as _mp_wait
from typing import Callable, Dict, Tuple

from repro.core.trainer import fit_task
from repro.faults import fire
from repro.nn.serialization import pack_model_state
from repro.obs.metrics import get_registry
from repro.parallel.shared_data import AttachedDataset, SharedArrayMeta
from repro.utils.parallel import apply_blas_thread_cap


def _exit_when_parent_dies() -> None:
    """Daemon watcher: leave the moment the parent process is gone.

    A SIGKILLed parent runs no cleanup, and a worker blocked in
    ``request_queue.get()`` (or mid-fit) would outlive it forever, pinning its
    shared-memory segments through the inherited resource-tracker pipe.  The
    parent's sentinel turns readable when it dies; ``os._exit`` ends this
    process whatever its main thread is doing, and once the last worker is
    gone the resource tracker unlinks what the parent left in ``/dev/shm``.
    """
    parent = mp.parent_process()
    if parent is None:  # pragma: no cover - not started by multiprocessing
        return

    def watch() -> None:
        _mp_wait([parent.sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="repro-parent-watch", daemon=True).start()


def _run_worker(
    worker_id: int,
    request_queue,
    result_queue,
    set_up: Callable[[], Tuple[Callable[[object], None], Callable[[], None]]],
) -> None:
    """The one worker loop, for training and serving workers alike.

    ``set_up()`` does whatever must succeed before the worker can take work
    and returns ``(handle, tear_down)``.  Then: announce ``("ready",
    worker_id, None)`` — or ``("fatal", worker_id, reason)`` and exit if
    set-up raised — and ``handle`` every item off the private request queue,
    one at a time, until the ``None`` sentinel.  Throughout, the worker exits
    on its own when its parent is gone (:func:`_exit_when_parent_dies`).
    """
    _exit_when_parent_dies()
    try:
        handle, tear_down = set_up()
        result_queue.put(("ready", worker_id, None))
    except BaseException as exc:  # pragma: no cover - startup failure path
        result_queue.put(("fatal", worker_id, f"{type(exc).__name__}: {exc}"))
        return
    try:
        while True:
            item = request_queue.get()
            if item is None:
                break
            handle(item)
    finally:
        tear_down()


def answer_entry(predictor, entry: tuple) -> tuple:
    """Answer one entry of a serving dispatch; plain function of its inputs.

    ``entry`` is ``(request_id, rows, method)``.  The reply is
    ``(request_id, proba, error)``: ``proba`` is ``(shape, dtype, raw
    bytes)`` — bytes, not an array, so neither side pays numpy's pickle
    reconstruction — and ``None`` next to an ``error`` string.
    """
    request_id, rows, method = entry
    try:
        proba = predictor.predict_proba(rows, method=method)
        return (request_id, (proba.shape, str(proba.dtype), proba.tobytes()), None)
    except Exception as exc:
        return (request_id, None, f"{type(exc).__name__}: {exc}")


def _serving_worker_main(
    worker_id: int,
    artifact: str,
    method: str,
    batch_size: int,
    request_queue,
    result_queue,
) -> None:
    """Serving-pool worker: load the artifact, answer dispatches.

    A dispatch is a list of entries and is answered with ``("result",
    worker_id, replies)``, one :func:`answer_entry` reply per entry.
    ``("reload", request_id, path)`` swaps the predictor onto another
    artifact directory in place — between two dispatches, so no answer mixes
    generations — and is answered like a one-entry dispatch without
    probabilities; a reload that fails keeps the old one serving.
    """

    def set_up():
        from repro.api.predictor import EnsemblePredictor

        predictor = EnsemblePredictor.load(artifact, method=method, batch_size=batch_size)

        def handle(item) -> None:
            if isinstance(item, tuple):  # ("reload", request_id, path)
                _, request_id, path = item
                try:
                    predictor.reload(path=path)
                    replies = [(request_id, None, None)]
                except Exception as exc:
                    replies = [(request_id, None, f"{type(exc).__name__}: {exc}")]
            else:
                # Chaos-test injection point ("serve"): crash or wedge this
                # worker with a request group in flight — free when
                # REPRO_FAULTS is unset.
                fire("serve", worker=worker_id)
                replies = [answer_entry(predictor, entry) for entry in item]
            result_queue.put(("result", worker_id, replies))

        return handle, lambda: None

    _run_worker(worker_id, request_queue, result_queue, set_up)


def _heartbeat_loop(worker_id: int, result_queue, interval: float, stop: threading.Event) -> None:
    """Daemon thread: tell the parent this process is still scheduled."""
    while not stop.wait(interval):
        try:
            result_queue.put(("heartbeat", worker_id, None))
        except Exception:  # pragma: no cover - queue torn down at exit
            return


def _worker_main(
    worker_id: int,
    meta: Dict[str, SharedArrayMeta],
    blas_threads: int,
    heartbeat_interval: float,
    request_queue,
    result_queue,
) -> None:
    """Training-worker main (one process; see module docstring)."""

    def set_up():
        apply_blas_thread_cap(blas_threads)
        data = AttachedDataset(meta)
        registry = get_registry()
        stop = threading.Event()
        threading.Thread(
            target=_heartbeat_loop,
            args=(worker_id, result_queue, heartbeat_interval, stop),
            name=f"repro-train-heartbeat-{worker_id}",
            daemon=True,
        ).start()

        def handle(item) -> None:
            task_index, attempt, task = item
            try:
                # Chaos-test injection point: fires "mid-member" — after the
                # task is accepted, before any result can be produced.
                fire("train", member=task.name, attempt=attempt)
                net = fit_task(task, data["x"], data["y"])
                net.model = pack_model_state(net.model)
                # Ship the registry delta for this fit and reset, so the next
                # task on this worker starts from zero and the parent never
                # double-merges.
                metrics = None
                if registry.enabled:
                    metrics = registry.snapshot()
                    registry.reset()
            except Exception as exc:
                result_queue.put(
                    ("error", worker_id, (task_index, attempt, f"{type(exc).__name__}: {exc}"))
                )
            else:
                result_queue.put(("result", worker_id, (task_index, attempt, net, metrics)))

        return handle, stop.set

    _run_worker(worker_id, request_queue, result_queue, set_up)

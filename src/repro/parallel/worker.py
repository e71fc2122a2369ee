"""Worker-process side of the parallel engine (training *and* serving).

Everything here runs inside ``spawn``-started worker processes, so it is all
module-level (picklable by reference).  A training worker receives picklable
:class:`~repro.core.trainer.MemberTask` records, fits each against the
shared-memory dataset attached at start-up, and ships the resulting
:class:`~repro.core.trainer.TrainedNetwork` back with its model packed as
plain data.  The serving-pool worker loop (:func:`_serving_worker_main`)
lives here too: it answers request descriptors from
:class:`~repro.parallel.serving.PoolPredictor`, reading request rows from —
and writing probabilities into — its per-worker shared-memory arena when the
pool runs the ``shm`` transport.

A worker fits a task with the very function the trainers call in-process,
:func:`repro.core.trainer.fit_task`, and every input of that function comes
from the task record — so a member is bitwise the same wherever it trains,
and a task *retried* on another worker after a crash is bitwise identical to
a fault-free first attempt, provided the BLAS thread count matches
(floating-point summation order inside GEMM depends on it; the executor caps
workers to one BLAS thread each by default).  What is specific to running
*in a worker* stays on this side of the process boundary, in
:func:`_worker_main`, never in ``fit_task``:

* the worker announces ``("ready", worker_id, None)`` once the data set is
  attached — only then does the executor hand it tasks and start their
  deadlines — then runs a persistent loop over its private request queue (one
  task at a time, ``None`` ends the loop) and ships every message through
  its private result queue — queue locks are never shared across workers,
  so a SIGKILL mid-operation poisons only this worker's queues, which the
  executor replaces at respawn;
* a daemon heartbeat thread emits ``("heartbeat", worker_id, None)`` every
  ``heartbeat_interval`` seconds so the executor can tell a *stopped*
  process (SIGSTOP, scheduler starvation) from a merely slow one; a worker
  wedged inside the training call keeps heartbeating, which is exactly why
  the executor additionally enforces per-task deadlines;
* the :mod:`repro.obs` registry snapshot of each fit travels back next to
  the network, so per-member training metrics survive worker exit (the
  registry is reset after each snapshot: snapshots are deltas, and the
  parent merges them without double counting — the parent's own registry
  is never reset);
* the :func:`repro.faults.fire` ``train`` injection point sits directly
  before the fit for chaos tests — free when ``REPRO_FAULTS`` is unset, and
  absent from in-process fits, so a train fault can only ever kill a worker.
"""

from __future__ import annotations

import threading
from typing import Dict

from repro.core.trainer import fit_task
from repro.faults import fire
from repro.nn.serialization import pack_model_state
from repro.obs.metrics import get_registry
from repro.parallel.shared_data import AttachedDataset, SharedArrayMeta
from repro.utils.parallel import apply_blas_thread_cap


def _serving_worker_main(
    worker_id: int,
    artifact: str,
    method: str,
    batch_size: int,
    warm: bool,
    arena_meta,
    request_queue,
    result_queue,
) -> None:
    """Serving-pool worker: load the artifact once, answer request groups.

    Two request encodings arrive on the queue (besides the ``None``
    shutdown sentinel), tagged by their first element:

    * ``("pickle", [(request_id, rows, method), ...])`` — the reference
      transport: tensors travel through the queue itself.
    * ``("shm", (generation, request_region, entries))`` — the zero-copy
      transport: each entry is ``(request_id, offset, shape, dtype, method,
      result_offset, result_capacity)`` and the rows live in this worker's
      shared-memory arena (``arena_meta``).  The worker predicts directly on
      a view of the arena bytes and writes the probabilities into the
      reserved result region; only the descriptor goes back on the queue.

    Replies mirror the encodings: ``("result", worker_id, ("pickle",
    replies))`` or ``("result", worker_id, ("shm", generation,
    request_region, replies))`` where each shm reply is ``(request_id,
    result_offset, shape, dtype, inline_result, error)`` — ``inline_result``
    carries the probabilities through the queue in the rare case the
    reservation cannot hold them (never for float32/float64 outputs).
    """
    import numpy as np

    arena = None
    try:
        from repro.api.predictor import EnsemblePredictor
        from repro.parallel.shared_data import attach_segment

        predictor = EnsemblePredictor.load(
            artifact, method=method, batch_size=batch_size, warm=warm
        )
        if arena_meta is not None:
            arena = attach_segment(arena_meta.name)
        result_queue.put(("ready", worker_id, None))
    except BaseException as exc:  # pragma: no cover - startup failure path
        result_queue.put(("fatal", worker_id, f"{type(exc).__name__}: {exc}"))
        return
    try:
        while True:
            item = request_queue.get()
            if item is None:
                break
            # Chaos-test injection point ("serve"): crash or wedge this worker
            # with a request group in flight — free when REPRO_FAULTS is unset.
            fire("serve", worker=worker_id)
            kind, payload = item
            if kind == "pickle":
                replies = []
                for request_id, x, method_override in payload:
                    try:
                        proba = predictor.predict_proba(x, method=method_override)
                        replies.append((request_id, proba, None))
                    except Exception as exc:
                        replies.append(
                            (request_id, None, f"{type(exc).__name__}: {exc}")
                        )
                result_queue.put(("result", worker_id, ("pickle", replies)))
                continue
            generation, request_region, entries = payload
            replies = []
            for request_id, offset, shape, dtype, method_override, res_off, res_cap in entries:
                try:
                    rows = np.ndarray(
                        tuple(shape),
                        dtype=np.dtype(dtype),
                        buffer=arena.buf,
                        offset=offset,
                    )
                    proba = predictor.predict_proba(rows, method=method_override)
                    del rows
                    # Chaos-test injection point ("serve_shm_write"): die or
                    # wedge mid-slot-write — the dispatcher must survive a
                    # result region that never gets its descriptor.
                    fire("serve_shm_write", worker=worker_id)
                    if proba.nbytes <= res_cap:
                        out = np.ndarray(
                            proba.shape,
                            dtype=proba.dtype,
                            buffer=arena.buf,
                            offset=res_off,
                        )
                        np.copyto(out, proba, casting="no")
                        del out
                        replies.append(
                            (
                                request_id,
                                res_off,
                                tuple(proba.shape),
                                str(proba.dtype),
                                None,
                                None,
                            )
                        )
                    else:  # reservation too narrow: fall back through the queue
                        replies.append((request_id, res_off, None, None, proba, None))
                except Exception as exc:
                    replies.append(
                        (request_id, res_off, None, None, None, f"{type(exc).__name__}: {exc}")
                    )
            result_queue.put(
                ("result", worker_id, ("shm", generation, request_region, replies))
            )
    finally:
        if arena is not None:
            try:
                arena.close()
            except Exception:  # pragma: no cover - views torn down with us
                pass


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
    """Training-worker main loop (one process; see module docstring)."""
    try:
        apply_blas_thread_cap(blas_threads)
        data = AttachedDataset(meta)
        result_queue.put(("ready", worker_id, None))
    except BaseException as exc:  # pragma: no cover - startup failure path
        try:
            result_queue.put(("fatal", worker_id, f"{type(exc).__name__}: {exc}"))
        finally:
            return
    registry = get_registry()
    stop = threading.Event()
    beat = threading.Thread(
        target=_heartbeat_loop,
        args=(worker_id, result_queue, heartbeat_interval, stop),
        name=f"repro-train-heartbeat-{worker_id}",
        daemon=True,
    )
    beat.start()
    try:
        while True:
            item = request_queue.get()
            if item is None:
                break
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
    finally:
        stop.set()

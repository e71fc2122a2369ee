"""Worker-process side of the parallel engine (training *and* serving).

Everything here runs inside worker processes that
:class:`~repro.parallel.supervision.SlotTable` starts as ``python -c LAUNCHER
NAME REQUEST_FD RESULT_FD LIFELINE_FD``: the launcher reads the first frame
on the request pipe — the owner's ``sys.path`` and the pickled worker main
function with its arguments, so every main is module-level (pickled by
reference) — and hands it to :func:`main`.
There is **one worker loop**, :func:`_run_worker` — the mirror image of the
parent-side supervision core:

1. set up; then announce ``("ready", worker_id, None)`` — only then does the
   owner hand the worker anything, so no deadline ever runs while an
   interpreter is still booting — or ``("fatal", worker_id, reason)`` and exit;
2. ``get`` an item off the private request pipe, handle it, ``put`` the reply
   on the private result pipe; one item at a time, ``None`` ends the loop.
   Each message is one length-prefixed pickle frame
   (:func:`~repro.parallel.supervision.encode`), written on the thread that
   made it — no feeder thread — and under a lock, so a training worker's
   heartbeat thread never splits a reply;
3. throughout, **exit when the parent is gone**: a daemon thread blocks on
   the *lifeline*, a pipe whose only write end the owner holds, and calls
   ``os._exit`` once it reads EOF, whatever the main thread is doing
   (blocked in ``get``, mid-fit, mid-inference).  A SIGKILLed parent runs no
   cleanup; workers that outlived it would sit on their pipes forever.

:func:`_worker_main` (training) and :func:`_serving_worker_main` (serving)
each give that loop a set-up and a handle function.

A training worker receives picklable :class:`~repro.core.trainer.MemberTask`
records and fits each with the very function the trainers call in-process,
:func:`repro.core.trainer.fit_task`, against read-only views of the data
set the executor wrote once into an anonymous memory file, mapped at set-up
(:func:`repro.parallel.shared_data.attach`); every other input of that
function comes from the task record — so a member is bitwise the same
wherever it trains, and a task *retried* on another worker after a crash is
bitwise identical to a fault-free first attempt, provided the BLAS thread
count matches (floating-point summation order inside GEMM depends on it; the
executor caps workers to one BLAS thread each).  What is specific to running
*in a worker* stays on this side of the process boundary, never in
``fit_task``:

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

import os
import pickle
import threading
from typing import Callable, Sequence, Tuple

from repro.core.trainer import fit_task
from repro.faults import fire
from repro.nn.serialization import pack_model_state
from repro.obs.metrics import get_registry
from repro.parallel.shared_data import Layout, attach
from repro.parallel.supervision import FrameReader, encode
from repro.utils.parallel import apply_blas_thread_cap


class _Requests:
    """The worker's end of its request pipe: :meth:`get` blocks for the next
    item; ``None`` once the owner has closed the pipe."""

    def __init__(self, fd: int):
        self._reader = FrameReader(fd)

    def get(self):
        try:
            return self._reader.read()[0]
        except EOFError:
            return None


class _Results:
    """The worker's end of its result pipe: :meth:`put` writes one whole
    frame, on the calling thread, under a lock the heartbeat shares."""

    def __init__(self, fd: int):
        self._fd = fd
        self._lock = threading.Lock()

    def put(self, message) -> None:
        frame = encode(message)
        with self._lock:
            while frame:
                frame = frame[os.write(self._fd, frame) :]


def _exit_when_parent_dies(lifeline: int) -> None:
    """Daemon watcher: leave the moment the parent process is gone.

    A SIGKILLed parent runs no cleanup, and a worker blocked on its request
    pipe (or mid-fit) would outlive it forever.  The owner never writes to the
    lifeline and holds its only write end, so the read returns EOF exactly
    when the owner is gone; ``os._exit`` then ends this process whatever its
    main thread is doing.
    """

    def watch() -> None:
        os.read(lifeline, 1)
        os._exit(1)

    threading.Thread(target=watch, name="repro-parent-watch", daemon=True).start()


def main(argv: Sequence[str], payload: bytes) -> None:
    """``NAME REQUEST_FD RESULT_FD LIFELINE_FD``: watch the lifeline, unpickle
    ``payload`` — ``(target, args)``, off the bootstrap frame — and run
    ``target(*args, requests, results)`` on the pipes."""
    request_fd, result_fd, lifeline = (int(fd) for fd in argv[1:4])
    _exit_when_parent_dies(lifeline)
    target, args = pickle.loads(payload)
    try:
        target(*args, _Requests(request_fd), _Results(result_fd))
    except BrokenPipeError:  # the owner dropped its end: nobody to answer
        pass


def _run_worker(
    worker_id: int,
    requests: _Requests,
    results: _Results,
    set_up: Callable[[], Tuple[Callable[[object], None], Callable[[], None]]],
) -> None:
    """The one worker loop, for training and serving workers alike.

    ``set_up()`` does whatever must succeed before the worker can take work
    and returns ``(handle, tear_down)``.  Then: announce ``("ready",
    worker_id, None)`` — or ``("fatal", worker_id, reason)`` and exit if
    set-up raised — and ``handle`` every item off the private request pipe,
    one at a time, until the ``None`` sentinel.
    """
    try:
        handle, tear_down = set_up()
        results.put(("ready", worker_id, None))
    except BaseException as exc:  # pragma: no cover - startup failure path
        results.put(("fatal", worker_id, f"{type(exc).__name__}: {exc}"))
        return
    try:
        for item in iter(requests.get, None):
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
    threads: int,
    requests: _Requests,
    results: _Results,
) -> None:
    """Serving-pool worker: load the artifact, answer dispatches, each
    forward's shards on up to ``threads`` threads (the lane's cores).

    A dispatch is a list of entries and is answered with ``("result",
    worker_id, replies)``, one :func:`answer_entry` reply per entry.
    ``("reload", request_id, path)`` swaps the predictor onto another
    artifact directory in place — between two dispatches, so no answer mixes
    generations — and is answered like a one-entry dispatch without
    probabilities; a reload that fails keeps the old one serving.
    """

    def set_up():
        from repro.api.predictor import EnsemblePredictor

        predictor = EnsemblePredictor.load(
            artifact, method=method, batch_size=batch_size, threads=threads
        )

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
            results.put(("result", worker_id, replies))

        return handle, predictor.close

    _run_worker(worker_id, requests, results, set_up)


def _heartbeat_loop(
    worker_id: int, results: _Results, interval: float, stop: threading.Event
) -> None:
    """Daemon thread: tell the parent this process is still scheduled."""
    while not stop.wait(interval):
        try:
            results.put(("heartbeat", worker_id, None))
        except OSError:  # pragma: no cover - pipe torn down at exit
            return


def _worker_main(
    worker_id: int,
    data_fd: int,
    layout: Layout,
    blas_threads: int,
    heartbeat_interval: float,
    requests: _Requests,
    results: _Results,
) -> None:
    """Training-worker main (one process; see module docstring): the data
    set is the memfd ``data_fd``, inherited from the executor, laid out as
    ``layout`` says."""

    def set_up():
        apply_blas_thread_cap(blas_threads)
        data = attach(data_fd, layout)
        os.close(data_fd)  # the mapping keeps the file alive
        registry = get_registry()
        stop = threading.Event()
        threading.Thread(
            target=_heartbeat_loop,
            args=(worker_id, results, heartbeat_interval, stop),
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
                results.put(
                    ("error", worker_id, (task_index, attempt, f"{type(exc).__name__}: {exc}"))
                )
            else:
                results.put(("result", worker_id, (task_index, attempt, net, metrics)))

        return handle, stop.set

    _run_worker(worker_id, requests, results, set_up)


"""The one place that knows how a pool slot lives.

A pool — the training executor's or the serving pool's — is a fixed number of
*slots*, each filled by one ``spawn``-started worker process at a time.  (A
slot whose ``process`` stays ``None`` is filled by its owner instead — the
executor's lane 0 is a thread of the calling process: ``poll`` reads its
``result_queue`` like any other, ``stop`` passes it by, and the owner never
hands it to ``spawn`` or ``evict``.)
:class:`SlotTable` holds one :class:`Slot` record per worker and is the only
code under ``repro.parallel`` that creates a queue or a process.  It is
passive: no thread, no lock, no logging.  Its owner drives it from one
single-threaded loop — the executor's ``train()``, the serving pool's
``repro-serve-loop`` thread — decides *when* a transition happens, and logs
the facts the table hands back (exit code, backoff) under its own event and
metric names::

    down -> starting       spawn(): first start, or a respawn once due()
    starting -> ready      the owner, on the worker's "ready" message
    (any but down) -> down evict(): died, wedged (killed here), failed to
                           start — the respawn is scheduled under backoff
    (any) -> down          stop(): drained and asked to exit (pool shutdown)
                           or, still starting, killed — nothing is scheduled

A worker that changes what it serves (a serving hot-swap) does so in place,
between two items of its queue: no transition, no new process.

``evict`` schedules the respawn ``backoff_delay(failures)`` seconds out —
``base`` doubling per consecutive failure up to ``cap`` — and so does a
``spawn`` whose ``start()`` raises; ``due`` lists the slots whose wait is
over; ``mark_healthy`` ends a failure streak (the executor calls it on a
returned result, the serving pool on ``ready``).  Every spawn puts the worker
on *fresh private* queues: a SIGKILL can land while the predecessor holds one
of its queue locks and leave it acquired forever, and whatever is still on
the old queues belongs to work the owner already failed or rescheduled.
Private queues also mean each lock only ever has one process on each side, so
a crash poisons one slot, never the pool.  ``poll`` multiplexes the result
side with ``multiprocessing.connection.wait``, together with any
:class:`LocalQueue` — the one in-process queue end, which threads of the
owner's own process post to (the executor's lane 0, the serving pool's
clients) — so the owner's loop waits in exactly one place.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as thread_queue
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _mp_wait
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

#: Default respawn backoff: the first retry waits ``RESTART_BACKOFF`` seconds,
#: each consecutive failure doubles that, up to ``RESTART_BACKOFF_MAX``.
RESTART_BACKOFF = 0.5
RESTART_BACKOFF_MAX = 30.0
#: How long an owner waits for its workers to say ready when it starts.
STARTUP_TIMEOUT = 180.0


def backoff_delay(
    failures: int, base: float = RESTART_BACKOFF, cap: float = RESTART_BACKOFF_MAX
) -> float:
    """Seconds to wait before the next start, after ``failures`` consecutive
    failed ones: ``base`` doubling per failure, bounded by ``cap``."""
    # The exponent is clamped so a slot failing for days cannot overflow.
    return min(base * (2 ** min(failures, 32)), cap)


@dataclass
class Slot:
    """One worker's condition.  Owners subclass it for what else they keep
    per worker (the serving pool: load, artifact generation)."""

    worker_id: int
    process: Any = None
    request_queue: Any = None  # owner writes, worker reads
    result_queue: Any = None  # worker writes, owner reads
    state: str = "down"  # starting | ready | down
    down_until: Optional[float] = None  # monotonic respawn time; None: not scheduled
    failures: int = 0  # consecutive, since the owner last called mark_healthy
    spawned_at: float = 0.0

    @property
    def alive(self) -> bool:
        """Whether the slot's process is running, read off its sentinel.

        This never reaps the process, so any thread may ask.
        ``Process.is_alive()`` may not be asked from two threads: both call
        ``waitpid``, and for the one that loses the race the reaped child
        reads as running (``ECHILD``).  A pool's health check would then count
        a dead worker as alive.
        """
        return self.process is not None and not _mp_wait([self.process.sentinel], 0)


class LocalQueue:
    """A queue end whose writers are threads of this process, read by
    :meth:`SlotTable.poll` exactly like a worker's result queue: it waits on
    ``_reader`` and drains ``get_nowait()``.

    Nothing is pickled — a message is an object in a deque, and the pipe
    carries one wake-up byte for it.  :meth:`put` after :meth:`close` is
    dropped (and says so), so a writer racing the owner's shutdown never
    raises.
    """

    def __init__(self):
        self._reader, self._writer = mp.Pipe(duplex=False)
        self._messages: deque = deque()
        self._lock = threading.Lock()  # closing vs posting
        self._closed = False

    def put(self, message) -> bool:
        """Post ``message``; ``False`` if the queue is already closed."""
        with self._lock:
            if self._closed:
                return False
            self._messages.append(message)
            self._writer.send_bytes(b"\0")
        return True

    def get_nowait(self):
        """The next posted message; ``queue.Empty`` when there is none."""
        if not self._reader.poll():
            raise thread_queue.Empty
        self._reader.recv_bytes()
        return self._messages.popleft()

    def close(self) -> None:
        """Stop taking messages (idempotent); unread ones are dropped."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._reader.close()
            self._writer.close()


class SlotTable:
    """Slot records plus the few operations that change a worker's process.

    ``target(worker_id, *args, request_queue, result_queue)`` is the worker
    main function (module-level: it is pickled by reference), ``args`` what
    :meth:`spawn` is given.  Not thread-safe: its owner drives it from one
    thread, the owner's loop.
    """

    def __init__(
        self,
        ctx,
        slots: Sequence[Slot],
        target: Callable[..., None],
        name: str,
        backoff: float = RESTART_BACKOFF,
        backoff_max: float = RESTART_BACKOFF_MAX,
    ):
        if backoff <= 0 or backoff_max < backoff:
            raise ValueError("need 0 < restart_backoff <= restart_backoff_max")
        self.slots = list(slots)
        self._ctx = ctx
        self._target = target
        self._name = name
        self._backoff = float(backoff)
        self._backoff_max = float(backoff_max)

    def spawn(self, slot: Slot, *args) -> None:
        """(Re)start the slot's worker on fresh private queues, closing the
        predecessor's; the slot is ``starting`` until its owner sees ``ready``.

        A ``start()`` that raises is a failed attempt: the next one is
        scheduled under backoff, as after an eviction, and the error
        propagates with the slot's process and state as they were —
        ``slot.process`` only ever holds a started process, so a later
        ``stop`` cannot trip over one that never ran and mask the error.
        """
        old_queues = (slot.request_queue, slot.result_queue)
        slot.request_queue, slot.result_queue = self._ctx.Queue(), self._ctx.Queue()
        for queue in old_queues:
            if queue is not None:
                queue.close()
        process = self._ctx.Process(
            target=self._target,
            args=(slot.worker_id, *args, slot.request_queue, slot.result_queue),
            daemon=True,
            name=f"{self._name}-{slot.worker_id}",
        )
        try:
            process.start()
        except BaseException:
            self._schedule(slot)
            raise
        slot.process = process
        slot.state, slot.down_until, slot.spawned_at = "starting", None, time.monotonic()

    def evict(self, slot: Slot) -> Tuple[Optional[int], float]:
        """Take a dead or wedged worker out of rotation; ``(exit code, backoff)``.

        A wedged worker cannot be asked nicely: if the process is still alive
        it is SIGKILLed, as an operator (or the OOM killer) would.  The
        respawn is scheduled ``backoff`` seconds out.
        """
        process = slot.process
        if slot.alive:
            process.kill()
            process.join(timeout=10)
        slot.state = "down"
        return process.exitcode, self._schedule(slot)

    def _schedule(self, slot: Slot) -> float:
        """Count a failure and put the slot's next start ``backoff`` out."""
        backoff = backoff_delay(slot.failures, self._backoff, self._backoff_max)
        slot.failures += 1
        slot.down_until = time.monotonic() + backoff
        return backoff

    def due(self, now: float) -> List[Slot]:
        """The evicted slots whose backoff has run out."""
        return [
            slot
            for slot in self.slots
            if slot.state == "down" and slot.down_until is not None and now >= slot.down_until
        ]

    @staticmethod
    def mark_healthy(slot: Slot) -> None:
        """The worker proved itself: its next failure starts the backoff over."""
        slot.failures = 0

    def poll(self, timeout: float, *ends: LocalQueue) -> List[tuple]:
        """Whatever ``(kind, worker_id, payload)`` messages the workers — and
        the owner's own ``ends`` — sent, waiting up to ``timeout`` seconds for
        the first."""
        queues = [slot.result_queue for slot in self.slots if slot.result_queue is not None]
        snapshot = {queue._reader: queue for queue in (*queues, *ends)}
        messages: List[tuple] = []
        for reader in _mp_wait(list(snapshot), timeout=timeout):
            queue = snapshot[reader]
            while True:
                try:
                    messages.append(queue.get_nowait())
                except thread_queue.Empty:
                    break
                except (OSError, ValueError, EOFError):  # pragma: no cover
                    break  # queue closed/poisoned; successor takes over
        return messages

    def stop(self, slots: Iterable[Slot], graceful: bool = True, timeout: float = 10.0) -> None:
        """End the given slots' workers and leave them ``down``, unscheduled.

        Graceful: each is sent the ``None`` sentinel — it finishes what is on
        its queue first — and gets ``timeout`` seconds before it is killed.
        Otherwise they are killed outright (the error path, where waiting for
        in-flight work could block forever) — and so is, either way, a worker
        still ``starting``: owners dispatch to ``ready`` slots only, so it
        holds no work and the sentinel would only be read once its whole boot
        has been waited out.
        """
        live = [slot for slot in slots if slot.process is not None]
        for slot in live:
            booting = slot.state == "starting"
            slot.state, slot.down_until = "down", None
            if booting or not graceful:
                slot.process.kill()
            elif slot.process.is_alive():
                try:
                    slot.request_queue.put(None)
                except (OSError, ValueError):  # pragma: no cover - queue poisoned
                    pass
        for slot in live:
            slot.process.join(timeout=timeout)
            if slot.process.is_alive():  # pragma: no cover - stuck worker
                slot.process.kill()
                slot.process.join(timeout=5)

    def close(self) -> None:
        """Close every queue, once the workers are stopped."""
        for slot in self.slots:
            for queue in (slot.request_queue, slot.result_queue):
                if queue is not None:
                    queue.close()
                    queue.join_thread()
            slot.request_queue = slot.result_queue = None

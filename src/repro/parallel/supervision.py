"""The one place that knows how a pool slot lives.

A pool — the training executor's, the serving pool's, a queue-mode front's
local consumers — is a set of *slots*, each filled by one process at a
time.  (A slot whose ``process`` stays ``None`` is filled by its owner
instead — the executor's lane 0 is a thread of the calling process: its
``channel`` is a :class:`LocalQueue` that ``poll`` reads like any other,
``stop`` passes it by, and the owner never hands it to ``spawn`` or
``evict``.)  :class:`SlotTable` holds one :class:`Slot` record per worker
and is the only code in ``repro`` that starts a process.  It is passive: no
thread, no lock, no logging.  Its owner drives it from one single-threaded
loop — the executor's ``train()``, the serving pool's ``repro-serve-loop``,
the fleet front's ``repro-fleet-loop`` — decides *when* a transition
happens, and logs the facts the table hands back (exit code, backoff) under its own event and
metric names::

    down -> starting       spawn(): first start, or a respawn once due()
    starting -> ready      the owner, on the worker's "ready" message
    (any but down) -> down evict(): died, wedged (killed here), failed to
                           start — the respawn is scheduled under backoff
    (any) -> down          stop(): drained and asked to exit (pool shutdown)
                           or, still starting, killed — nothing is scheduled

A worker that changes what it serves (a serving hot-swap) does so in place,
between two items of its request pipe: no transition, no new process.

**A worker is a plain child process** (:class:`Child`): ``python -c
LAUNCHER NAME REQUEST_FD RESULT_FD LIFELINE_FD`` started with
``subprocess.Popen``, holding three pipe ends passed with ``pass_fds`` — its
request pipe's read end, its result pipe's write end and the read end of a
*lifeline* whose write end only the owner holds (the worker leaves when it
reads EOF: its parent is gone) — plus the table's ``inherit_fds``, which
every spawn passes on and none closes.  The first frame on the request pipe
bootstraps it: the owner's ``sys.path`` and the pickled ``(target, args)`` of
its main function.  The launcher reads that frame with the standard library
alone and puts the path in place before anything of ``repro`` is imported,
so a worker finds its modules however its owner found them (``-E`` or ``-I``
included).  Every message either way is one *frame*, a length-prefixed
protocol-5 pickle (:func:`encode`).  Nothing else runs: no resource-tracker
process, no queue feeder thread.

**The owner's loop never blocks on a pipe.**  Both of its ends are
non-blocking.  :meth:`SlotTable.send` writes what the request pipe takes and
leaves the rest of the frame in the slot's *outbox*; :meth:`SlotTable.poll`
waits in one ``poll(2)`` on every result pipe, the owner's own ``ends`` and
the request pipes whose outbox is not empty, so outboxes drain while it
waits, and reads each result pipe into its frame buffer as far as it goes.  A
worker that stops reading (SIGSTOP, a wedge) therefore only ever holds up its
own outbox, and ``evict`` drops that with the process.

``evict`` schedules the respawn ``backoff_delay(failures)`` seconds out —
the module constant ``RESTART_BACKOFF`` doubling per consecutive failure up
to ``RESTART_BACKOFF_MAX``, one schedule for every owner's children — and so
does a ``spawn`` whose start raises; ``due`` lists the slots whose wait is
over; ``mark_healthy`` ends a failure streak (the executor calls it on a
returned result, the serving pool on ``ready``).  Every spawn puts the worker
on *fresh private* pipes: whatever is still on the old ones belongs to work the
owner already failed or rescheduled.  :class:`LocalQueue` is the one
in-process end — threads of the owner's own process post to it (the
executor's lane 0, the serving pool's clients) — so the owner's loop waits in
exactly one place.
"""

from __future__ import annotations

import io
import math
import os
import pickle
import select
import signal
import struct
import subprocess
import sys
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Iterable, List, Optional, Sequence, Tuple

#: Respawn backoff of every supervised child: the first retry waits
#: ``RESTART_BACKOFF`` seconds, each consecutive failure doubles that, up to
#: ``RESTART_BACKOFF_MAX``.  Read at use (tests shorten them).
RESTART_BACKOFF = 0.5
RESTART_BACKOFF_MAX = 30.0
#: How long an owner waits for its workers to say ready when it starts.
STARTUP_TIMEOUT = 180.0

#: A frame is this header — the pickle's byte count — and the pickle.
_HEADER = struct.Struct("<Q")

#: What a worker process runs (``python -c``): read the bootstrap frame off
#: the request pipe (``argv[2]``; its header is ``_HEADER``) with nothing but
#: the standard library, take the owner's ``sys.path``, and only then import
#: the worker module.
_LAUNCHER = """\
import os, pickle, sys
def read(fd, size):
    data = b""
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            sys.exit()  # the owner gave up on this worker before it booted
        data += chunk
    return data
fd = int(sys.argv[2])
path, payload = pickle.loads(read(fd, int.from_bytes(read(fd, 8), "little")))
sys.path[:] = path
from repro.parallel.worker import main
main(sys.argv[1:], payload)
"""


def backoff_delay(failures: int) -> float:
    """Seconds to wait before the next start, after ``failures`` consecutive
    failed ones: ``RESTART_BACKOFF`` doubling per failure, bounded by
    ``RESTART_BACKOFF_MAX``."""
    # The exponent is clamped so a slot failing for days cannot overflow.
    return min(RESTART_BACKOFF * (2 ** min(failures, 32)), RESTART_BACKOFF_MAX)


# ---------------------------------------------------------------- frames
def encode(message: object) -> memoryview:
    """``message`` as one frame: its protocol-5 pickle behind its length."""
    buffer = io.BytesIO()
    buffer.write(bytes(_HEADER.size))
    pickle.dump(message, buffer, protocol=5)
    frame = buffer.getbuffer()
    _HEADER.pack_into(frame, 0, len(frame) - _HEADER.size)
    return frame


class FrameReader:
    """Reassembles frames off one pipe: each header, then each pickle, read
    straight into a buffer of its size.

    :meth:`read` returns ``(message, frame bytes)``.  On a blocking pipe it
    waits for the whole frame; on a non-blocking one it raises
    ``BlockingIOError`` once the pipe runs dry and picks up where it stopped
    on the next call.  ``EOFError`` at the end of the stream.
    """

    def __init__(self, fd: int):
        self.fd = fd
        self._expect(_HEADER.size, header=True)

    def _expect(self, size: int, header: bool) -> None:
        self._buffer = bytearray(size)
        self._view = memoryview(self._buffer)
        self._filled = 0
        self._header = header

    def read(self) -> Tuple[Any, int]:
        while True:
            if self._filled < len(self._buffer):
                count = os.readv(self.fd, [self._view[self._filled :]])
                if count == 0:
                    raise EOFError("pipe closed")
                self._filled += count
                continue
            if self._header:
                (size,) = _HEADER.unpack(self._buffer)
                self._expect(size, header=False)
                continue
            message, size = pickle.loads(self._buffer), len(self._buffer)
            self._expect(_HEADER.size, header=True)
            return message, _HEADER.size + size


class Child:
    """A worker process, seen through what its owners use of one: ``name``,
    ``pid``, ``sentinel``, ``is_alive``, ``kill``, ``join``, ``exitcode``.

    ``sentinel`` is a pidfd.  :meth:`is_alive` reads it and never reaps, so
    any thread may ask; ``join`` and ``exitcode`` reap (under ``Popen``'s
    own lock).  The lifeline's write end lives as long as this handle: the
    worker reads EOF on its end once the owner is gone.
    """

    def __init__(self, name: str, argv: Sequence[str], pass_fds: Sequence[int], lifeline: int):
        self.name = name
        # It inherits the environment at this moment (a BLAS cap an owner
        # set included).
        self._popen = subprocess.Popen(
            list(argv), pass_fds=tuple(pass_fds), stdin=subprocess.DEVNULL
        )
        self.pid = self._popen.pid
        # Not reaped before this point, so the pid still names our child.
        self.sentinel = os.pidfd_open(self.pid)
        weakref.finalize(self, _close_fds, self.sentinel, lifeline)

    def is_alive(self) -> bool:
        """Whether the process is running, read off its pidfd.

        This never reaps it, so any thread may ask.  A ``waitpid`` may not be
        raced from two threads: for the one that loses, the reaped child
        would read as running (``ECHILD``), and a pool's health check would
        count a dead worker as alive.
        """
        poller = select.poll()
        poller.register(self.sentinel, select.POLLIN)
        return not poller.poll(0)

    def kill(self) -> None:
        try:
            signal.pidfd_send_signal(self.sentinel, signal.SIGKILL)
        except ProcessLookupError:  # already reaped
            pass

    def join(self, timeout: Optional[float] = None) -> None:
        try:
            self._popen.wait(timeout)
        except subprocess.TimeoutExpired:
            pass

    @property
    def exitcode(self) -> Optional[int]:
        """``None`` while running, else the exit status (``-signal`` if killed)."""
        return self._popen.poll()


def _close_fds(*fds: int) -> None:
    for fd in fds:
        try:
            os.close(fd)
        except OSError:  # pragma: no cover - already closed
            pass


# ---------------------------------------------------------------- ends
class Channel:
    """The owner's ends of one worker's two pipes, both non-blocking.

    :meth:`send` writes a frame as far as the request pipe takes it; the rest
    waits in ``outbox`` until :meth:`flush` (``SlotTable.poll`` calls it when
    the pipe has room).  :meth:`receive` drains whole frames off the result
    pipe.  A worker that is gone shows as EOF on one side and a broken pipe on
    the other: its channel then reads and writes nothing more.
    """

    def __init__(self, request_fd: int, result_fd: int):
        os.set_blocking(request_fd, False)
        os.set_blocking(result_fd, False)
        self.request_fd: Optional[int] = request_fd
        self._reader: Optional[FrameReader] = FrameReader(result_fd)
        self.outbox: Deque[memoryview] = deque()

    def send(self, message: object) -> int:
        """Queue one message; returns its frame's length in bytes."""
        return self.write(encode(message))

    def write(self, frame: memoryview) -> int:
        """Queue one encoded frame; returns its length."""
        if self.request_fd is not None:
            self.outbox.append(frame)
            self.flush()
        return len(frame)

    def flush(self) -> None:
        """Write what the request pipe takes now, without waiting."""
        while self.outbox:
            head = self.outbox[0]
            try:
                written = os.write(self.request_fd, head)
            except BlockingIOError:
                return
            except BrokenPipeError:  # the worker is gone: nothing will read it
                self.outbox.clear()
                return
            if written == len(head):
                self.outbox.popleft()
            else:
                self.outbox[0] = head[written:]

    def fileno(self) -> Optional[int]:
        return None if self._reader is None else self._reader.fd

    def receive(self, messages: List[tuple]) -> None:
        """Append every whole message the result pipe holds to ``messages``,
        each as a :class:`Received`."""
        while self._reader is not None:
            try:
                message, size = self._reader.read()
            except BlockingIOError:
                break
            except (EOFError, OSError):
                _close_fds(self._reader.fd)
                self._reader = None
                break
            received = Received(message)
            received.nbytes = size
            messages.append(received)

    def close(self) -> None:
        """Drop both ends and whatever the outbox still holds (idempotent)."""
        self.outbox.clear()
        if self.request_fd is not None:
            _close_fds(self.request_fd)
            self.request_fd = None
        if self._reader is not None:
            _close_fds(self._reader.fd)
            self._reader = None


class Received(tuple):
    """A message as it was read off a worker's pipe — a plain ``(kind,
    worker_id, payload)`` tuple — that also knows its frame's length,
    ``nbytes`` (pickle and header, inline tensors included)."""

    nbytes: int


class LocalQueue:
    """An end whose writers are threads of this process, read by
    :meth:`SlotTable.poll` exactly like a worker's result pipe.

    Nothing is pickled — a message is an object in a deque, and the pipe
    carries one wake-up byte for it.  :meth:`put` after :meth:`close` is
    dropped (and says so), so a writer racing the owner's shutdown never
    raises.
    """

    def __init__(self):
        self._reader, self._writer = os.pipe()
        os.set_blocking(self._reader, False)
        self._messages: deque = deque()
        self._lock = threading.Lock()  # closing vs posting
        self._closed = False

    def put(self, message) -> bool:
        """Post ``message``; ``False`` if the queue is already closed."""
        with self._lock:
            if self._closed:
                return False
            self._messages.append(message)
            os.write(self._writer, b"\0")
        return True

    def fileno(self) -> Optional[int]:
        return None if self._closed else self._reader

    def receive(self, messages: List[tuple]) -> None:
        """Append every posted message to ``messages``, as it was posted."""
        try:
            woken = len(os.read(self._reader, 1 << 16))
        except OSError:  # nothing posted (EAGAIN), or already closed
            return
        # Each wake-up byte was written after its message was appended.
        messages.extend(self._messages.popleft() for _ in range(woken))

    def close(self) -> None:
        """Stop taking messages (idempotent); unread ones are dropped."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            _close_fds(self._reader, self._writer)


# ---------------------------------------------------------------- slots
@dataclass
class Slot:
    """One worker's condition.  Owners subclass it for what else they keep
    per worker (the serving pool: load, artifact generation)."""

    worker_id: int
    process: Any = None  # a Child (None: the owner fills the slot itself)
    channel: Any = None  # Channel to the worker, or the owner's LocalQueue
    state: str = "down"  # starting | ready | down
    down_until: Optional[float] = None  # monotonic respawn time; None: not scheduled
    failures: int = 0  # consecutive, since the owner last called mark_healthy
    spawned_at: float = 0.0

    @property
    def alive(self) -> bool:
        """Whether the slot's process is running (never reaps it: any thread
        may ask)."""
        return self.process is not None and self.process.is_alive()


class SlotTable:
    """Slot records plus the few operations that change a worker's process.

    ``target(worker_id, *args, requests, results)`` is the worker main
    function (module-level: it is pickled by reference), ``args`` what
    :meth:`spawn` is given; ``requests.get()`` and ``results.put(message)``
    are the worker's ends of its pipes.  Every worker also inherits
    ``inherit_fds``, the owner's to keep open and close (the executor's data
    set), under the same numbers.  Not thread-safe: its owner drives it
    from one thread, the owner's loop.  ``send`` returns each frame's length,
    and each message ``poll`` read off a pipe carries its frame's length.
    """

    def __init__(
        self,
        slots: Sequence[Slot],
        target: Callable[..., None],
        name: str,
        inherit_fds: Sequence[int] = (),
    ):
        self.slots = list(slots)
        self._target = target
        self._name = name
        self._inherit_fds = tuple(inherit_fds)
        self._held: List[tuple] = []  # read while stop() waited; the next poll's

    def spawn(self, slot: Slot, *args) -> None:
        """(Re)start the slot's worker on fresh private pipes, dropping the
        predecessor's; the slot is ``starting`` until its owner sees ``ready``.

        A start that raises is a failed attempt: the next one is scheduled
        under backoff, as after an eviction, and the error propagates with the
        slot's process and state as they were — ``slot.process`` only ever
        holds a started process, so a later ``stop`` cannot trip over one that
        never ran and mask the error.
        """
        if slot.channel is not None:
            slot.channel.close()
            slot.channel = None
        request_r, request_w = os.pipe()
        result_r, result_w = os.pipe()
        lifeline_r, lifeline_w = os.pipe()
        theirs = (request_r, result_w, lifeline_r)
        name = f"{self._name}-{slot.worker_id}"
        argv = [
            sys.executable,
            *subprocess._args_from_interpreter_flags(),
            "-c",
            _LAUNCHER,
            name,
            *map(str, theirs),
        ]
        try:
            target = pickle.dumps((self._target, (slot.worker_id, *args)), protocol=5)
            bootstrap = encode((sys.path, target))
            process = Child(name, argv, (*theirs, *self._inherit_fds), lifeline_w)
        except BaseException:
            _close_fds(request_w, result_r, lifeline_w)
            self._schedule(slot)
            raise
        finally:
            _close_fds(*theirs)
        slot.process, slot.channel = process, Channel(request_w, result_r)
        slot.channel.write(bootstrap)
        slot.state, slot.down_until, slot.spawned_at = "starting", None, time.monotonic()

    def send(self, slot: Slot, message: object) -> int:
        """Hand ``message`` to the slot's worker without waiting; returns the
        bytes it takes on the pipe (0 for an owner-filled slot)."""
        return slot.channel.send(message)

    def evict(self, slot: Slot) -> Tuple[Optional[int], float]:
        """Take a dead or wedged worker out of rotation; ``(exit code, backoff)``.

        A wedged worker cannot be asked nicely: if the process is still alive
        it is SIGKILLed, as an operator (or the OOM killer) would.  Its pipes
        go with it, outbox and all.  The respawn is scheduled
        ``backoff_delay(failures)`` seconds out.
        """
        process = slot.process
        if process.is_alive():
            process.kill()
        process.join(timeout=10)
        if slot.channel is not None:
            slot.channel.close()
            slot.channel = None
        slot.state = "down"
        return process.exitcode, self._schedule(slot)

    def _schedule(self, slot: Slot) -> float:
        """Count a failure and put the slot's next start ``backoff_delay`` out."""
        backoff = backoff_delay(slot.failures)
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
        the first; outboxes drain meanwhile.  A worker's message is a
        :class:`Received`, with its frame's length."""
        deadline = time.monotonic() + timeout
        messages, self._held = self._held, []
        while True:
            wait = 0.0 if messages else deadline - time.monotonic()
            self._exchange(wait, ends, messages)
            if messages or time.monotonic() >= deadline:
                return messages

    def _exchange(
        self, timeout: float, ends: Sequence[Any], messages: List[tuple], wake: Sequence[int] = ()
    ) -> None:
        """One ``poll(2)`` over the readable ends, the request pipes with
        something in their outbox and the ``wake`` fds; then flush what has
        room and read what is there."""
        readers = {}
        for end in (*(slot.channel for slot in self.slots), *ends):
            fd = None if end is None else end.fileno()
            if fd is not None:
                readers[fd] = end
        writers = {
            slot.channel.request_fd: slot.channel
            for slot in self.slots
            if isinstance(slot.channel, Channel) and slot.channel.outbox
        }
        poller = select.poll()
        for fd in readers:
            poller.register(fd, select.POLLIN)
        for fd in writers:
            poller.register(fd, select.POLLOUT)
        for fd in wake:
            poller.register(fd, select.POLLIN)
        for fd, _ in poller.poll(max(0, math.ceil(timeout * 1000))):
            if fd in writers:
                writers[fd].flush()
            elif fd in readers:
                readers[fd].receive(messages)

    def stop(self, slots: Iterable[Slot], graceful: bool = True, timeout: float = 10.0) -> None:
        """End the given slots' workers and leave them ``down``, unscheduled.

        Graceful: each is sent the ``None`` sentinel — it finishes what it was
        sent first — and gets ``timeout`` seconds before it is killed;
        meanwhile outboxes drain and results are read (the next ``poll``
        returns them).  Otherwise they are killed outright (the error path,
        where waiting for in-flight work could block forever) — and so is,
        either way, a worker still ``starting``: owners dispatch to ``ready``
        slots only, so it holds no work and the sentinel would only be read
        once its whole boot has been waited out.
        """
        live = [slot for slot in slots if slot.process is not None]
        for slot in live:
            booting = slot.state == "starting"
            slot.state, slot.down_until = "down", None
            if booting or not graceful:
                slot.process.kill()
            elif slot.process.is_alive():
                self.send(slot, None)
        deadline = time.monotonic() + timeout
        waiting = live
        while True:
            waiting = [slot for slot in waiting if slot.process.is_alive()]
            remaining = deadline - time.monotonic()
            if not waiting or remaining <= 0:
                break
            sentinels = [slot.process.sentinel for slot in waiting]
            self._exchange(remaining, (), self._held, wake=sentinels)
        for slot in live:
            if slot.process.is_alive():  # pragma: no cover - stuck worker
                slot.process.kill()
            slot.process.join(timeout=5)

    def close(self) -> None:
        """Close every channel, once the workers are stopped."""
        for slot in self.slots:
            if slot.channel is not None:
                slot.channel.close()
            slot.channel = None
        self._held = []

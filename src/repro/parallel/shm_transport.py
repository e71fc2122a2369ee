"""Per-worker shared-memory arenas for the serving pool's data plane.

Shipping a request batch and its probability matrix *through* a worker's
queues means pickling the rows, a kernel-side pipe copy and an unpickle — and
the same trip back.  For large batches that is the dominant serving cost.

:class:`ShmArena` takes the tensor bytes off the queues.  Each serving worker
owns one POSIX shared-memory segment (created through the
:mod:`repro.parallel.shared_data` publish/attach machinery) laid out as two
regions::

    [0, request_bytes)                       request ring  (dispatcher writes)
    [request_bytes, request_bytes+result_bytes)  result ring (worker writes)

The dispatcher copies a request's rows **once** into the request ring; the
worker maps the same segment, runs ``predict_proba`` directly on a zero-copy
view of those rows and writes the probabilities into a result region the
dispatcher reserved for it; the collector copies them out — the client gets
an ordinary owned array — and frees both regions with the reply.  The queues
then carry only references (offset, shape, dtype) — about a hundred bytes
whatever the batch size.  A request the rings cannot place right now simply
travels inline in the same message (see :mod:`repro.parallel.serving`).

Single-producer / single-consumer, lock-free across processes
-------------------------------------------------------------

Each arena has exactly one writer per region on each side of the process
boundary: the dispatcher thread is the only writer of the request region and
the worker process is the only writer of the result region.  Cross-process
visibility is sequenced by the queues (a reference is enqueued only after its
bytes are fully written), so the shared memory itself needs no locks — the
worker never blocks the dispatcher and vice versa.  The parent-side
*bookkeeping* (which byte ranges are in flight) is guarded by an ordinary
``threading.Lock`` inside :class:`_RegionAllocator`, and one more in the arena
keeps a copy in or out from overlapping :meth:`ShmArena.retire`; no worker
ever touches either, so a SIGKILLed worker cannot leave them held.

Lifetime
--------

An arena lives as long as its worker.  A worker killed mid-slot-write
corrupts nothing the parent trusts: the reply for that dispatch never
arrives, the supervisor fails the in-flight futures on death, and the respawn
path **retires** the whole arena — name unlinked, mapping closed, in one step,
since nothing outside it ever holds a view — and hands the successor a fresh
one; no allocator state survives into the new generation.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.parallel.shared_data import create_segment

#: Every region handed out is aligned to this many bytes so numpy views onto
#: the arena start on cache-line boundaries regardless of request dtype.
ALIGNMENT = 64

#: Worst-case element width the result reservation assumes (float64 — the
#: widest dtype the prediction paths produce).
RESULT_ITEMSIZE = 8


def _align(nbytes: int) -> int:
    return (int(nbytes) + ALIGNMENT - 1) & ~(ALIGNMENT - 1)


@dataclass(frozen=True)
class ArenaMeta:
    """Everything a worker needs to attach its arena (tiny and picklable)."""

    name: str
    request_bytes: int
    result_bytes: int
    generation: int


class _RegionAllocator:
    """First-fit free-list allocator over ``[base, base + capacity)``.

    Regions are allocated per *request* (one for its rows, one for its
    result), so the call rate is low; a plain interval free list with
    neighbour coalescing is plenty.  The dispatcher allocates and the
    collector frees, hence the lock.
    """

    def __init__(self, base: int, capacity: int):
        self.base = int(base)
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._free: List[Tuple[int, int]] = [(self.base, self.capacity)]
        self._allocated: Dict[int, int] = {}

    def alloc(self, nbytes: int) -> Optional[int]:
        """Reserve an aligned region; ``None`` when nothing fits (the caller
        sends that entry inline)."""
        need = _align(max(1, nbytes))
        with self._lock:
            for index, (offset, size) in enumerate(self._free):
                if size < need:
                    continue
                if size == need:
                    self._free.pop(index)
                else:
                    self._free[index] = (offset + need, size - need)
                self._allocated[offset] = need
                return offset
        return None

    def free(self, offset: Optional[int]) -> bool:
        """Release a region, coalescing with free neighbours.  Unknown
        offsets are ignored: ``None`` (that half of the entry travelled
        inline), a double free, a stale reference from a pre-respawn worker
        generation — none may corrupt the book-keeping."""
        with self._lock:
            size = self._allocated.pop(offset, None)
            if size is None:
                return False
            start, end = offset, offset + size
            merged: List[Tuple[int, int]] = []
            inserted = False
            for free_offset, free_size in self._free:
                if free_offset + free_size == start:
                    start = free_offset
                elif free_offset == end:
                    end = free_offset + free_size
                else:
                    if not inserted and free_offset > end:
                        merged.append((start, end - start))
                        inserted = True
                    merged.append((free_offset, free_size))
            if not inserted:
                merged.append((start, end - start))
            merged.sort()
            self._free = merged
            return True

    @property
    def used_bytes(self) -> int:
        with self._lock:
            return sum(self._allocated.values())

    @property
    def inflight_regions(self) -> int:
        with self._lock:
            return len(self._allocated)


class ShmArena:
    """Parent-side handle of one worker's request/result arena.

    Sized at pool start from the dispatch envelope: ``slots`` concurrent
    dispatches of up to ``max_batch`` rows each.  A single oversized request
    (rows > ``max_batch``) simply takes several slots' worth of contiguous
    bytes — byte-granularity allocation needs no notion of a slot.
    """

    def __init__(
        self,
        worker_id: int,
        max_batch: int,
        feature_size: int,
        num_classes: int,
        slots: int = 4,
        generation: int = 0,
        request_itemsize: int = 8,
    ):
        if slots < 1:
            raise ValueError("arena needs at least one slot")
        slot_request = _align(max_batch * feature_size * request_itemsize)
        slot_result = _align(max_batch * num_classes * RESULT_ITEMSIZE)
        # Per-request alignment padding can eat into a nominally exact fit;
        # one extra aligned unit per slot keeps "slots × max_batch rows"
        # honestly representable.
        self.request_bytes = slots * (slot_request + ALIGNMENT)
        self.result_bytes = slots * (slot_result + ALIGNMENT)
        self.worker_id = int(worker_id)
        self.slots = int(slots)
        self.generation = int(generation)
        self._segment = create_segment(
            self.request_bytes + self.result_bytes,
            tag=f"arena-w{worker_id}-g{generation}",
        )
        self._requests = _RegionAllocator(0, self.request_bytes)
        self._results = _RegionAllocator(self.request_bytes, self.result_bytes)
        # Held across every copy into or out of the mapping, and by retire():
        # the mapping is never closed under a view of it.
        self._lock = threading.Lock()
        self._retired = False

    # ----------------------------------------------------------- descriptors
    @property
    def meta(self) -> ArenaMeta:
        return ArenaMeta(
            name=self._segment.name,
            request_bytes=self.request_bytes,
            result_bytes=self.result_bytes,
            generation=self.generation,
        )

    @property
    def total_bytes(self) -> int:
        return self.request_bytes + self.result_bytes

    def stats(self) -> Dict[str, object]:
        """Occupancy snapshot for ``/info`` (and tests)."""
        return {
            "generation": self.generation,
            "slots": self.slots,
            "total_bytes": self.total_bytes,
            "request_capacity_bytes": self.request_bytes,
            "request_used_bytes": self._requests.used_bytes,
            "result_capacity_bytes": self.result_bytes,
            "result_used_bytes": self._results.used_bytes,
            "inflight_dispatches": self._requests.inflight_regions,
        }

    # ------------------------------------------------------------ dispatcher
    def write_request(self, array: np.ndarray) -> Optional[int]:
        """Reserve a request region and copy one request's rows into it — the
        single copy the arena costs on the inbound path.  Returns the
        region's offset, or ``None`` when nothing fits (or the arena is
        retired): those rows travel inline."""
        with self._lock:
            if self._retired:
                return None
            offset = self._requests.alloc(array.nbytes)
            if offset is not None:
                view = np.ndarray(
                    array.shape, dtype=array.dtype, buffer=self._segment.buf, offset=offset
                )
                np.copyto(view, array, casting="no")
                del view
            return offset

    def alloc_result(self, nbytes: int) -> Optional[int]:
        """Reserve a result region for the worker to write; ``None`` when
        nothing fits (or the arena is retired): that reply travels inline."""
        return None if self._retired else self._results.alloc(nbytes)

    # -------------------------------------------------------------- collector
    def read_result(self, offset: int, shape: Tuple[int, ...], dtype: str) -> np.ndarray:
        """Copy a worker-written result out of its region: the caller owns
        the returned array, and the region can be freed at once."""
        with self._lock:
            if self._retired:
                raise RuntimeError("arena retired")
            return np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=self._segment.buf, offset=offset
            ).copy()

    def free_request(self, offset: Optional[int]) -> bool:
        return self._requests.free(offset)

    def free_result(self, offset: Optional[int]) -> bool:
        return self._results.free(offset)

    # -------------------------------------------------------------- lifecycle
    def retire(self) -> None:
        """Tear the arena down with its worker: unlink the ``/dev/shm`` name
        and close the mapping.  Idempotent; nothing is placed or read
        afterwards."""
        with self._lock:
            if self._retired:
                return
            self._retired = True
            try:
                self._segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
            self._segment.close()

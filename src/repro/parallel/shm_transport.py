"""Per-worker shared-memory arenas for the serving pool's request rows.

Shipping a request batch *through* a worker's queue means pickling the rows,
a kernel-side pipe copy and an unpickle.  :class:`ShmArena` takes those bytes
off the queue: each serving worker owns one POSIX shared-memory segment
(created through the :mod:`repro.parallel.shared_data` machinery), the
dispatcher copies a request's rows into it **once**, and the worker runs
``predict_proba`` directly on a zero-copy view of them.  The queue carries a
reference ``(offset, shape, dtype)`` — about a hundred bytes whatever the
batch size.  Rows the arena cannot place right now travel inline in the same
message, and probabilities always come back inline as raw bytes (see
:mod:`repro.parallel.serving`).

A region belongs to its request: the dispatcher reserves it, the pool frees
it when it resolves that request.  The shared memory needs no lock — the
dispatcher is its only writer and the queue sequences the worker's read
after the write.  The parent-side *bookkeeping* (which byte ranges are in
flight) is guarded by an ordinary ``threading.Lock`` inside
:class:`_RegionAllocator`, and one more in the arena keeps a copy in from
overlapping :meth:`ShmArena.retire`; no worker ever touches either, so a
SIGKILLed worker cannot leave them held.

An arena lives as long as its worker.  A worker killed with rows in flight
corrupts nothing the parent trusts: its requests are failed on death, and the
respawn **retires** the whole arena — name unlinked, mapping closed, in one
step — and hands the successor a fresh one; no allocator state survives.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.parallel.shared_data import create_segment

#: Every region handed out is aligned to this many bytes so numpy views onto
#: the arena start on cache-line boundaries regardless of request dtype.
ALIGNMENT = 64

#: Arena capacity in ``max_batch``-row dispatches.
SLOTS = 4

#: Widest row element the arena is sized for (float64).
ROW_ITEMSIZE = 8


def _align(nbytes: int) -> int:
    return (int(nbytes) + ALIGNMENT - 1) & ~(ALIGNMENT - 1)


class _RegionAllocator:
    """First-fit free-list allocator over ``[base, base + capacity)``.

    One region per request, so the call rate is low; a plain interval free
    list with neighbour coalescing is plenty.  The dispatcher allocates and
    whichever thread resolves the request frees, hence the lock.
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
        offsets are ignored: ``None`` (the rows travelled inline), a double
        free — neither may corrupt the book-keeping."""
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
    """Parent-side handle of one worker's request-row arena.

    Sized at spawn for :data:`SLOTS` concurrent dispatches of up to
    ``max_batch`` rows each.  A single request larger than ``max_batch`` rows
    simply takes several slots' worth of contiguous bytes — byte-granularity
    allocation needs no notion of a slot.
    """

    def __init__(self, worker_id: int, max_batch: int, feature_size: int):
        # Per-request alignment padding can eat into a nominally exact fit;
        # one extra aligned unit per slot keeps "SLOTS x max_batch rows"
        # honestly representable.
        self.capacity = SLOTS * (_align(max_batch * feature_size * ROW_ITEMSIZE) + ALIGNMENT)
        self._segment = create_segment(self.capacity, tag=f"arena-w{worker_id}")
        self.name = self._segment.name
        self._regions = _RegionAllocator(0, self.capacity)
        # Held across every copy into the mapping, and by retire(): the
        # mapping is never closed under a view of it.
        self._lock = threading.Lock()
        self._retired = False

    def stats(self) -> Dict[str, int]:
        """Occupancy snapshot for ``/info`` (and tests)."""
        return {
            "request_capacity_bytes": self.capacity,
            "request_used_bytes": self._regions.used_bytes,
            "inflight_dispatches": self._regions.inflight_regions,
        }

    def write_request(self, array: np.ndarray) -> Optional[int]:
        """Reserve a region and copy one request's rows into it — the single
        copy the arena costs.  Returns the region's offset, or ``None`` when
        nothing fits (or the arena is retired): those rows travel inline."""
        with self._lock:
            if self._retired:
                return None
            offset = self._regions.alloc(array.nbytes)
            if offset is not None:
                view = np.ndarray(
                    array.shape, dtype=array.dtype, buffer=self._segment.buf, offset=offset
                )
                np.copyto(view, array, casting="no")
                del view
            return offset

    def free_request(self, offset: Optional[int]) -> bool:
        return self._regions.free(offset)

    def retire(self) -> None:
        """Tear the arena down with its worker: unlink the ``/dev/shm`` name
        and close the mapping.  Idempotent; nothing is placed afterwards."""
        with self._lock:
            if self._retired:
                return
            self._retired = True
            try:
                self._segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
            self._segment.close()

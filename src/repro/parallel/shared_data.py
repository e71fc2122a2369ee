"""Zero-copy dataset publication across processes.

:class:`SharedDataset` copies a set of numpy arrays into POSIX shared memory
**once** (on the publishing side); every worker process then attaches the same
segments and builds plain ``np.ndarray`` views onto them — no per-worker copy
of the training set, no pickling of multi-hundred-megabyte tensors through
pipes.

Lifecycle (create / attach, with tracked cleanup)
-------------------------------------------------

* The **publisher** (the parent process) owns the segments: it creates them,
  hands the lightweight :class:`SharedArrayMeta` descriptors to workers, and
  is the only party allowed to ``unlink`` (destroy) them — after all workers
  have shut down.
* Every **attacher** (worker) holds a handle per segment and must ``close``
  its mapping on exit; :class:`AttachedDataset` registers an ``atexit`` hook
  so worker death cannot leak mappings.  Attachers deregister the segments
  from their ``multiprocessing.resource_tracker`` so a worker exiting early
  does not tear the segment out from under its siblings (the CPython tracker
  would otherwise unlink names it believes were leaked).

After ``SharedDataset.close()`` the segments are gone from ``/dev/shm`` — the
test suite asserts no residue survives a training run.
"""

from __future__ import annotations

import atexit
import os
import secrets
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Tuple

import numpy as np

from repro.utils.logging import get_logger

logger = get_logger("parallel.shared_data")

#: Prefix of every segment repro creates; tests sweep /dev/shm for leftovers.
SEGMENT_PREFIX = "repro-shm"


@dataclass(frozen=True)
class SharedArrayMeta:
    """Everything a worker needs to re-materialise a published array."""

    name: str
    shape: Tuple[int, ...]
    dtype: str


@contextmanager
def _attach_without_tracking():
    """Suppress resource-tracker registration while *attaching* a segment.

    ``SharedMemory(name=...)`` registers the segment with the attaching
    process's resource tracker (until Python 3.13's ``track=False``), which
    is wrong for non-owners: a tracker that outlives its attacher "cleans
    up" by unlinking the name — destroying the publisher's segment — or, for
    spawn children sharing the publisher's tracker, produces spurious
    KeyError noise at shutdown.  Only the publisher's own creation-time
    registration should stand.
    """
    try:
        from multiprocessing import resource_tracker
    except ImportError:  # pragma: no cover - always available on CPython
        yield
        return
    original = resource_tracker.register

    def register(name, rtype):
        if rtype != "shared_memory":  # pragma: no cover - not hit in practice
            original(name, rtype)

    resource_tracker.register = register
    try:
        yield
    finally:
        resource_tracker.register = original


class SharedDataset:
    """Publisher-side handle: arrays copied once into named shared memory."""

    def __init__(self, arrays: Dict[str, np.ndarray]):
        if not arrays:
            raise ValueError("SharedDataset needs at least one array")
        token = f"{SEGMENT_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"
        self._segments: List[shared_memory.SharedMemory] = []
        self._meta: Dict[str, SharedArrayMeta] = {}
        self._closed = False
        try:
            for key, value in arrays.items():
                array = np.ascontiguousarray(value)
                segment = shared_memory.SharedMemory(
                    create=True, size=max(1, array.nbytes), name=f"{token}-{key}"
                )
                view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
                view[...] = array
                self._segments.append(segment)
                self._meta[key] = SharedArrayMeta(
                    name=segment.name, shape=tuple(array.shape), dtype=str(array.dtype)
                )
        except Exception:
            self.close()
            raise
        self._atexit = self.close
        atexit.register(self._atexit)
        logger.debug("published %d shared arrays under %s-*", len(self._meta), token)

    @property
    def meta(self) -> Dict[str, SharedArrayMeta]:
        """Descriptors to ship to workers (tiny and picklable)."""
        return dict(self._meta)

    @property
    def total_bytes(self) -> int:
        return sum(segment.size for segment in self._segments)

    def view(self, key: str) -> np.ndarray:
        """Publisher-side view of a published array (shares the segment)."""
        meta = self._meta[key]
        segment = next(s for s in self._segments if s.name == meta.name)
        return np.ndarray(meta.shape, dtype=np.dtype(meta.dtype), buffer=segment.buf)

    def close(self) -> None:
        """Destroy the segments (close the mapping, then unlink the names).

        Idempotent.  Must only run after every attacher has closed — call it
        once the worker pool has shut down.
        """
        if self._closed:
            return
        self._closed = True
        for segment in self._segments:
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
        self._segments = []
        if getattr(self, "_atexit", None) is not None:
            try:
                atexit.unregister(self._atexit)
            except Exception:  # pragma: no cover
                pass

    def __enter__(self) -> "SharedDataset":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort safety net
        try:
            self.close()
        except Exception:
            pass


class AttachedDataset:
    """Worker-side handle: zero-copy views onto a published dataset."""

    def __init__(self, meta: Dict[str, SharedArrayMeta]):
        self._segments: List[shared_memory.SharedMemory] = []
        self.views: Dict[str, np.ndarray] = {}
        self._closed = False
        for key, entry in meta.items():
            with _attach_without_tracking():
                segment = shared_memory.SharedMemory(name=entry.name)
            self._segments.append(segment)
            self.views[key] = np.ndarray(
                entry.shape, dtype=np.dtype(entry.dtype), buffer=segment.buf
            )
        self._atexit = self.close
        atexit.register(self._atexit)

    def __getitem__(self, key: str) -> np.ndarray:
        return self.views[key]

    def close(self) -> None:
        """Drop the mappings (does **not** unlink — the publisher owns that)."""
        if self._closed:
            return
        self._closed = True
        self.views = {}
        for segment in self._segments:
            try:
                segment.close()
            except Exception:  # pragma: no cover
                pass
        self._segments = []
        try:
            atexit.unregister(self._atexit)
        except Exception:  # pragma: no cover
            pass

    def __enter__(self) -> "AttachedDataset":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

"""The training set, written once into one anonymous memory file.

:class:`SharedDataset` copies a set of numpy arrays into a single
``os.memfd_create`` file, each array at a 64-byte-aligned offset.  The
executor hands the file's descriptor to every worker it starts, respawns
included (``SlotTable``'s inherited fds), and each worker maps it read-only
with :func:`attach`: plain ``np.ndarray`` views onto the one copy, no
per-worker copy and nothing pickled.  The file has no name, so nothing
appears in ``/dev/shm`` and nothing needs unlinking: the kernel frees it
with the last descriptor and mapping, a SIGKILLed trainer's included.
"""

from __future__ import annotations

import mmap
import os
from typing import Dict, Tuple

import numpy as np

#: Every array starts at a multiple of this many bytes (a cache line).
ALIGN = 64

#: ``{key: (offset, shape, dtype)}``: where each array lies in the file.
Layout = Dict[str, Tuple[int, Tuple[int, ...], str]]


class SharedDataset:
    """Publisher side: the arrays, copied once into a memfd (``fd``), and
    their ``layout``.  :meth:`close` drops the publisher's descriptor."""

    def __init__(self, arrays: Dict[str, np.ndarray]):
        if not arrays:
            raise ValueError("SharedDataset needs at least one array")
        self.layout: Layout = {}
        self.fd = os.memfd_create("repro-data", os.MFD_CLOEXEC)
        try:
            offset = 0
            for key, value in arrays.items():
                array = np.ascontiguousarray(value)
                self.layout[key] = (offset, array.shape, array.dtype.str)
                data, at = memoryview(array.reshape(-1).view(np.uint8)), offset
                while data:
                    written = os.pwrite(self.fd, data, at)
                    data, at = data[written:], at + written
                offset += -(-array.nbytes // ALIGN) * ALIGN
            self.total_bytes = max(1, offset)
            os.ftruncate(self.fd, self.total_bytes)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Close the publisher's descriptor (idempotent)."""
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None


def attach(fd: int, layout: Layout) -> Dict[str, np.ndarray]:
    """Read-only, zero-copy views of a published data set: one mapping of the
    whole file, and each array an ``np.frombuffer`` view onto it."""
    mapping = mmap.mmap(fd, os.fstat(fd).st_size, prot=mmap.PROT_READ)
    return {
        key: np.frombuffer(
            mapping, dtype=np.dtype(dtype), count=int(np.prod(shape)), offset=offset
        ).reshape(shape)
        for key, (offset, shape, dtype) in layout.items()
    }

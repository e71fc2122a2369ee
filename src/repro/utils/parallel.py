"""BLAS thread-pool control for multi-process execution.

When ``repro.parallel`` fans ensemble-member training out over N worker
processes, every worker's BLAS library (OpenBLAS / MKL / BLIS behind numpy)
would by default spin up one thread per core — N workers x C BLAS threads on a
C-core machine oversubscribes the CPU badly and can make the "parallel" run
slower than the serial one.  The fix is to cap each worker's BLAS pool so that
``workers x blas_threads_per_worker <= cores``.

BLAS libraries size their thread pools from environment variables **read at
library load time**, so the only reliable, dependency-free cap is to set the
environment *before* the worker interpreter imports numpy.  With the ``spawn``
start method the child inherits the parent's environment at exec time, which
is exactly what :func:`blas_thread_limit` exploits: the executor wraps worker
start-up in the context manager, the children import numpy under the capped
environment, and the parent's own (already initialised) BLAS pool is left
untouched.

:func:`apply_blas_thread_cap` is the best-effort in-process complement (used
inside already-running workers): it goes through ``threadpoolctl`` when that
package happens to be installed and silently degrades to an env-var-only cap
(affecting grandchildren, not the current process) otherwise.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

#: Environment variables honoured by the BLAS/OpenMP implementations numpy
#: commonly links against.  Setting all of them is idempotent and harmless.
BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


def cpu_count() -> int:
    """Usable CPU count (respects the process affinity mask when set)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def lane_threads(lanes: int) -> int:
    """The threads one of ``lanes`` serving lanes may run a forward on: its
    share of the usable cores, at least one."""
    return max(1, cpu_count() // lanes)


@contextmanager
def blas_thread_limit(threads: int) -> Iterator[None]:
    """Cap the BLAS thread pool of *subsequently spawned* processes.

    Sets every variable in :data:`BLAS_ENV_VARS` to ``threads`` for the
    duration of the block and restores the previous values afterwards.
    Processes started (with the ``spawn`` method) inside the block inherit the
    capped environment before their numpy import, which is the only point at
    which the cap is guaranteed to take effect.  The calling process's own
    BLAS pool is not resized.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    saved: Dict[str, Optional[str]] = {var: os.environ.get(var) for var in BLAS_ENV_VARS}
    for var in BLAS_ENV_VARS:
        os.environ[var] = str(int(threads))
    try:
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def apply_blas_thread_cap(threads: int) -> bool:
    """Best-effort cap of the *current* process's BLAS pool.

    Returns ``True`` when a runtime cap was actually applied (requires the
    optional ``threadpoolctl`` package).  Without it, the env variables are
    still exported so any further child processes inherit the cap; the
    current process's already-initialised pool keeps its size — which is why
    :class:`~repro.parallel.executor.ParallelExecutor` additionally sets the
    environment *before* spawning (see :func:`blas_thread_limit`).
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    for var in BLAS_ENV_VARS:
        os.environ[var] = str(int(threads))
    try:  # pragma: no cover - exercised only where threadpoolctl exists
        import threadpoolctl

        threadpoolctl.threadpool_limits(limits=int(threads))
        return True
    except ImportError:
        return False

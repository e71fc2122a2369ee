"""Process-based parallel execution layer for training and serving.

Two halves share the same ``spawn``-safe multiprocessing substrate and one
supervision core (:mod:`repro.parallel.supervision`: a worker's life — spawn
on fresh private queues, ready, evict, bounded backoff, respawn, shutdown —
is written once, and driven by each owner from one single-threaded loop;
:mod:`repro.parallel.worker` holds the one worker loop):

* **Training** — :class:`ParallelExecutor` runs :class:`MemberTask` fits on
  one persistent pool of ``workers`` lanes per run — lane 0 a thread of the
  calling process, the rest spawned workers — highest priority first,
  accepting the follow-up tasks a finished fit unblocks (the trainers'
  dependency graph).
  The training set is published once through POSIX shared memory (:class:`SharedDataset`;
  workers get zero-copy ``np.ndarray`` views), every worker's BLAS pool is
  capped before its numpy import
  (:func:`repro.utils.parallel.blas_thread_limit`), and the pool returns the
  trained networks next to the run's critical-path makespan.  The
  ensemble trainers build the same tasks whatever ``TrainingConfig.workers``
  says; ``workers=N`` only moves their execution onto this pool.
* **Serving** — :class:`PoolPredictor` answers concurrent predict requests
  from N worker processes that each warm-load one ``EnsemblePredictor`` from
  a shared artifact directory.  One loop thread collects the answers,
  supervises the workers (dead or wedged ones are evicted and respawned under
  bounded backoff) and dispatches coalesced micro-batches to the
  least-loaded worker; a hot-swap reloads each worker's predictor in place.
  Exposed over HTTP by ``python -m repro serve``
  (:func:`repro.parallel.server.run_server`), including Prometheus
  ``GET /metrics`` and a degrading ``GET /healthz``.  Request rows travel
  inline on each worker's queue and results come back inline as raw bytes;
  serving makes no shared-memory segment.
"""

from repro.parallel.executor import MemberTask, ParallelExecutor
from repro.parallel.shared_data import AttachedDataset, SharedArrayMeta, SharedDataset
from repro.parallel.serving import PoolPredictor

__all__ = [
    "ParallelExecutor",
    "SharedDataset",
    "AttachedDataset",
    "SharedArrayMeta",
    "MemberTask",
    "PoolPredictor",
]

"""Process-based parallel execution layer for training and serving.

Two halves — and the fleet front's local consumers — share one supervision
core (:mod:`repro.parallel.supervision`, the one code in ``repro`` that
starts a process: a worker's life — a plain child on fresh private pipes,
ready, evict, bounded backoff, respawn, shutdown — is written once and
driven by each owner from one loop that never blocks on a pipe;
:mod:`repro.parallel.worker` holds the one worker loop):

* **Training** — :class:`ParallelExecutor` runs
  :class:`~repro.core.trainer.MemberTask` fits on
  one persistent pool of ``workers`` lanes per run — lane 0 a thread of the
  calling process, the rest spawned workers — highest priority first,
  accepting the follow-up tasks a finished fit unblocks (the trainers'
  dependency graph).
  The training set is written once into one anonymous memory file (a memfd,
  :mod:`repro.parallel.shared_data`) that every worker inherits and maps
  read-only as zero-copy ``np.ndarray`` views, every worker's BLAS pool is
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
  inline on each worker's request pipe and results come back inline as raw
  bytes.

Neither half makes a ``/dev/shm`` segment or starts a resource-tracker
process: a pool's only children are its workers.
"""

from repro.parallel.executor import ParallelExecutor
from repro.parallel.serving import PoolPredictor

__all__ = [
    "ParallelExecutor",
    "PoolPredictor",
]

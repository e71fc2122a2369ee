"""Serving facade for trained ensembles.

:class:`EnsemblePredictor` loads an ensemble artifact once and answers warm,
batched ``predict`` / ``predict_proba`` calls.  It is the deployment-side
counterpart of :func:`repro.api.run_experiment`: strict about inputs (shape
and dtype are validated before any member runs) and explicit about the
combination method.  Loading lowers every member the inference plan covers
(:mod:`repro.nn.lowering`: BatchNorm folded, one GEMM per layer for the whole
batch, one scratch) and serves through that; the layer graph's
:meth:`~repro.core.ensemble.Ensemble.predict_proba_all` stays the numerical
reference and serves the members the plan does not cover, bit for bit.
A batch of more than :data:`~repro.nn.lowering.SHARD_ROWS` rows runs as
shards on the predictor's ``inference_threads`` threads (its lane's share of
the cores; all of them for a predictor nobody divides): the shards depend on
the row count alone, so the bits do not depend on the thread count.
``close()`` stops the helper threads.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.api.artifacts import load_ensemble_run, read_manifest
from repro.core.artifact_store import resolve_artifact
from repro.core.ensemble import (
    COMBINATION_METHODS,
    Ensemble,
    resolve_combination_method,
)
from repro.core.trainer import EnsembleTrainingRun
from repro.utils.logging import get_logger
from repro.utils.parallel import lane_threads

if TYPE_CHECKING:  # pragma: no cover
    from repro.nn.lowering import ShardThreads

logger = get_logger("api.predictor")


def validate_batch(x: np.ndarray, input_shape: Tuple[int, ...]) -> np.ndarray:
    """Validate a predict input against the ensemble's per-sample shape.

    Accepts a batch ``(batch, *input_shape)`` or a single un-batched sample
    ``input_shape`` (a batch axis is added); rejects empty batches,
    non-numeric dtypes and values that are not finite (``NaN`` and the
    infinities have no answer, and no JSON spelling either).  Shared by
    :class:`EnsemblePredictor` and the multi-process
    :class:`~repro.parallel.serving.PoolPredictor`, which validates in the
    dispatching process so malformed requests fail fast without a worker
    round-trip.
    """
    if not isinstance(x, np.ndarray):
        x = np.asarray(x)
    if not (np.issubdtype(x.dtype, np.floating) or np.issubdtype(x.dtype, np.integer)):
        raise TypeError(
            f"input dtype must be numeric (floating or integer), got {x.dtype}"
        )
    expected = tuple(input_shape)
    if x.ndim == len(expected):
        # A single un-batched sample: accept and add the batch axis.
        if tuple(x.shape) != expected:
            raise ValueError(
                f"input shape {tuple(x.shape)} does not match the ensemble's "
                f"per-sample input shape {expected}"
            )
        x = x[None, ...]
    elif x.ndim != len(expected) + 1 or tuple(x.shape[1:]) != expected:
        raise ValueError(
            f"input shape {tuple(x.shape)} does not match (batch, *{expected})"
        )
    if x.shape[0] == 0:
        raise ValueError("cannot predict on an empty batch")
    if not np.isfinite(x).all():
        raise ValueError("input values must be finite (no NaN or infinity)")
    return x


class _Served:
    """One generation as a request sees it: the ensemble, the plan its lowered
    members run through and the graph of the members the plan leaves.  Built
    whole, never modified; a predictor holds one and a request reads it once,
    so :meth:`EnsemblePredictor.reload` swaps generations in one assignment.
    """

    def __init__(self, ensemble: Ensemble):
        # Imported here, not with the module: `repro train` and its spawned
        # workers import this module and never lower anything.
        from repro.nn.lowering import InferencePlan

        self.ensemble = ensemble
        members = ensemble.members
        self.input_shape: Tuple[int, ...] = tuple(members[0].model.spec.input_shape)
        # The plan is a snapshot of the members' weights as they are now; the
        # members it does not cover stay on the graph.
        self.plan = InferencePlan([member.model for member in members])
        self.rest = [i for i in range(len(members)) if i not in self.plan.lowered]
        self.graph = (
            Ensemble([members[i] for i in self.rest], ensemble.num_classes) if self.rest else None
        )
        # The dtype the graph stacks these members' probabilities in.
        self.dtype = np.result_type(
            *(getattr(member.model, "dtype", None) or np.float64 for member in members)
        )

    def member_probabilities(
        self, x: np.ndarray, batch_size: int, threads: ShardThreads
    ) -> np.ndarray:
        """``(members, samples, classes)``: the lowered members through the
        plan, its shards on ``threads``, the others through the graph."""
        if not self.plan.lowered:
            return self.ensemble.predict_proba_all(x, batch_size=batch_size)
        shape = (len(self.ensemble), x.shape[0], self.ensemble.num_classes)
        out = np.empty(shape, dtype=self.dtype)
        self.plan.probabilities(x, batch_size, out, threads)
        if self.graph is not None:
            out[self.rest] = self.graph.predict_proba_all(x, batch_size=batch_size)
        return out


class EnsemblePredictor:
    """Warm, input-validated serving for a trained :class:`Ensemble`.

    Construct with :meth:`load` (from a saved artifact) or :meth:`from_run`
    (from an in-memory training run).  All members are held in memory; every
    ``predict`` call is a single batched pass over the input shared by all
    members, its shards on up to ``threads`` threads (default: every usable
    core).  ``close()`` it — or use it as a context manager — to stop the
    helper threads.
    """

    def __init__(
        self,
        ensemble: Ensemble,
        method: str = "average",
        batch_size: int = 256,
        metadata: Optional[Dict[str, Any]] = None,
        threads: Optional[int] = None,
    ):
        if method not in COMBINATION_METHODS:
            raise ValueError(
                f"unknown combination method {method!r}; valid choices: "
                + ", ".join(repr(m) for m in COMBINATION_METHODS)
            )
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        from repro.nn.lowering import ShardThreads  # as in _Served

        self._served = _Served(ensemble)
        self._threads = ShardThreads(lane_threads(1) if threads is None else threads)
        self.method = method
        self.batch_size = int(batch_size)
        self.metadata = dict(metadata or {})
        # Which store generation is loaded; bare directories (and in-memory
        # runs) are implicitly generation 0.  The path the caller handed to
        # load() is kept so reload() re-resolves CURRENT from the same root.
        self.generation = 0
        self.source_path: Optional[Path] = None

    @property
    def ensemble(self) -> Ensemble:
        return self._served.ensemble

    @property
    def input_shape(self) -> Tuple[int, ...]:
        return self._served.input_shape

    @property
    def num_classes(self) -> int:
        return self._served.ensemble.num_classes

    @property
    def lowered(self) -> Tuple[int, ...]:
        """Positions of the members served through the inference plan."""
        return self._served.plan.lowered

    @property
    def inference_threads(self) -> int:
        """Threads a batch's shards run on, the calling one included."""
        return self._threads.count

    # ------------------------------------------------------------- factories
    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        method: str = "average",
        batch_size: int = 256,
        warm: bool = True,
        generation: Optional[int] = None,
        threads: Optional[int] = None,
    ) -> "EnsemblePredictor":
        """Load an ensemble artifact directory saved by
        :func:`repro.api.save_ensemble_run`.

        ``warm=True`` (default) runs one zero-batch through every member so
        that what is built lazily (the plan's scratch, bound for a 1-row
        batch and rebound when a larger one arrives; the graph's conv
        workspaces for members it serves) exists before the first real
        request.

        ``path`` may be a bare artifact directory (implicit generation 0) or
        an :class:`~repro.core.artifact_store.ArtifactStore` root, in which
        case the promoted generation — or the explicitly requested
        ``generation`` — is loaded.  ``threads`` is as for the constructor.
        """
        resolved = resolve_artifact(path, generation=generation)
        manifest = read_manifest(resolved.path)
        run = load_ensemble_run(resolved.path, manifest=manifest)
        metadata = {
            "artifact": str(path),
            "approach": manifest["approach"],
            "dtype": manifest["dtype"],
            "repro_version": manifest.get("repro_version"),
            "ledger_summary": manifest.get("ledger_summary", {}),
        }
        if resolved.store is not None:
            # Store-layout extras only: bare directories keep their exact
            # pre-store info()/inspect output.
            metadata["generation"] = resolved.generation
            metadata["store_root"] = str(resolved.store.root)
        predictor = cls(
            run.ensemble,
            method=method,
            batch_size=batch_size,
            metadata=metadata,
            threads=threads,
        )
        predictor.generation = resolved.generation
        predictor.source_path = Path(path)
        if warm:
            predictor.warmup()
        logger.info(
            "loaded %s ensemble (%d members, %d lowered, generation %d) from %s",
            manifest["approach"],
            len(run.ensemble),
            len(predictor.lowered),
            resolved.generation,
            resolved.path,
        )
        return predictor

    def reload(
        self,
        path: Optional[Union[str, Path]] = None,
        generation: Optional[int] = None,
    ) -> int:
        """Swap the loaded ensemble in place and return the new generation.

        With no arguments the original artifact path is re-resolved — for a
        store root that means picking up whatever ``CURRENT`` now points at
        (the single-process analogue of ``PoolPredictor.swap``).  The call
        replaces the ensemble atomically from the caller's perspective: it
        either completes (new weights, lowered and warmed — exactly what a
        fresh :meth:`load` gives) or raises leaving the old ensemble serving.
        """
        source = self.source_path if path is None else Path(path)
        if source is None:
            raise ValueError(
                "this predictor was not loaded from disk; pass reload(path=...)"
            )
        # Loaded, lowered and warmed on the side: nothing of this predictor
        # changes before the new generation has answered a batch.
        fresh = type(self).load(
            source, method=self.method, batch_size=self.batch_size, generation=generation
        )
        # The one assignment a concurrent request can observe.
        self._served = fresh._served
        self.generation, self.source_path = fresh.generation, fresh.source_path
        self.metadata.update(fresh.metadata)
        return self.generation

    @classmethod
    def from_run(
        cls,
        run: EnsembleTrainingRun,
        method: str = "average",
        batch_size: int = 256,
    ) -> "EnsemblePredictor":
        """Serve an in-memory training run without going through disk."""
        return cls(
            run.ensemble,
            method=method,
            batch_size=batch_size,
            metadata={"approach": run.approach},
        )

    # --------------------------------------------------------------- serving
    def warmup(self) -> None:
        """Run a single dummy batch so every lazily built buffer exists."""
        dummy = np.zeros((1,) + self.input_shape, dtype=np.float32)
        self._served.member_probabilities(dummy, 1, self._threads)

    def predict_proba(
        self,
        x: np.ndarray,
        method: Optional[str] = None,
        batch_size: Optional[int] = None,
    ) -> np.ndarray:
        """Combined class probabilities, shape ``(samples, classes)``."""
        served = self._served  # read once: a reload() may land mid-request
        x = validate_batch(x, served.input_shape)
        method = resolve_combination_method(
            method,
            default=self.method,
            has_super_learner=served.ensemble.super_learner_weights is not None,
            subject="ensemble",
        )
        probs = served.member_probabilities(x, batch_size or self.batch_size, self._threads)
        return served.ensemble.combine(probs, method)

    def predict(
        self,
        x: np.ndarray,
        method: Optional[str] = None,
        batch_size: Optional[int] = None,
    ) -> np.ndarray:
        """Predicted class labels, shape ``(samples,)``."""
        return self.predict_proba(x, method=method, batch_size=batch_size).argmax(axis=1)

    def member_probabilities(self, x: np.ndarray, batch_size: Optional[int] = None) -> np.ndarray:
        """Raw per-member probabilities, shape ``(members, samples, classes)``."""
        served = self._served
        x = validate_batch(x, served.input_shape)
        return served.member_probabilities(x, batch_size or self.batch_size, self._threads)

    # ------------------------------------------------------------ inspection
    def info(self) -> Dict[str, Any]:
        """JSON-friendly description of the loaded ensemble (CLI ``inspect``)."""
        return {
            "num_members": len(self.ensemble),
            "num_classes": self.num_classes,
            "input_shape": list(self.input_shape),
            "method": self.method,
            "members": [
                {
                    "name": member.name,
                    "source": member.source,
                    "cluster_id": member.cluster_id,
                    "parameters": member.parameter_count,
                    "training_seconds": member.training_seconds,
                }
                for member in self.ensemble.members
            ],
            "super_learner": self.ensemble.super_learner_weights is not None,
            **{k: v for k, v in self.metadata.items() if v is not None},
        }

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Stop the helper threads (idempotent); the predictor still answers,
        every shard on the calling thread."""
        self._threads.close()

    def __enter__(self) -> "EnsemblePredictor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EnsemblePredictor(members={len(self.ensemble)}, "
            f"input_shape={self.input_shape}, method={self.method!r})"
        )

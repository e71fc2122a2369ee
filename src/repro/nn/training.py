"""Training loop, convergence criterion, and training records.

The paper trains every network with the *same* convergence criterion
(mini-batch SGD, batch normalisation, fixed learning rate) and reports
wall-clock training time.  :class:`Trainer` implements that loop for the
numpy substrate and records per-epoch statistics so the cost model and the
benchmark harness can reconstruct training-time and convergence curves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.nn.losses import Loss, SoftmaxCrossEntropy, get_loss
from repro.nn.metrics import accuracy
from repro.nn.model import Model
from repro.nn.optimizers import (
    ConstantSchedule,
    LearningRateSchedule,
    Optimizer,
    SGD,
)
from repro.obs.metrics import get_registry
from repro.utils.logging import get_logger
from repro.utils.rng import SeedLike, as_rng

logger = get_logger("nn.training")

# Per-epoch training telemetry (repro.obs).  Gauges carry the *last* epoch's
# figures per model; counters accumulate across every fit in the process.
# Updates happen once per epoch — far off the per-batch hot path — and are
# skipped entirely when the registry is disabled.
_metrics = get_registry()
_EPOCHS_TOTAL = _metrics.counter(
    "repro_training_epochs_total", "Training epochs completed in this process."
)
_SAMPLES_TOTAL = _metrics.counter(
    "repro_training_samples_total",
    "Training samples processed (one count per sample per epoch).",
)
_EPOCH_LOSS = _metrics.gauge(
    "repro_training_epoch_loss", "Mean training loss of the last completed epoch.", ("model",)
)
_EPOCH_ACCURACY = _metrics.gauge(
    "repro_training_epoch_accuracy",
    "Training accuracy of the last completed epoch.",
    ("model",),
)
_EPOCH_SECONDS = _metrics.gauge(
    "repro_training_epoch_seconds",
    "Wall-clock seconds of the last completed epoch.",
    ("model",),
)


@dataclass
class TrainingConfig:
    """Hyper-parameters of one training run.

    The defaults follow the paper's setup (§3 "Training setup"): SGD,
    mini-batches, learning rate 0.1, a shared convergence criterion.  The
    convergence criterion is a patience test on the training loss: training
    stops once the loss has not improved by more than ``convergence_tolerance``
    for ``convergence_patience`` consecutive epochs, or after ``max_epochs``.
    """

    max_epochs: int = 30
    batch_size: int = 256
    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0
    convergence_patience: int = 3
    convergence_tolerance: float = 1e-3
    min_epochs: int = 1
    shuffle: bool = True
    schedule: Optional[LearningRateSchedule] = None
    loss: str = "softmax_cross_entropy"
    # Number of lanes — fits running at a time — the *ensemble* trainers'
    # pool has (repro.parallel): the calling process fits on one of them, so
    # ``workers - 1`` processes are spawned.  1 = the serial in-process
    # path; the single-network Trainer below never forks.
    workers: int = 1
    # Fault tolerance of the parallel path (ignored when workers == 1): a
    # member task that exceeds ``task_timeout`` seconds on its lane is
    # treated as hung (a worker is SIGKILLed, evicted and respawned; the
    # caller's own lane is retired), and a failed task — worker crash, hang,
    # or an exception inside the fit — is retried up to ``max_task_retries``
    # times.  Retried tasks are bitwise identical to fault-free runs
    # (training is fully seeded).
    task_timeout: float = 900.0
    max_task_retries: int = 2

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")
        if self.min_epochs < 1 or self.min_epochs > self.max_epochs:
            raise ValueError("min_epochs must be in [1, max_epochs]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.convergence_patience < 1:
            raise ValueError("convergence_patience must be at least 1")
        if self.convergence_tolerance < 0:
            raise ValueError("convergence_tolerance must be non-negative")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive")
        if self.max_task_retries < 0:
            raise ValueError("max_task_retries must be non-negative")

    def scaled(self, epoch_fraction: float) -> "TrainingConfig":
        """A copy with the epoch budget scaled by ``epoch_fraction`` (used for
        the fine-tuning phase of hatched networks, which needs only a few
        tens of epochs according to the paper)."""
        if epoch_fraction <= 0:
            raise ValueError("epoch_fraction must be positive")
        scaled_epochs = max(1, int(round(self.max_epochs * epoch_fraction)))
        return TrainingConfig(
            max_epochs=scaled_epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
            convergence_patience=self.convergence_patience,
            convergence_tolerance=self.convergence_tolerance,
            min_epochs=min(self.min_epochs, scaled_epochs),
            shuffle=self.shuffle,
            schedule=self.schedule,
            loss=self.loss,
            workers=self.workers,
            task_timeout=self.task_timeout,
            max_task_retries=self.max_task_retries,
        )


@dataclass
class EpochRecord:
    """Statistics of one training epoch."""

    epoch: int
    train_loss: float
    train_accuracy: float
    learning_rate: float
    seconds: float
    val_loss: Optional[float] = None
    val_accuracy: Optional[float] = None

    def to_dict(self) -> dict:
        """JSON-compatible form (persisted in ensemble artifacts)."""
        return {
            "epoch": self.epoch,
            "train_loss": self.train_loss,
            "train_accuracy": self.train_accuracy,
            "learning_rate": self.learning_rate,
            "seconds": self.seconds,
            "val_loss": self.val_loss,
            "val_accuracy": self.val_accuracy,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EpochRecord":
        return cls(**data)


@dataclass
class TrainingResult:
    """Outcome of a training run: per-epoch history plus summary figures."""

    history: List[EpochRecord] = field(default_factory=list)
    converged: bool = False
    wall_clock_seconds: float = 0.0
    samples_seen: int = 0

    @property
    def epochs_run(self) -> int:
        return len(self.history)

    @property
    def final_train_loss(self) -> float:
        return self.history[-1].train_loss if self.history else float("nan")

    @property
    def final_train_accuracy(self) -> float:
        return self.history[-1].train_accuracy if self.history else float("nan")

    @property
    def final_val_accuracy(self) -> Optional[float]:
        return self.history[-1].val_accuracy if self.history else None

    def loss_curve(self) -> List[float]:
        return [record.train_loss for record in self.history]

    def to_dict(self) -> dict:
        """JSON-compatible form (persisted in ensemble artifacts since the
        ``repro.ensemble_run/v2`` manifest schema)."""
        return {
            "history": [record.to_dict() for record in self.history],
            "converged": self.converged,
            "wall_clock_seconds": self.wall_clock_seconds,
            "samples_seen": self.samples_seen,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrainingResult":
        return cls(
            history=[EpochRecord.from_dict(record) for record in data.get("history", [])],
            converged=bool(data.get("converged", False)),
            wall_clock_seconds=float(data.get("wall_clock_seconds", 0.0)),
            samples_seen=int(data.get("samples_seen", 0)),
        )


class ConvergenceCriterion:
    """Patience-based plateau detector on the training loss."""

    def __init__(self, patience: int, tolerance: float, min_epochs: int = 1):
        self.patience = int(patience)
        self.tolerance = float(tolerance)
        self.min_epochs = int(min_epochs)
        self.best_loss = float("inf")
        self.stale_epochs = 0
        self.epochs_seen = 0

    def update(self, loss: float) -> bool:
        """Record an epoch loss; return True when training should stop."""
        self.epochs_seen += 1
        if loss < self.best_loss - self.tolerance:
            self.best_loss = loss
            self.stale_epochs = 0
        else:
            self.stale_epochs += 1
        if self.epochs_seen < self.min_epochs:
            return False
        return self.stale_epochs >= self.patience


def iterate_minibatches(
    x: np.ndarray,
    y: np.ndarray,
    batch_size: int,
    shuffle: bool = True,
    rng: Optional[np.random.Generator] = None,
):
    """Yield ``(x_batch, y_batch)`` mini-batches covering the whole data set.

    Every yielded batch is a fresh copy.  The hot training loop in
    :meth:`Trainer.fit` uses the allocation-free :class:`_BatchGatherer`
    instead (same permutation, same batch values, reused buffers); this
    generator remains the simple public API for external callers and tests.
    """
    n = x.shape[0]
    indices = np.arange(n)
    if shuffle:
        if rng is None:
            rng = np.random.default_rng()
        rng.shuffle(indices)
    for start in range(0, n, batch_size):
        batch = indices[start : start + batch_size]
        yield x[batch], y[batch]


class _BatchGatherer:
    """Allocation-free mini-batch gathering for steady-state epochs.

    The naive loop fancy-indexes ``x[perm_batch]`` every step, allocating one
    full pass over the data set per epoch.  This helper shuffles an index
    permutation instead and gathers each mini-batch into *reused* buffers
    with ``np.take(..., out=...)``; after the first epoch the loop allocates
    nothing.  Batches are bitwise identical to the naive loop's: the
    permutation buffer is reset to the identity before every shuffle, so the
    generator consumes exactly the same random stream and produces exactly
    the same index order.

    Without shuffling, contiguous slice *views* are yielded (zero copies).
    The yielded arrays are only valid until the next ``epoch`` call gathers
    over them — the trainer finishes forward/backward/update for a batch
    before requesting the next, so no copy is ever needed.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, batch_size: int, shuffle: bool):
        self.x = x
        self.y = y
        self.n = int(x.shape[0])
        self.batch_size = int(min(batch_size, self.n))
        self.shuffle = bool(shuffle)
        if self.shuffle:
            self._identity = np.arange(self.n)
            self._perm = np.empty(self.n, dtype=self._identity.dtype)
            self._x_buf = np.empty((self.batch_size,) + x.shape[1:], dtype=x.dtype)
            self._y_buf = np.empty((self.batch_size,) + y.shape[1:], dtype=y.dtype)

    def epoch(self, rng: np.random.Generator):
        """Yield this epoch's ``(x_batch, y_batch)`` pairs."""
        if not self.shuffle:
            for start in range(0, self.n, self.batch_size):
                stop = min(start + self.batch_size, self.n)
                yield self.x[start:stop], self.y[start:stop]
            return
        # Reset to identity before shuffling: rng.shuffle applies its random
        # permutation to the *current* contents, and matching the naive
        # loop's batches requires shuffling the identity every epoch.
        np.copyto(self._perm, self._identity)
        rng.shuffle(self._perm)
        for start in range(0, self.n, self.batch_size):
            stop = min(start + self.batch_size, self.n)
            size = stop - start
            batch = self._perm[start:stop]
            # mode="clip" skips the bounds check; the permutation is in range
            # by construction.
            x_batch = np.take(self.x, batch, axis=0, out=self._x_buf[:size], mode="clip")
            y_batch = np.take(self.y, batch, axis=0, out=self._y_buf[:size], mode="clip")
            yield x_batch, y_batch


class Trainer:
    """Mini-batch SGD trainer with the paper's shared convergence criterion."""

    def __init__(self, config: Optional[TrainingConfig] = None, optimizer: Optional[Optimizer] = None):
        self.config = config or TrainingConfig()
        self._optimizer = optimizer

    def _make_optimizer(self) -> Optimizer:
        if self._optimizer is not None:
            return self._optimizer
        return SGD(
            learning_rate=self.config.learning_rate,
            momentum=self.config.momentum,
            weight_decay=self.config.weight_decay,
        )

    def fit(
        self,
        model: Model,
        x_train: np.ndarray,
        y_train: np.ndarray,
        x_val: Optional[np.ndarray] = None,
        y_val: Optional[np.ndarray] = None,
        seed: SeedLike = 0,
    ) -> TrainingResult:
        """Train ``model`` in place and return the :class:`TrainingResult`."""
        # Cast the whole training set to the model's compute dtype once, so no
        # per-batch slice ever needs a cast inside the epoch loop.
        dtype = getattr(model, "dtype", None) or np.float64
        x_train = np.asarray(x_train, dtype=dtype)
        y_train = np.asarray(y_train)
        if x_train.shape[0] != y_train.shape[0]:
            raise ValueError("x_train and y_train must have the same number of samples")
        if x_train.shape[0] == 0:
            raise ValueError("cannot train on an empty data set")

        config = self.config
        loss_fn: Loss = get_loss(config.loss)
        optimizer = self._make_optimizer()
        schedule = config.schedule or ConstantSchedule(config.learning_rate)
        criterion = ConvergenceCriterion(
            config.convergence_patience, config.convergence_tolerance, config.min_epochs
        )
        rng = as_rng(seed)
        result = TrainingResult()
        start_time = time.perf_counter()
        batches = _BatchGatherer(x_train, y_train, config.batch_size, config.shuffle)
        # Every layer's backward overwrites its gradients, so nothing is
        # zeroed per step, and the layer list is resolved once per fit.
        parameter_layers = model.parameter_layers()

        for epoch in range(config.max_epochs):
            epoch_start = time.perf_counter()
            lr = schedule.learning_rate(epoch)
            optimizer.set_learning_rate(lr)
            losses: List[float] = []
            correct = 0
            for x_batch, y_batch in batches.epoch(rng):
                logits = model.forward(x_batch, training=True)
                loss_value, grad = loss_fn(logits, y_batch)
                model.backward(grad)
                optimizer.step(
                    triple for layer in parameter_layers for triple in layer.iter_parameters()
                )
                losses.append(loss_value)
                correct += int((logits.argmax(axis=1) == np.asarray(y_batch).astype(int)).sum())
                result.samples_seen += x_batch.shape[0]

            train_loss = float(np.mean(losses))
            train_acc = correct / x_train.shape[0]
            record = EpochRecord(
                epoch=epoch,
                train_loss=train_loss,
                train_accuracy=train_acc,
                learning_rate=lr,
                seconds=time.perf_counter() - epoch_start,
            )
            if x_val is not None and y_val is not None:
                val_logits = model.predict_logits(x_val, batch_size=config.batch_size)
                record.val_loss = SoftmaxCrossEntropy().forward(val_logits, y_val)
                record.val_accuracy = accuracy(val_logits, y_val)
            result.history.append(record)
            if _metrics.enabled:
                model_name = model.spec.name
                _EPOCHS_TOTAL.inc()
                _SAMPLES_TOTAL.inc(x_train.shape[0])
                _EPOCH_LOSS.labels(model_name).set(train_loss)
                _EPOCH_ACCURACY.labels(model_name).set(train_acc)
                _EPOCH_SECONDS.labels(model_name).set(record.seconds)
            logger.debug(
                "%s epoch %d: loss=%.4f acc=%.3f", model.spec.name, epoch, train_loss, train_acc
            )
            if criterion.update(train_loss):
                result.converged = True
                break

        result.wall_clock_seconds = time.perf_counter() - start_time
        # Training scratch (conv workspace arenas sized for the training
        # batches) is not needed for inference; free it so trained members
        # held in ensembles do not pin batch-sized buffers.
        if hasattr(model, "clear_workspaces"):
            model.clear_workspaces()
        return result


def evaluate(
    model: Model,
    x: np.ndarray,
    y: np.ndarray,
    batch_size: int = 256,
) -> dict:
    """Inference-mode loss/accuracy/error-rate summary for a data split."""
    logits = model.predict_logits(x, batch_size=batch_size)
    loss = SoftmaxCrossEntropy().forward(logits, y)
    acc = accuracy(logits, y)
    return {"loss": float(loss), "accuracy": float(acc), "error_rate": 100.0 * (1.0 - acc)}

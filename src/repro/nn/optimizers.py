"""Optimizers and learning-rate schedules.

The paper trains everything with SGD (mini-batch 256, learning rate 0.1,
batch normalisation).  SGD with optional Nesterov/classical momentum and
weight decay is the default; Adam is included for convenience in the examples
and tests.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

import numpy as np


class LearningRateSchedule:
    """Base class mapping an epoch index to a learning rate."""

    def __init__(self, base_lr: float):
        if base_lr <= 0:
            raise ValueError("base_lr must be positive")
        self.base_lr = float(base_lr)

    def learning_rate(self, epoch: int) -> float:
        raise NotImplementedError


class ConstantSchedule(LearningRateSchedule):
    """Constant learning rate (the paper's setting)."""

    def learning_rate(self, epoch: int) -> float:
        return self.base_lr


class StepDecaySchedule(LearningRateSchedule):
    """Multiply the learning rate by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, base_lr: float, step_size: int = 10, gamma: float = 0.5):
        super().__init__(base_lr)
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        if not 0 < gamma <= 1:
            raise ValueError("gamma must be in (0, 1]")
        self.step_size = int(step_size)
        self.gamma = float(gamma)

    def learning_rate(self, epoch: int) -> float:
        return self.base_lr * (self.gamma ** (epoch // self.step_size))


class CosineSchedule(LearningRateSchedule):
    """Cosine annealing from ``base_lr`` to ``min_lr`` over ``total_epochs``.

    Cyclic cosine annealing is the ingredient behind Snapshot Ensembles
    (Huang et al.), one of the related fast-ensembling approaches discussed in
    the paper; the optional ``cycle_length`` makes the schedule cyclic so the
    snapshot baseline in ``repro.core.baselines`` can reuse it.
    """

    def __init__(
        self,
        base_lr: float,
        total_epochs: int = 50,
        min_lr: float = 0.0,
        cycle_length: int | None = None,
    ):
        super().__init__(base_lr)
        if total_epochs <= 0:
            raise ValueError("total_epochs must be positive")
        self.total_epochs = int(total_epochs)
        self.min_lr = float(min_lr)
        self.cycle_length = int(cycle_length) if cycle_length else None

    def learning_rate(self, epoch: int) -> float:
        period = self.cycle_length or self.total_epochs
        t = (epoch % period) / max(period - 1, 1)
        return self.min_lr + 0.5 * (self.base_lr - self.min_lr) * (1 + np.cos(np.pi * t))


class Optimizer:
    """Base optimizer over ``(name, param, grad)`` triples.

    State (e.g. momentum buffers) is keyed by the qualified parameter name so
    the same optimizer instance can keep training a model across epochs.
    """

    def __init__(self, learning_rate: float = 0.1, weight_decay: float = 0.0):
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        self.learning_rate = float(learning_rate)
        self.weight_decay = float(weight_decay)
        self.state: Dict[str, Dict[str, np.ndarray]] = {}
        self.iterations = 0

    def set_learning_rate(self, lr: float) -> None:
        if lr <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = float(lr)

    def step(self, parameters: Iterable[Tuple[str, np.ndarray, np.ndarray]]) -> None:
        """Update every parameter in-place from its gradient."""
        for name, param, grad in parameters:
            if self.weight_decay and param.ndim > 1:
                grad = grad + self.weight_decay * param
            self._update(name, param, grad)
        self.iterations += 1

    def _update(self, name: str, param: np.ndarray, grad: np.ndarray) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional (Nesterov) momentum."""

    def __init__(
        self,
        learning_rate: float = 0.1,
        momentum: float = 0.0,
        nesterov: bool = False,
        weight_decay: float = 0.0,
    ):
        super().__init__(learning_rate, weight_decay)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = float(momentum)
        self.nesterov = bool(nesterov)

    def _update(self, name: str, param: np.ndarray, grad: np.ndarray) -> None:
        if self.momentum == 0.0:
            param -= self.learning_rate * grad
            return
        slot = self.state.get(name)
        if slot is None:
            slot = self.state[name] = {"velocity": np.zeros_like(param)}
        buf = slot["velocity"]
        buf *= self.momentum
        buf += grad
        if self.nesterov:
            update = grad + self.momentum * buf
        else:
            update = buf
        param -= self.learning_rate * update


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba)."""

    def __init__(
        self,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(learning_rate, weight_decay)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)

    def _update(self, name: str, param: np.ndarray, grad: np.ndarray) -> None:
        slot = self.state.get(name)
        if slot is None:
            slot = self.state[name] = {
                "m": np.zeros_like(param),
                "v": np.zeros_like(param),
                "t": np.zeros(1),
            }
        slot["t"] += 1
        t = float(slot["t"][0])
        slot["m"] = self.beta1 * slot["m"] + (1 - self.beta1) * grad
        slot["v"] = self.beta2 * slot["v"] + (1 - self.beta2) * grad**2
        m_hat = slot["m"] / (1 - self.beta1**t)
        v_hat = slot["v"] / (1 - self.beta2**t)
        param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


_OPTIMIZERS = {"sgd": SGD, "adam": Adam}


def get_optimizer(name_or_opt, **kwargs) -> Optimizer:
    """Resolve an optimizer by name (with kwargs) or return the instance."""
    if isinstance(name_or_opt, Optimizer):
        return name_or_opt
    try:
        return _OPTIMIZERS[str(name_or_opt)](**kwargs)
    except KeyError as exc:
        raise ValueError(
            f"Unknown optimizer {name_or_opt!r}; known: {sorted(_OPTIMIZERS)}"
        ) from exc

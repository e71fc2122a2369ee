"""Fully-connected (dense) layer."""

from __future__ import annotations

import numpy as np

from repro.nn.dtypes import DTypeLike, default_dtype, resolve_dtype
from repro.nn.initializers import get_initializer
from repro.nn.layers.base import Layer
from repro.utils.rng import SeedLike, as_rng


class Dense(Layer):
    """Affine transformation ``y = x @ W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output dimensionality.
    weight_init, bias_init:
        Initialiser names or callables (see :mod:`repro.nn.initializers`).
    seed:
        Seed or generator used for initialisation.
    dtype:
        Compute dtype; defaults to the global compute dtype.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        weight_init="he_normal",
        bias_init="zeros",
        seed: SeedLike = None,
        name: str = "",
        dtype: DTypeLike | None = None,
    ):
        super().__init__(name=name or f"dense_{in_features}x{out_features}")
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Dense layer dimensions must be positive")
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.dtype = resolve_dtype(dtype)
        rng = as_rng(seed)
        # Initialise under the layer's dtype (not the ambient global default)
        # so a float64 layer gets full-precision draws, then cast defensively
        # for custom initialiser callables that ignore the default.
        with default_dtype(self.dtype):
            self.params["W"] = get_initializer(weight_init)(
                (self.in_features, self.out_features), rng
            ).astype(self.dtype, copy=False)
            self.params["b"] = get_initializer(bias_init)((self.out_features,), rng).astype(
                self.dtype, copy=False
            )
        self._cache_input: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"{self.name}: expected input of shape (N, {self.in_features}), got {x.shape}"
            )
        if training:
            self._cache_input = x
        else:
            self._cache_input = None
        return x @ self.params["W"] + self.params["b"]

    def backward_params(self, grad_output: np.ndarray) -> None:
        if self._cache_input is None:
            raise RuntimeError(f"{self.name}: backward called before a training forward pass")
        x = self._cache_input
        self.grads["W"] = x.T @ grad_output
        self.grads["b"] = grad_output.sum(axis=0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self.backward_params(grad_output)
        return grad_output @ self.params["W"].T

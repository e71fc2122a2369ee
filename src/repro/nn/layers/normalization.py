"""Batch normalisation for dense and convolutional activations.

The paper trains with batch normalisation (citing Ioffe & Szegedy) and the
hatching step relies on being able to initialise a freshly inserted BatchNorm
layer as an exact identity in inference mode; :meth:`BatchNorm.set_identity`
provides that.

The layer is memory-bound, so it is written to touch memory as rarely as the
arithmetic allows while keeping that arithmetic — every operation, its
operands and their order — fixed, because downstream training is sensitive to
the last bit (README "Numerics of the benchmark spec").  The training forward
takes the batch mean once and reuses the centred tensor for the variance (in
``ndarray.var``'s own order) and for ``x_hat``; it allocates two tensors, the
inference forward one, the backward two, and every other step runs in place.
When the phase-timing registry (:mod:`repro.utils.timing`) is enabled the
layer reports ``norm.forward`` / ``norm.backward``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.nn.dtypes import DTypeLike, resolve_dtype
from repro.nn.layers.base import Layer
from repro.utils import timing as _timing


def _scratch(buffer: np.ndarray, dtype: np.dtype) -> np.ndarray | None:
    """``buffer`` as an ``out=`` target when the result has its dtype anyway.

    Input, gradient and parameters normally share one dtype (``Model`` casts
    its input) and every buffer is reused; a wider layer fed narrower data
    directly keeps promoting into a fresh array, as it always did.
    """
    return buffer if buffer.dtype == dtype else None


class BatchNorm(Layer):
    """Batch normalisation over the feature/channel axis.

    Works on both ``(N, F)`` dense activations and ``(N, C, H, W)`` feature
    maps (normalising per channel over ``N, H, W``).
    """

    def __init__(
        self,
        num_features: int,
        momentum: float = 0.9,
        eps: float = 1e-5,
        name: str = "",
        dtype: DTypeLike | None = None,
    ):
        super().__init__(name=name or f"batchnorm_{num_features}")
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        self.num_features = int(num_features)
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.dtype = resolve_dtype(dtype)
        self.params["gamma"] = np.ones(self.num_features, dtype=self.dtype)
        self.params["beta"] = np.zeros(self.num_features, dtype=self.dtype)
        self.state["running_mean"] = np.zeros(self.num_features, dtype=self.dtype)
        self.state["running_var"] = np.ones(self.num_features, dtype=self.dtype)
        self._cache: tuple | None = None

    # ------------------------------------------------------------------ api
    def set_identity(self) -> None:
        """Configure the layer so that, in inference mode, it is exactly the
        identity function.  Used when deepening a network during hatching."""
        dtype = self.params["gamma"].dtype
        self.state["running_mean"] = np.zeros(self.num_features, dtype=dtype)
        self.state["running_var"] = np.ones(self.num_features, dtype=dtype)
        self.params["gamma"] = np.full(self.num_features, np.sqrt(1.0 + self.eps), dtype=dtype)
        self.params["beta"] = np.zeros(self.num_features, dtype=dtype)

    def _reshape_stats(self, stat: np.ndarray, ndim: int) -> np.ndarray:
        if ndim == 2:
            return stat[None, :]
        return stat[None, :, None, None]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim not in (2, 4) or x.shape[1] != self.num_features:
            raise ValueError(
                f"{self.name}: expected (N, {self.num_features}[, H, W]) input, got {x.shape}"
            )
        timed = _timing.phase_timing_enabled()
        if timed:
            t0 = time.perf_counter()
        axes = (0,) if x.ndim == 2 else (0, 2, 3)
        gamma = self._reshape_stats(self.params["gamma"], x.ndim)
        beta = self._reshape_stats(self.params["beta"], x.ndim)
        if training:
            count = x.size // self.num_features
            mean = x.mean(axis=axes, keepdims=True)
            x_hat = x - mean
            # ndarray.var's own order: squared deviations summed, then divided
            # by the integer count.  ``out`` is scratch here and becomes the
            # result below.
            out = np.multiply(x_hat, x_hat)
            var = (out.sum(axis=axes) / np.intp(count)).astype(out.dtype)
            unbiased = var * count / max(count - 1, 1)
            self.state["running_mean"] = (
                self.momentum * self.state["running_mean"]
                + (1 - self.momentum) * mean.reshape(self.num_features)
            )
            self.state["running_var"] = (
                self.momentum * self.state["running_var"] + (1 - self.momentum) * unbiased
            )
            inv_std = 1.0 / np.sqrt(var + self.eps)
            x_hat *= self._reshape_stats(inv_std, x.ndim)
            out = np.multiply(gamma, x_hat, out=_scratch(out, gamma.dtype))
            self._cache = (x_hat, inv_std, axes, x.ndim)
        else:
            inv_std = 1.0 / np.sqrt(self.state["running_var"] + self.eps)
            out = x - self._reshape_stats(self.state["running_mean"], x.ndim)
            out *= self._reshape_stats(inv_std, x.ndim)
            out *= gamma
            self._cache = None
        out += beta
        if timed:
            _timing.record_phase("norm.forward", time.perf_counter() - t0)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward called before a training forward pass")
        timed = _timing.phase_timing_enabled()
        if timed:
            t0 = time.perf_counter()
        x_hat, inv_std, axes, ndim = self._cache
        m = grad_output.size // self.num_features
        gamma = self._reshape_stats(self.params["gamma"], ndim)
        scratch = grad_output * x_hat
        self.grads["gamma"] = scratch.sum(axis=axes)
        self.grads["beta"] = grad_output.sum(axis=axes)
        grad = grad_output * gamma  # dL/dx_hat; turned into dL/dx in place below
        sum_dxhat = grad.sum(axis=axes, keepdims=True)
        scratch = np.multiply(grad, x_hat, out=_scratch(scratch, grad.dtype))
        sum_dxhat_xhat = scratch.sum(axis=axes, keepdims=True)
        scratch = np.multiply(x_hat, sum_dxhat_xhat, out=scratch)
        np.multiply(m, grad, out=grad)
        grad -= sum_dxhat
        grad -= scratch
        np.multiply(self._reshape_stats(inv_std, ndim) / m, grad, out=grad)
        if timed:
            _timing.record_phase("norm.backward", time.perf_counter() - t0)
        return grad

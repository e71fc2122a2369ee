"""Pooling layers: max pooling (between convolutional blocks) and global
average pooling (before the classifier head).

``MaxPool2D`` never materialises its windows.  A ``p x p`` pooling of
``(N, C, H, W)`` is an elementwise maximum over the ``p * p`` strided views
``x[:, :, i::p, j::p]`` (view ``(i, j)`` holds element ``(i, j)`` of every
window), taken in row-major ``(i, j)`` order — the order a reduction over the
window visits them, so values, and the sign of a maximum that is a tie of
``+0.0`` and ``-0.0``, come out as from ``windows.max`` (except where that ran
numpy's SIMD reduction — one window spanning a whole contiguous image — and
picked the sign by lane).  The backward mask is one boolean array per view,
marking the windows whose *first* maximum in that order sits in the view (the
tie rule of taking the index of the maximum: ``+0.0 == -0.0`` ties, and the
first ``NaN`` wins a window that has one).  The input gradient is
``mask_ij * grad_output`` written straight into ``grad[:, :, i::p, j::p]`` of
a C-contiguous result — a multiply, not a select, so a masked-out negative
gradient is ``-0.0`` as it always was.  When the phase-timing registry
(:mod:`repro.utils.timing`) is enabled the layer reports ``pool.forward`` /
``pool.backward``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.nn.layers.base import Layer
from repro.utils import timing as _timing


class MaxPool2D(Layer):
    """Non-overlapping max pooling over ``(N, C, H, W)`` inputs.

    ``pool_size`` must divide the spatial dimensions; the VGG/ResNet-style
    architecture builder guarantees this by construction.
    """

    def __init__(self, pool_size: int = 2, name: str = ""):
        super().__init__(name=name or f"maxpool{pool_size}")
        if pool_size <= 0:
            raise ValueError("pool_size must be positive")
        self.pool_size = int(pool_size)
        self._cache: tuple | None = None

    def _views(self, x: np.ndarray) -> list:
        """The ``p * p`` strided views of ``x``, row-major over the window."""
        p = self.pool_size
        return [x[:, :, i::p, j::p] for i in range(p) for j in range(p)]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, c, h, w = x.shape
        p = self.pool_size
        if h % p or w % p:
            raise ValueError(
                f"{self.name}: spatial size ({h}x{w}) not divisible by pool size {p}"
            )
        timed = _timing.phase_timing_enabled()
        if timed:
            t0 = time.perf_counter()
        views = self._views(x)
        out = np.maximum(views[0], views[1]) if len(views) > 1 else views[0].copy()
        for view in views[2:]:
            np.maximum(out, view, out=out)
        if training:
            # Route gradients only to the first maximum within each window so
            # that ties do not duplicate gradient mass.
            has_nan = bool(np.isnan(out).any())
            masks = []
            taken = np.zeros(out.shape, dtype=bool)
            for view in views:
                hit = view == out
                if has_nan:
                    hit |= np.isnan(view)
                masks.append(hit > taken)  # hit and not yet taken
                taken |= hit
            self._cache = (x.shape, masks)
        else:
            self._cache = None
        if timed:
            _timing.record_phase("pool.forward", time.perf_counter() - t0)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward called before a training forward pass")
        timed = _timing.phase_timing_enabled()
        if timed:
            t0 = time.perf_counter()
        input_shape, masks = self._cache
        grad = np.empty(input_shape, dtype=grad_output.dtype)
        for mask, target in zip(masks, self._views(grad)):
            np.multiply(mask, grad_output, out=target)
        if timed:
            _timing.record_phase("pool.backward", time.perf_counter() - t0)
        return grad


class GlobalAveragePool2D(Layer):
    """Average over spatial dimensions, ``(N, C, H, W) -> (N, C)``."""

    def __init__(self, name: str = ""):
        super().__init__(name=name or "global_avg_pool")
        self._cache_shape: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"{self.name}: expected 4-D input, got shape {x.shape}")
        if training:
            self._cache_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_shape is None:
            raise RuntimeError(f"{self.name}: backward called before a training forward pass")
        n, c, h, w = self._cache_shape
        grad = grad_output[:, :, None, None] / float(h * w)
        return np.broadcast_to(grad, (n, c, h, w)).copy()

"""The parent engine's non-GEMM kernels, kept verbatim as the test oracle.

PR 20 rewrote ``MaxPool2D``, ``BatchNorm`` and the GEMM engine's
``Conv2D.backward`` to make fewer passes over memory while performing the
same floating-point operations in the same order.  The bodies below are the
ones those layers had before the rewrite, copied unchanged from the parent
commit; ``test_kernel_bits.py`` runs old and new side by side and demands
equal bits, equal signs of zero and equal strides.  PR 22 replaced the forward
gather of short rows by an index-table ``take``; ``_gather_cols`` below is the
body it had before.  Do not "fix" or tidy this file: it is only useful as
long as it is the old code.
"""

from __future__ import annotations

import time

import numpy as np

from repro.nn.layers.conv import Conv2D, col2im, im2col
from repro.nn.layers.normalization import BatchNorm
from repro.nn.layers.pooling import MaxPool2D
from repro.utils import timing as _timing


class ReferenceMaxPool2D(MaxPool2D):
    """``argmax`` + ``np.indices`` mask over a transposed 6-D window view."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, c, h, w = x.shape
        p = self.pool_size
        if h % p or w % p:
            raise ValueError(
                f"{self.name}: spatial size ({h}x{w}) not divisible by pool size {p}"
            )
        # Windows in (N, C, out_h, out_w, p, p) layout.
        windows = x.reshape(n, c, h // p, p, w // p, p).transpose(0, 1, 2, 4, 3, 5)
        out = windows.max(axis=(4, 5))
        if training:
            flat = windows.reshape(n, c, h // p, w // p, p * p)
            # Route gradients only to the first maximum within each window so
            # that ties do not duplicate gradient mass.
            argmax = np.argmax(flat, axis=-1)
            mask = np.zeros_like(flat, dtype=bool)
            idx = np.indices(argmax.shape)
            mask[idx[0], idx[1], idx[2], idx[3], argmax] = True
            self._cache = (x.shape, mask.reshape(n, c, h // p, w // p, p, p))
        else:
            self._cache = None
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward called before a training forward pass")
        input_shape, mask = self._cache
        n, c, h, w = input_shape
        p = self.pool_size
        grad_windows = mask * grad_output[:, :, :, :, None, None]
        # Back from (N, C, out_h, out_w, p, p) to (N, C, H, W).
        grad = grad_windows.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)
        return grad


class ReferenceBatchNorm(BatchNorm):
    """``x.mean`` then ``x.var`` (the mean taken twice), one temporary per
    arithmetic step."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim not in (2, 4) or x.shape[1] != self.num_features:
            raise ValueError(
                f"{self.name}: expected (N, {self.num_features}[, H, W]) input, got {x.shape}"
            )
        axes = (0,) if x.ndim == 2 else (0, 2, 3)
        if training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            count = x.size // self.num_features
            unbiased = var * count / max(count - 1, 1)
            self.state["running_mean"] = (
                self.momentum * self.state["running_mean"] + (1 - self.momentum) * mean
            )
            self.state["running_var"] = (
                self.momentum * self.state["running_var"] + (1 - self.momentum) * unbiased
            )
        else:
            mean = self.state["running_mean"]
            var = self.state["running_var"]
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - self._reshape_stats(mean, x.ndim)) * self._reshape_stats(inv_std, x.ndim)
        out = self._reshape_stats(self.params["gamma"], x.ndim) * x_hat + self._reshape_stats(
            self.params["beta"], x.ndim
        )
        if training:
            self._cache = (x_hat, inv_std, axes, x.ndim)
        else:
            self._cache = None
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward called before a training forward pass")
        x_hat, inv_std, axes, ndim = self._cache
        m = grad_output.size // self.num_features
        gamma = self._reshape_stats(self.params["gamma"], ndim)
        self.grads["gamma"] = (grad_output * x_hat).sum(axis=axes)
        self.grads["beta"] = grad_output.sum(axis=axes)
        dxhat = grad_output * gamma
        sum_dxhat = dxhat.sum(axis=axes, keepdims=True)
        sum_dxhat_xhat = (dxhat * x_hat).sum(axis=axes, keepdims=True)
        inv_std_b = self._reshape_stats(inv_std, ndim)
        return (inv_std_b / m) * (m * dxhat - sum_dxhat - x_hat * sum_dxhat_xhat)


class ReferenceConv2D(Conv2D):
    """Forward gather as one 6-D strided copy whatever the row length; input
    gradient through the compact ``W.T @ g`` and the ``col2im`` loop of
    ``kh * kw`` strided adds."""

    def _gather_cols(self, x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
        """im2col into the reusable workspace (padding handled in-arena)."""
        n, c, h, w = x.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        src = x
        if p > 0:
            # The zero border is written once at allocation and never touched
            # again: subsequent batches only overwrite the interior.
            padded = self._arena.get(
                "pad_fwd", (n, c, h + 2 * p, w + 2 * p), x.dtype, zero_on_alloc=True
            )
            padded[:, :, p : p + h, p : p + w] = x
            src = padded
        cols = self._arena.get("cols", (n, c * k * k, out_h * out_w), x.dtype)
        return im2col(src, (k, k), s, 0, out=cols)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            if getattr(self, "_had_training_forward", False):
                raise RuntimeError(
                    f"{self.name}: backward cache was cleared by a later inference "
                    "forward; run backward immediately after the training forward"
                )
            raise RuntimeError(f"{self.name}: backward called before a training forward pass")
        input_shape, cols, generation = self._cache
        if self.engine != "einsum" and generation != self._forward_generation:
            raise RuntimeError(
                f"{self.name}: backward cache invalidated by an intervening forward pass "
                "(the GEMM engine caches workspace columns; run backward immediately "
                "after the training forward, or use engine='einsum')"
            )
        n = grad_output.shape[0]
        grad_mat = grad_output.reshape(n, self.out_channels, -1)
        w_mat = self.params["W"].reshape(self.out_channels, -1)
        kernel = (self.kernel_size, self.kernel_size)

        if self.engine == "einsum":
            grad_w = np.einsum("nop,nfp->of", grad_mat, cols)
            self.grads["W"] = grad_w.reshape(self.params["W"].shape)
            if self.use_bias:
                self.grads["b"] = grad_mat.sum(axis=(0, 2))
            grad_cols = np.einsum("of,nop->nfp", w_mat, grad_mat)
            return col2im(grad_cols, input_shape, kernel, self.stride, self.padding)

        timed = _timing.phase_timing_enabled()
        if timed:
            t0 = time.perf_counter()
        grad_w = np.tensordot(grad_mat, cols, axes=((0, 2), (0, 2)))
        self.grads["W"] = grad_w.reshape(self.params["W"].shape)
        grad_cols = self._arena.get(
            "grad_cols", cols.shape, np.result_type(w_mat.dtype, grad_mat.dtype)
        )
        np.matmul(w_mat.T, grad_mat, out=grad_cols)
        if timed:
            t1 = time.perf_counter()
            _timing.record_phase("conv.gemm", t1 - t0)
        if self.use_bias:
            self.grads["b"] = grad_mat.sum(axis=(0, 2))
            if timed:
                t2 = time.perf_counter()
                _timing.record_phase("conv.bias", t2 - t1)
                t1 = t2
        c, h, w = input_shape[1], input_shape[2], input_shape[3]
        p = self.padding
        scatter = self._arena.get(
            "pad_bwd", (n, c, h + 2 * p, w + 2 * p), grad_cols.dtype
        )
        grad_input = col2im(grad_cols, input_shape, kernel, self.stride, p, out=scatter)
        if timed:
            _timing.record_phase("conv.col2im", time.perf_counter() - t1)
        return grad_input

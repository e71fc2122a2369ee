"""2-D convolution with a BLAS-GEMM hot path over im2col / col2im.

Only "same"-padded, stride-1 convolutions are needed by the VGG/ResNet-style
architectures used in the paper (spatial down-sampling happens through
max-pooling between blocks), but the layer supports arbitrary stride and
padding for completeness.

Two execution engines are available:

* ``"gemm"`` (default) — lowers the convolution to matrix multiplies
  (``W_mat @ cols`` forward, ``tensordot``/``matmul`` backward) so the heavy
  lifting runs inside BLAS.  All large temporaries (padded input, im2col
  patch matrix, scatter target) live in a per-layer
  :class:`~repro.nn.workspace.WorkspaceArena` and are reused across batches,
  so steady-state training allocates no per-call conv scratch.  Inference is
  fused: no backward cache is written and the same workspace is recycled.
  Consequence of the reuse: the gradient returned by :meth:`backward` is a
  view into the arena, valid only until the layer's next call (forward
  outputs are always fresh); the sequential forward/backward training loop
  consumes it immediately.
* ``"einsum"`` — the original ``np.einsum`` formulation, kept as the
  numerical reference the GEMM path is tested against.

**The forward gather as a table lookup** (GEMM engine).  Filling ``cols`` is a
pure copy, and as one 6-D strided copy (:func:`im2col` with ``out=``) it moves
runs of ``out_w`` contiguous elements — 8, 4, 2 elements on the small images
that ensembles of small members are made of — so the copy feeding the GEMM
cost twice the GEMM.  For short rows the layer instead looks the positions up:
:func:`_patch_table` holds, for one channel, where each of the ``k * k * out_h
* out_w`` patch elements sits in the row-flattened padded image, and one
``np.take`` along the flattened image axis of ``(N * C, H' * W')`` fills the
same ``(N, C * k * k, out_h * out_w)`` buffer.  Same values in the same
layout, so the GEMM that follows, the ``cols`` that ``backward`` reads and
every bit downstream are untouched.  The table depends only on the geometry
``(padded_h, padded_w, kernel, stride)``; it is cached under that key and
shared, read-only, by every layer and member with that geometry (a few KB
each).  The lookup moves single elements, so it wins on short rows and loses
on long ones; ``TABLE_GATHER_MAX_RUN`` is the crossover, from (median of 7,
alternating, 3x3 "same", 16 channels, strided / table; > 1 favours the
table):

=========  =====  =====  =====  =====  =====  =====  =====  =====
``out_w``      2      4      6      8     10     12     16     32
=========  =====  =====  =====  =====  =====  =====  =====  =====
float32    4.2x   2.6x   1.8x   1.3x   1.06x  0.91x  0.72x  0.57x
float64    3.9x   2.7x   1.8x   1.3x   1.18x  1.00x  0.89x  0.85x
=========  =====  =====  =====  =====  =====  =====  =====  =====

(N = 64; N = 1 and 256, 3 and 64 channels and stride 2 cross over at the same
place — the full table is in CHANGES.md.)  Two shapes have a longer run than
their ``out_w`` says and keep the strided copy, which numpy collapses to one
``memcpy`` there: a 1x1 kernel at stride 1 (``ResidualUnit``'s projection)
and a kernel as large as the padded image — the cases where the table is the
identity, for which :func:`_patch_table` returns ``None``.  An unpadded input
that is not C-contiguous would have to be copied flat before it can be
indexed, so it stays on the strided copy too.

**The input gradient on wide rows** (GEMM engine, stride 1, kernel > 1,
float32).  ``col2im`` adds the ``k * k`` planes of ``W.T @ g`` into the padded
image at ``k * k`` offsets; on compact columns every such add moves runs of
``out_w`` elements.  Instead, ``grad_output`` is first copied onto the *row
pitch of the padded input* (``W' = W + 2 * padding`` columns per row,
``L = (out_h - 1) * W' + out_w`` columns per image, the ``W' - out_w`` junk
columns between two rows zero), the same ``W.T @ g`` runs on that, and kernel
offset ``(i, j)`` becomes one slab add ``flat[:, :, i * W' + j :][:L] +=
plane`` over the row-flattened padded image — the whole image in one
contiguous run.  Nothing about the arithmetic changes: the GEMM's inner
dimension is still ``out_channels``, so a real column is the same dot product
as before and a junk column is exactly zero (weights being finite); the slabs
are added in the same ``(i, j)`` order; and a junk zero landing on a real
element leaves it alone (the sums start from ``+0.0``, so none of them is a
``-0.0`` that adding ``+0.0`` would flip).  The junk columns stay zero under
the invariant ``pad_fwd`` uses: zeroed when the arena allocates the buffer,
never written afterwards.  ``grad_W`` stays on the compact ``cols`` of the
forward pass — widening it would change the length, and so the rounding, of a
reduction.  "The same dot product gives the same bits wherever its column
sits" is a property of the BLAS, not of arithmetic: it holds for the ``sgemm``
this was measured against and not for its ``dgemm`` (edge-tile kernels round
differently), so float64 keeps compact columns and :func:`col2im`, as do other
strides and 1x1 kernels.  The free functions :func:`im2col` / :func:`col2im`
remain the public reference.

When the phase-timing registry (:mod:`repro.utils.timing`) is enabled, the
layer reports ``conv.im2col`` / ``conv.gemm`` / ``conv.bias`` /
``conv.col2im`` so cost breakdowns can separate data movement from compute;
``conv.col2im`` is the input-gradient scatter on either path, and the pitch
copy and the wider GEMM are booked under ``conv.gemm``.
"""

from __future__ import annotations

import functools
import time
from typing import Optional, Tuple

import numpy as np

from repro.nn.dtypes import DTypeLike, default_dtype, resolve_dtype
from repro.nn.initializers import get_initializer
from repro.nn.layers.base import Layer
from repro.nn.workspace import WorkspaceArena
from repro.utils import timing as _timing
from repro.utils.rng import SeedLike, as_rng

CONV_ENGINES = ("gemm", "einsum")

#: Longest contiguous run of the patch view (``out_w`` elements) that the GEMM
#: engine still gathers through the index table; longer rows take the strided
#: copy.  Set from the crossover table in the module docstring: the table wins
#: at every measured shape up to 8, breaks even around 10, loses from 12 on.
TABLE_GATHER_MAX_RUN = 8


def _patch_view(
    x: np.ndarray, kernel: Tuple[int, int], stride: int
) -> Tuple[np.ndarray, int, int]:
    """Strided ``(N, C, kh, kw, out_h, out_w)`` view of an (already padded)
    input, plus the output spatial size."""
    n, c, h, w = x.shape
    kh, kw = kernel
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    strides = x.strides
    shape = (n, c, kh, kw, out_h, out_w)
    patch_strides = (
        strides[0],
        strides[1],
        strides[2],
        strides[3],
        strides[2] * stride,
        strides[3] * stride,
    )
    return np.lib.stride_tricks.as_strided(x, shape=shape, strides=patch_strides), out_h, out_w


def im2col(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: int,
    padding: int,
    out: Optional[np.ndarray] = None,
    copy: bool = True,
) -> np.ndarray:
    """Rearrange image patches into columns.

    Parameters
    ----------
    x: ``(N, C, H, W)`` input.
    kernel: ``(kh, kw)`` kernel size.
    stride: spatial stride.
    padding: symmetric zero padding.
    out: optional preallocated ``(N, C * kh * kw, out_h * out_w)`` buffer to
        gather into (workspace reuse); returned when given.
    copy: when ``False`` the result may alias ``x`` (possible only for
        patch layouts that reshape to a view, e.g. 1x1 kernels at stride 1);
        callers that cache or mutate the columns must keep the default.

    Returns
    -------
    ``(N, C * kh * kw, out_h * out_w)`` array of flattened patches.
    """
    n, c, _, _ = x.shape
    kh, kw = kernel
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    patches, out_h, out_w = _patch_view(x, kernel, stride)
    if out is not None:
        np.copyto(out.reshape(n, c, kh, kw, out_h, out_w), patches)
        return out
    cols = patches.reshape(n, c * kh * kw, out_h * out_w)
    # reshape of the overlapping patch view almost always materialises a fresh
    # array already; only force a second copy if it managed to stay a view.
    if copy and np.may_share_memory(cols, x):
        cols = cols.copy()
    return cols


@functools.lru_cache(maxsize=128)
def _patch_table(padded_h: int, padded_w: int, kernel: int, stride: int) -> Optional[np.ndarray]:
    """Where each element of one channel's ``(k * k, out_h * out_w)`` patch
    matrix sits in that channel's row-flattened ``padded_h`` x ``padded_w``
    image: :func:`im2col` of the positions themselves.  Read-only, because
    every layer with this geometry shares it.

    ``None`` when the table is the identity (a 1x1 kernel at stride 1, or a
    kernel as large as the image): the gather is then a plain copy."""
    positions = np.arange(padded_h * padded_w, dtype=np.intp)
    image = positions.reshape(1, 1, padded_h, padded_w)
    table = im2col(image, (kernel, kernel), stride, 0).ravel()
    if np.array_equal(table, positions):
        return None
    table.setflags(write=False)
    return table


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: int,
    padding: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back to image space.

    ``out`` is an optional preallocated *padded* buffer of shape
    ``(N, C, H + 2 * padding, W + 2 * padding)``; it is cleared and used as the
    scatter target, and the returned array is a view into it when padding > 0.
    """
    n, c, h, w = input_shape
    kh, kw = kernel
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    if out is None:
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    else:
        padded = out
        padded.fill(0)
    cols6 = cols.reshape(n, c, kh, kw, out_h, out_w)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += cols6[
                :, :, i, j, :, :
            ]
    if padding > 0:
        return padded[:, :, padding : padding + h, padding : padding + w]
    return padded


class Conv2D(Layer):
    """2-D convolution over ``(N, C, H, W)`` inputs.

    Weight shape is ``(out_channels, in_channels, kh, kw)``.  ``padding="same"``
    keeps the spatial size for odd kernels at stride 1, which is the
    configuration used throughout the VGG/ResNet architecture zoo.

    ``dtype`` selects the compute dtype (default: the global compute dtype,
    see :mod:`repro.nn.dtypes`); ``engine`` selects the execution path
    (``"gemm"`` BLAS hot path or the ``"einsum"`` reference).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: str | int = "same",
        weight_init="he_normal",
        bias_init="zeros",
        use_bias: bool = True,
        seed: SeedLike = None,
        name: str = "",
        dtype: Optional[DTypeLike] = None,
        engine: str = "gemm",
    ):
        super().__init__(name=name or f"conv{kernel_size}x{kernel_size}_{out_channels}")
        if in_channels <= 0 or out_channels <= 0 or kernel_size <= 0:
            raise ValueError("Conv2D dimensions must be positive")
        if engine not in CONV_ENGINES:
            raise ValueError(f"unknown conv engine {engine!r}; known: {CONV_ENGINES}")
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.use_bias = bool(use_bias)
        self.dtype = resolve_dtype(dtype)
        self.engine = engine
        if padding == "same":
            if kernel_size % 2 == 0:
                raise ValueError("'same' padding requires an odd kernel size")
            self.padding = (kernel_size - 1) // 2
        else:
            self.padding = int(padding)
        rng = as_rng(seed)
        # Initialise under the layer's dtype (not the ambient global default)
        # so a float64 layer gets full-precision draws, then cast defensively
        # for custom initialiser callables that ignore the default.
        with default_dtype(self.dtype):
            self.params["W"] = get_initializer(weight_init)(
                (self.out_channels, self.in_channels, self.kernel_size, self.kernel_size), rng
            ).astype(self.dtype, copy=False)
            if self.use_bias:
                self.params["b"] = get_initializer(bias_init)((self.out_channels,), rng).astype(
                    self.dtype, copy=False
                )
        self._cache: tuple | None = None
        self._arena = WorkspaceArena()
        # Forward-call counter guarding the GEMM cache: the cached column
        # matrix lives in the shared arena, so an intervening forward
        # invalidates it. Inference forwards clear the cache outright (caught
        # above with a dedicated message); the generation check is defense in
        # depth against stale caches restored by exotic callers.
        self._forward_generation = 0
        self._had_training_forward = False

    # ------------------------------------------------------------------ api
    def clear_workspaces(self) -> None:
        self._arena.clear()
        self._cache = None

    def output_spatial(self, h: int, w: int) -> Tuple[int, int]:
        """Spatial output size for an ``h`` x ``w`` input."""
        k, s, p = self.kernel_size, self.stride, self.padding
        return (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1

    # ----------------------------------------------------------- workspaces
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
        # The strided copy moves runs of ``out_w`` elements, the table single
        # ones: short rows go through the table (an unpadded input that is
        # not contiguous would first have to be copied flat, so it does not).
        table = None
        if out_w <= TABLE_GATHER_MAX_RUN and src.flags.c_contiguous:
            table = _patch_table(h + 2 * p, w + 2 * p, k, s)
        if table is None:
            return im2col(src, (k, k), s, 0, out=cols)
        # mode="clip" only spares ``out=`` the bounds-checking detour through
        # a temporary; every index is in range by construction.
        np.take(src.reshape(n * c, -1), table, axis=1, out=cols.reshape(n * c, -1), mode="clip")
        return cols

    def _on_padded_pitch(self, grad_output: np.ndarray, pitch: int) -> np.ndarray:
        """``grad_output`` as ``(N, out_channels, length)`` with its rows
        ``pitch`` columns apart — the row pitch of the padded input — and
        ``length`` ending with the last real column.

        The ``pitch - out_w`` junk columns between two rows are zero under the
        invariant ``pad_fwd`` relies on: zeroed at allocation, and only the
        real columns are ever written."""
        n, o, out_h, out_w = grad_output.shape
        rows = self._arena.get(
            "grad_wide", (n, o, out_h, pitch), grad_output.dtype, zero_on_alloc=True
        )
        rows[:, :, :, :out_w] = grad_output
        return rows.reshape(n, o, out_h * pitch)[:, :, : (out_h - 1) * pitch + out_w]

    # ------------------------------------------------------------------ pass
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"{self.name}: expected input (N, {self.in_channels}, H, W), got {x.shape}"
            )
        n, _, h, w = x.shape
        out_h, out_w = self.output_spatial(h, w)
        w_mat = self.params["W"].reshape(self.out_channels, -1)
        timed = _timing.phase_timing_enabled()
        self._forward_generation += 1

        if self.engine == "einsum":
            cols = im2col(
                x, (self.kernel_size, self.kernel_size), self.stride, self.padding, copy=training
            )
            out = np.einsum("of,nfp->nop", w_mat, cols)
            if self.use_bias:
                out = out + self.params["b"][None, :, None]
        else:
            if timed:
                t0 = time.perf_counter()
            cols = self._gather_cols(x, out_h, out_w)
            if timed:
                t1 = time.perf_counter()
                _timing.record_phase("conv.im2col", t1 - t0)
            out = np.matmul(w_mat, cols)
            if timed:
                t2 = time.perf_counter()
                _timing.record_phase("conv.gemm", t2 - t1)
            if self.use_bias:
                out += self.params["b"][None, :, None]
                if timed:
                    _timing.record_phase("conv.bias", time.perf_counter() - t2)

        out = out.reshape(n, self.out_channels, out_h, out_w)
        if training:
            self._cache = (x.shape, cols, self._forward_generation)
            self._had_training_forward = True
        else:
            self._cache = None
        return out

    def _backward_operands(self, grad_output: np.ndarray) -> Tuple[tuple, np.ndarray, np.ndarray]:
        """``(input_shape, cols, grad_mat)`` of the pending training forward."""
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
        grad_mat = grad_output.reshape(grad_output.shape[0], self.out_channels, -1)
        return input_shape, cols, grad_mat

    def _param_grads(self, grad_mat: np.ndarray, cols: np.ndarray) -> None:
        timed = self.engine != "einsum" and _timing.phase_timing_enabled()
        if timed:
            t0 = time.perf_counter()
        if self.engine == "einsum":
            grad_w = np.einsum("nop,nfp->of", grad_mat, cols)
        else:
            grad_w = np.tensordot(grad_mat, cols, axes=((0, 2), (0, 2)))
        self.grads["W"] = grad_w.reshape(self.params["W"].shape)
        if timed:
            t1 = time.perf_counter()
            _timing.record_phase("conv.gemm", t1 - t0)
        if self.use_bias:
            self.grads["b"] = grad_mat.sum(axis=(0, 2))
            if timed:
                _timing.record_phase("conv.bias", time.perf_counter() - t1)

    def backward_params(self, grad_output: np.ndarray) -> None:
        _, cols, grad_mat = self._backward_operands(grad_output)
        self._param_grads(grad_mat, cols)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        input_shape, cols, grad_mat = self._backward_operands(grad_output)
        self._param_grads(grad_mat, cols)
        w_mat = self.params["W"].reshape(self.out_channels, -1)
        kernel = (self.kernel_size, self.kernel_size)
        if self.engine == "einsum":
            grad_cols = np.einsum("of,nop->nfp", w_mat, grad_mat)
            return col2im(grad_cols, input_shape, kernel, self.stride, self.padding)

        timed = _timing.phase_timing_enabled()
        if timed:
            t0 = time.perf_counter()
        n, c, h, w = input_shape
        k, p = self.kernel_size, self.padding
        dtype = np.result_type(w_mat.dtype, grad_mat.dtype)
        # float64 stays compact: dgemm's edge kernels round a column
        # differently depending on where it sits (see the module docstring).
        wide = self.stride == 1 and k > 1 and dtype == np.float32
        if wide:
            pitch = w + 2 * p
            grad_mat = self._on_padded_pitch(grad_output, pitch)
        length = grad_mat.shape[2]
        grad_cols = self._arena.get("grad_cols", (n, c * k * k, length), dtype)
        np.matmul(w_mat.T, grad_mat, out=grad_cols)
        if timed:
            t1 = time.perf_counter()
            _timing.record_phase("conv.gemm", t1 - t0)
        scatter = self._arena.get("pad_bwd", (n, c, h + 2 * p, w + 2 * p), dtype)
        if wide:
            # Kernel offset (i, j) moves the whole image by i rows and j
            # columns: one contiguous slab of the row-flattened padded image.
            scatter.fill(0)
            flat = scatter.reshape(n, c, -1)
            slabs = grad_cols.reshape(n, c, k * k, length)
            for i in range(k):
                for j in range(k):
                    offset = i * pitch + j
                    flat[:, :, offset : offset + length] += slabs[:, :, i * k + j]
            grad_input = scatter[:, :, p : p + h, p : p + w] if p > 0 else scatter
        else:
            grad_input = col2im(grad_cols, input_shape, kernel, self.stride, p, out=scatter)
        if timed:
            _timing.record_phase("conv.col2im", time.perf_counter() - t1)
        return grad_input

"""Lowering a trained :class:`~repro.nn.model.Model` to an inference plan.

The layer graph is built for training: every layer keeps what its backward
needs, BatchNorm is four passes of its own over the activations, and a
convolution over ``N`` images is ``N`` small GEMMs.  Serving needs none of
that.  :func:`lower_model` reads a trained model once and returns what an
inference pass actually computes — a list of :class:`Stage` records, each
``relu(W @ cols + b)`` with BatchNorm already folded into ``W`` and ``b`` —
and :class:`InferencePlan` runs the stages of a whole ensemble:

* **BatchNorm folded at load.**  ``gamma (W x + b - mean) / sqrt(var + eps) +
  beta`` is ``(s W) x + (s (b - mean) + beta)`` with ``s = gamma / sqrt(var +
  eps)``; the products are taken in float64 and cast once.
* **Channel-major activations.**  An activation buffer is ``(C, capacity * H
  * W + 1)``: one row per channel, the batch's images one after the other from
  column 0, and a last column — the *zero slot* — that is zero from allocation
  and never written.  A convolution over the whole batch is then *one* ``W(O,
  C k k) @ cols(C k k, N H W)`` GEMM whose output is the next stage's input as
  it stands: bias and ReLU are applied to it in place.
* **``cols`` by one lookup.**  One ``take`` along the rows of the input buffer
  through an index table (:func:`_gather_table`: ``im2col`` of the positions,
  as ``Conv2D``'s ``_patch_table`` is) builds ``cols``; a tap that falls on
  the padding reads the zero slot, so there is no padded copy of anything.  A
  stage that is max-pooled lists the ``p * p`` window positions first in its
  table, so the GEMM's output is ``p * p`` contiguous planes and pooling is an
  elementwise maximum of them — taken *before* bias and ReLU, which commute
  with it (both monotone) and then touch a quarter of the elements.  A 1x1
  kernel, a hidden dense layer and a "same" convolution of a 1x1 image (only
  its centre tap ever meets a non-zero) need no ``cols``: the GEMM reads the
  activations directly.
* **The first layer once.**  Every member sees the same input, so members
  whose first stages have one geometry run them as one stage on their stacked
  weights: one lookup, one GEMM, one epilogue.
* **One scratch, nothing per batch size.**  Nothing is kept for a backward,
  so every buffer comes from one :class:`~repro.nn.workspace.WorkspaceArena`
  shared by all stages and members, and one ``cols`` buffer serves every
  stage.  Buffers and tables are bound once (:meth:`InferencePlan._bind`) for
  a *capacity* — the largest batch seen, rounded up to a power of two — and a
  batch of ``n`` uses their first ``n`` images: ``table[:, :, :n]``, ``buffer[:,
  :n * H * W]``.  A row's pitch is then the capacity's, not the batch's; the
  arithmetic does not see it (``tests/nn/test_lowering.py`` holds a plan that
  has served larger batches to the bits of a cold one).  A larger batch
  rebinds, and the memory stays at what the largest batch needed.

The plan is a snapshot of the weights at lowering time, and it is exact in
real arithmetic, not in floating point: probabilities differ from the graph's
by a few float32 ulps (``tests/nn/test_lowering.py`` states the tolerance).
The graph stays the numerical reference — ``Ensemble.predict_proba_all`` and
everything that trains never come here — and a model the plan does not cover
(:func:`lower_model` returns ``None``) is left to it, bit for bit.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers import BatchNorm, Conv2D, Dense, MaxPool2D, ReLU, im2col
from repro.nn.layers.activations import softmax
from repro.nn.model import Model
from repro.nn.workspace import WorkspaceArena

_DTYPE = np.dtype(np.float32)
_ZERO = np.zeros((), dtype=_DTYPE)


@dataclass(frozen=True)
class Stage:
    """``relu(weight @ cols + bias)`` on ``channels`` x ``height`` x ``width``
    images under a ``kernel`` x ``kernel`` "same" window, then ``pool`` x
    ``pool`` max-pooling and, for ``reduce``, the mean over what is left of
    the image."""

    weight: np.ndarray  # (out, channels * kernel * kernel), BatchNorm folded in
    bias: np.ndarray  # (out,)
    channels: int
    height: int
    width: int
    kernel: int = 1
    pool: int = 1
    reduce: bool = False

    @property
    def gathers(self) -> bool:
        """Whether ``cols`` has to be built; if not, the GEMM reads the
        activations as they stand."""
        return self.kernel > 1 or self.pool > 1

    @property
    def geometry(self) -> tuple:
        """Everything but the weights: what stages must share to be stacked."""
        return (self.channels, self.height, self.width, self.kernel, self.pool, self.reduce)


@dataclass(frozen=True)
class LoweredModel:
    """A model as the plan runs it: its stages, then the linear classifier."""

    stages: Tuple[Stage, ...]
    head_weight: np.ndarray  # (features, classes)
    head_bias: np.ndarray  # (classes,)


def _fold(weight: np.ndarray, bias: Optional[np.ndarray], bn: Optional[BatchNorm]):
    """``(out, fan_in)`` weight and bias with ``bn``'s inference transform
    folded in; float64 throughout, cast once."""
    weight = weight.astype(np.float64)
    bias = np.zeros(weight.shape[0]) if bias is None else bias.astype(np.float64)
    if bn is not None:
        scale = bn.params["gamma"].astype(np.float64) / np.sqrt(
            bn.state["running_var"].astype(np.float64) + bn.eps
        )
        weight *= scale[:, None]
        bias = (bias - bn.state["running_mean"]) * scale + bn.params["beta"]
    return np.ascontiguousarray(weight, dtype=_DTYPE), bias.astype(_DTYPE)


def lower_model(model) -> Optional[LoweredModel]:
    """The stages of ``model``, or ``None`` when the plan does not cover it:
    anything but a float32 :class:`Model` of plain conv units (GEMM engine,
    stride 1, "same" padding) closed by global average pooling, and dense
    units."""
    if not isinstance(model, Model) or model.dtype != _DTYPE or model.flatten is not None:
        return None
    shape = tuple(model.spec.input_shape)
    if (len(shape) == 3) != (model.global_pool is not None) or len(shape) not in (1, 3):
        return None
    channels, height, width = shape if len(shape) == 3 else (shape[0], 1, 1)
    stages: List[Stage] = []
    for block in model.conv_blocks:
        for unit in block.units:
            conv = getattr(unit, "conv", None)  # a ResidualUnit has none
            if not isinstance(conv, Conv2D) or not isinstance(unit.relu, ReLU):
                return None
            if conv.engine != "gemm" or conv.stride != 1:
                return None
            if 2 * conv.padding != conv.kernel_size - 1:
                return None
            kernel, k = conv.params["W"], conv.kernel_size
            if height == width == 1:
                # Every other tap multiplies the zero border.
                kernel, k = kernel[:, :, k // 2, k // 2], 1
            weight, bias = _fold(
                kernel.reshape(conv.out_channels, -1), conv.params.get("b"), unit.bn
            )
            stages.append(Stage(weight, bias, channels, height, width, k))
            channels = conv.out_channels
        if block.pool is not None:
            size = block.pool.pool_size
            if not isinstance(block.pool, MaxPool2D) or not block.units:
                return None
            if height % size or width % size:
                return None
            stages[-1] = replace(stages[-1], pool=size)
            height, width = height // size, width // size
    if model.global_pool is not None:
        if not stages:
            return None
        stages[-1] = replace(stages[-1], reduce=True)
    for unit in model.dense_units:
        if not isinstance(unit.relu, ReLU):
            return None
        weight, bias = _fold(unit.dense.params["W"].T, unit.dense.params["b"], unit.bn)
        stages.append(Stage(weight, bias, channels, 1, 1))
        channels = unit.dense.out_features
    if not stages or not isinstance(model.classifier, Dense):
        return None
    return LoweredModel(
        tuple(stages),
        np.ascontiguousarray(model.classifier.params["W"], dtype=_DTYPE),
        model.classifier.params["b"].astype(_DTYPE),
    )


def _gather_table(capacity: int, height: int, width: int, kernel: int, pool: int) -> np.ndarray:
    """Where each element of one channel's whole-batch ``cols`` sits in that
    channel's row of the input buffer, as ``(k * k, p * p, capacity, H * W /
    (p * p))``: :func:`im2col` of the positions themselves.

    The positions are an index image per batch slot — ``(slot * H + row) * W +
    col`` inside, the zero slot ``capacity * H * W`` on the padding border —
    so the columns come out image by image, row-major; they are then put
    behind the position within the ``pool`` x ``pool`` window.  A batch of
    ``n`` reads ``table[:, :, :n]``: nothing in it depends on ``n``.
    """
    pad, pixels = kernel // 2, height * width
    positions = np.full(
        (capacity, 1, height + 2 * pad, width + 2 * pad), capacity * pixels, dtype=np.intp
    )
    positions[:, 0, pad : pad + height, pad : pad + width] = np.arange(capacity * pixels).reshape(
        capacity, height, width
    )
    table = im2col(positions, (kernel, kernel), 1, 0)
    table = table.reshape(capacity, kernel * kernel, height // pool, pool, width // pool, pool)
    table = np.ascontiguousarray(table.transpose(1, 3, 5, 0, 2, 4))
    return table.reshape(kernel * kernel, pool * pool, capacity, -1)


class _BoundStage:
    """A :class:`Stage` bound to its scratch at the plan's capacity: the
    activation buffer it reads, the one it leaves its output in, and what it
    needs in between.  Everything here is independent of the batch size;
    :meth:`run` takes the views a batch of ``n`` needs."""

    __slots__ = ("stage", "bias", "source", "table", "cols", "product", "pooled", "reduced")

    def __init__(self, stage: Stage, source: np.ndarray, buffer, table, cols):
        self.stage = stage
        self.bias = stage.bias[:, None]
        self.source = source
        self.table = table  # None: the GEMM reads ``source`` as it stands
        self.cols = cols  # flat, for ``capacity`` images
        out_channels, pixels = stage.weight.shape[0], stage.height * stage.width
        self.product = buffer(out_channels, pixels)
        self.pooled = self.reduced = None
        if stage.pool > 1:
            pixels //= stage.pool * stage.pool
            self.pooled = buffer(out_channels, pixels)
        if stage.reduce and pixels > 1:
            self.reduced = buffer(out_channels, 1)

    @property
    def result(self) -> np.ndarray:
        """The activation buffer :meth:`run` leaves the stage's output in."""
        for buffer in (self.reduced, self.pooled):
            if buffer is not None:
                return buffer
        return self.product

    def run(self, n: int) -> None:
        stage = self.stage
        length = n * stage.height * stage.width
        if self.table is None:
            cols = self.source[:, :length]
        else:
            # A strided slice unless the batch fills the capacity; ``take``
            # then copies the indices, 1 / channels of what it goes on to move.
            table = self.table[:, :, :n]
            cols = self.cols[: stage.channels * table.size]
            # mode="clip" spares ``out=`` a bounds-checking temporary, as in Conv2D.
            self.source.take(
                table, 1, out=cols.reshape((stage.channels,) + table.shape), mode="clip"
            )
            cols = cols.reshape(-1, length)
        out = self.product[:, :length]
        np.matmul(stage.weight, cols, out=out)
        if self.pooled is not None:
            windows = stage.pool * stage.pool
            length //= windows
            planes = out.reshape(-1, windows, length)
            out = self.pooled[:, :length]
            np.maximum.reduce(planes, axis=1, out=out)
        np.add(out, self.bias, out=out)
        np.maximum(out, _ZERO, out=out)
        if self.reduced is not None:
            out.reshape(-1, n, length // n).mean(2, out=self.reduced[:, :n])


class InferencePlan:
    """The lowered members of an ensemble, run together.

    ``models`` are the ensemble's models in member order; ``lowered`` names
    the positions the plan covers.  :meth:`probabilities` fills those rows of
    a ``(members, samples, classes)`` array and leaves the others to the
    caller (the layer graph).  The scratch is shared, so one request runs at a
    time.
    """

    def __init__(self, models: Sequence[object]):
        plans = [lower_model(model) for model in models]
        self.lowered: Tuple[int, ...] = tuple(i for i, p in enumerate(plans) if p is not None)
        self._members: List[LoweredModel] = [plans[i] for i in self.lowered]
        # Every member sees the same input: members (by position in
        # ``_members``) whose first stages have one geometry run them as one
        # stage on their stacked weights.
        groups: Dict[tuple, List[int]] = {}
        for slot, member in enumerate(self._members):
            groups.setdefault(member.stages[0].geometry, []).append(slot)
        self._groups: List[Tuple[Stage, List[int]]] = []
        for slots in groups.values():
            firsts = [self._members[slot].stages[0] for slot in slots]
            stem = replace(
                firsts[0],
                weight=np.concatenate([stage.weight for stage in firsts]),
                bias=np.concatenate([stage.bias for stage in firsts]),
            )
            self._groups.append((stem, slots))
        self._rows = slice(None) if len(self.lowered) == len(models) else list(self.lowered)
        if self._members:
            first = self._members[0].stages[0]
            self._image, self._pixels = (first.height, first.width), first.height * first.width
            self._head_bias = np.stack([member.head_bias for member in self._members])[:, None, :]
            # Elements per image of the largest ``cols`` any stage gathers.
            self._widest = max(
                (
                    stage.weight.shape[1] * stage.height * stage.width
                    for member in self._members
                    for stage in member.stages
                    if stage.gathers
                ),
                default=0,
            )
        self.scratch = WorkspaceArena()
        self.capacity = 0
        self._lock = threading.Lock()

    def probabilities(self, x: np.ndarray, batch_size: int, out: np.ndarray) -> None:
        """Write the lowered members' class probabilities for ``x`` into their
        rows of ``out``, ``batch_size`` samples at a time."""
        if not self._members:
            return
        with self._lock:
            largest = min(batch_size, x.shape[0])
            if largest > self.capacity:
                # Doubling: a client walking up the sizes rebinds a few times.
                self._bind(1 << (largest - 1).bit_length())
            for start in range(0, x.shape[0], batch_size):
                xb = x[start : start + batch_size]
                n = xb.shape[0]
                images = self._input[:, : n * self._pixels].reshape(-1, n, *self._image)
                np.copyto(images, np.moveaxis(xb, 0, 1).reshape(images.shape), casting="unsafe")
                for step in self._steps:
                    step(n)
                logits = self._logits[:, :n]
                np.add(logits, self._head_bias, out=logits)
                out[self._rows, start : start + batch_size] = softmax(logits, axis=-1)

    def _bind(self, capacity: int) -> None:
        """Bind every stage to scratch for batches of up to ``capacity``: the
        one thing the plan does again when a larger batch arrives."""
        self.scratch.clear()
        tables: Dict[tuple, np.ndarray] = {}
        flip = [0]

        def buffer(channels: int, pixels: int, role: Optional[str] = None) -> np.ndarray:
            # An activation buffer (see the module docstring).  Without a
            # role the name alternates between two, so that a stage never
            # writes the buffer it reads; a named one outlives later stages.
            if role is None:
                flip[0] ^= 1
                role = f"act{flip[0]}"
            return self.scratch.get(role, (channels, capacity * pixels + 1), _DTYPE, True)

        def bind(stage: Stage, source: np.ndarray, role: Optional[str] = None) -> np.ndarray:
            table = cols = None
            if stage.gathers:
                key = (stage.height, stage.width, stage.kernel, stage.pool)
                table = tables.get(key)
                if table is None:
                    table = tables[key] = _gather_table(capacity, *key)
                cols = self.scratch.get("cols", (capacity * self._widest,), _DTYPE)
            bound = _BoundStage(stage, source, partial(buffer, role=role), table, cols)
            self._steps.append(bound.run)
            return bound.result

        def head(features: np.ndarray, weight: np.ndarray, logits: np.ndarray):
            return lambda n: np.matmul(features[:, :n].T, weight, out=logits[:n])

        first = self._members[0].stages[0]
        self._input = buffer(first.channels, first.height * first.width, "input")
        classes = self._head_bias.shape[-1]
        self._logits = self.scratch.get("logits", (len(self._members), capacity, classes), _DTYPE)
        self._steps: List[Callable[[int], None]] = []
        for index, (stem, slots) in enumerate(self._groups):
            stacked = bind(stem, self._input, f"stem{index}")
            row = 0
            for slot in slots:
                member = self._members[slot]
                rows = slice(row, row + member.stages[0].weight.shape[0])
                current, row = stacked[rows], rows.stop
                for stage in member.stages[1:]:
                    current = bind(stage, current)
                self._steps.append(head(current, member.head_weight, self._logits[slot]))
        self.capacity = capacity

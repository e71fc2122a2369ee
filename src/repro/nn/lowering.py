"""Lowering a trained :class:`~repro.nn.model.Model` to an inference plan.

The layer graph is built for training: every layer keeps what its backward
needs, BatchNorm is four passes of its own over the activations, and a
convolution over ``N`` images is ``N`` small GEMMs.  Serving needs none of
that.  :func:`lower_model` reads a trained model once and returns what an
inference pass actually computes — a list of :class:`Stage` records, each
``relu(cols @ W + b)`` with BatchNorm already folded into ``W`` and ``b`` —
and :class:`InferencePlan` runs the stages of a whole ensemble:

* **BatchNorm folded at load.**  ``gamma (W x + b - mean) / sqrt(var + eps) +
  beta`` is ``(s W) x + (s (b - mean) + beta)`` with ``s = gamma / sqrt(var +
  eps)``; the products are taken in float64 and cast once.
* **Pixel-major activations, member after member.**  An activation buffer
  is its members' blocks one after another, each ``(1 + capacity * H * W,
  C)``: a row per pixel holding its ``C`` channels, the batch's images one
  after the other from row 1, and row 0 — the *zero row*.  A convolution of
  ``g`` members over the whole batch is then *one* batched ``cols(g, 1 + N H
  W, k k C) @ W(g, k k C, out)`` GEMM (the weights are folded and transposed
  once, here) whose output is the next stage's input blocks as they stand:
  bias and ReLU are applied to it in place, broadcast along the channels.
* **``cols`` by one lookup.**  One ``take`` along the pixel axis of the input
  blocks through an index table (:func:`_gather_table`: ``im2col`` of the
  pixel positions, as ``Conv2D``'s ``_patch_table`` is) builds ``cols``, so
  one index moves a pixel's ``C`` channels.  A tap that falls on the padding
  reads the zero row, so there is no padded copy of anything.  The table's
  own first row reads the zero row at every tap, so the GEMM writes its
  output blocks' zero rows itself (bias and ReLU skip them): a stage that
  gathers finds zero rows where the stage before it put them, whatever other
  stacks — other widths, other block boundaries — wrote into that buffer.  A
  stage that is max-pooled lists the ``p * p`` window positions first in its
  table, each window's run of rows led by a zero row of its own, so the
  GEMM's output is ``p * p`` contiguous runs and pooling is an elementwise
  maximum of them — taken *before* bias and ReLU, which commute with it (both
  monotone) and then touch a quarter of the elements.  Global average pooling
  is a mean over the pixel axis.  A 1x1 kernel, a hidden dense layer and a
  "same" convolution of a 1x1 image (only its centre tap ever meets a
  non-zero) need no ``cols``: the GEMM reads the activations directly.
* **Members that share a shape share a call.**  Every member sees the same
  images, so members whose first stages have one geometry run them as one
  stage: one lookup, then one broadcast batched GEMM and one epilogue per run
  of members with one stem width.  Below that, members whose stages at one
  depth have the same geometry and weight shape run them as one *stack*: one
  ``take`` over their blocks, one batched ``matmul`` of ``(g, fan_in, out)``
  weights, and one pool, bias and ReLU over all ``g`` blocks.  Members are
  ordered so that every stack's blocks are neighbours in one buffer
  (:mod:`repro.nn.stacking`), so no activation is ever copied.  A member
  leaves a stack where its shape diverges, and a stack is cut where its
  ``cols`` would outgrow the widest any one member gathers, so stacking does
  not grow the scratch.  Once a member is down to 1-pixel activations (its
  *tail*: the dense layers, or every layer of a 1-pixel input, which all
  members then read whole), the depth it got there at no longer matters: the
  tails run a step at a time for every member at once, from one buffer, so
  members that parted above meet in one stack again, and their heads are
  ``(g, n, C) @ (g, C, classes)``.  A batched GEMM is the GEMMs it stands
  for, so a member gets the bits it gets from a plan of its own.
* **One scratch, one call list.**  Nothing is kept for a backward, so every
  buffer comes from one :class:`~repro.nn.workspace.WorkspaceArena` shared by
  all stages and members; one ``cols`` buffer serves every stage, and the
  tails' two buffers live in it once nothing gathers any more.  Buffers and
  tables are bound once (:meth:`InferencePlan._bind`) for a *capacity* — the
  largest batch seen, rounded up to a power of two — and a batch of ``n``
  uses their first ``n`` images: ``table[:, : 1 + n * H * W / (p * p)]``,
  ``blocks[:, : 1 + n * H * W]``.  A block's pitch is then the capacity's,
  not the batch's; the arithmetic does not see it.  What a batch of ``n``
  runs is a flat list of ``(function, args, kwargs)`` numpy calls on views of
  the scratch (:meth:`InferencePlan._build`): built when ``n`` is not the
  last batch's size and replaced by the next size's, never kept per size.  A
  larger batch rebinds, and the memory stays at what the largest batch
  needed.
* **One request, several cores.**  Run through a :class:`ShardThreads`, a
  batch of more than :data:`SHARD_ROWS` rows is cut into ``ceil(rows /
  SHARD_ROWS)`` near-equal contiguous shards (:func:`shard_slices`).  Each
  shard is bound like a batch of its own — buffers and call list of its own,
  for ``min(capacity, SHARD_ROWS)`` rows, the gather tables shared — and
  writes its own rows of ``out``.  The calling thread runs shard 0, helper
  threads ``repro-infer-<k>`` the others.  The cut depends on the row count
  alone, so the bits do not depend on how many threads ran it: a shard's bits
  are those of the same rows served as a request of their own.  Splitting
  costs no scratch (two 128-row shards hold what one 256-row batch held,
  plus their zero rows) and, run on one thread, no time.  A plan run without
  a ``ShardThreads`` runs each batch whole.  The crossover that sets
  ``SHARD_ROWS`` (benchmark artifact, 2 vCPUs, BLAS on one thread, median
  ms of 60 interleaved calls; "whole" is one batch on one thread)::

      rows   whole   S=32 1t/2t    S=64 1t/2t    S=128 1t/2t
        64    3.15   3.41 / 3.17   3.05 / 3.09   3.20 / 3.20
        96    4.62   5.35 / 4.73   4.97 / 3.89   4.45 / 4.42
       128    6.17   6.83 / 5.58   6.12 / 4.23   6.06 / 5.99
       192    9.20  10.92 / 8.56   9.16 / 6.93   8.79 / 5.30
       256   11.48  13.78 /11.69  11.97 / 7.91  11.52 / 7.08

  Below ~64 rows a shard's fixed cost (its ~145 calls, the hand-off to a
  helper) eats what a second core gives; 128-row shards are best where the
  benchmark's requests are.  A lane runs on its share of the usable cores,
  ``max(1, cpu_count() // lanes)``
  (:func:`repro.utils.parallel.lane_threads`): a serving pool's workers split
  them, as do a fleet's ``max_consumers`` consumers, and a predictor nobody
  divides owns them all.

The plan is a snapshot of the weights at lowering time, and it is exact in
real arithmetic, not in floating point: probabilities differ from the graph's
by a few float32 ulps (``tests/nn/test_lowering.py`` states the tolerance).
The graph stays the numerical reference — ``Ensemble.predict_proba_all`` and
everything that trains never come here — and a model the plan does not cover
(:func:`lower_model` returns ``None``) is left to it, bit for bit.
"""

from __future__ import annotations

import queue
import threading
import weakref
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import stacking
from repro.nn.layers import BatchNorm, Conv2D, Dense, MaxPool2D, ReLU, im2col
from repro.nn.model import Model
from repro.nn.workspace import WorkspaceArena

_DTYPE = np.dtype(np.float32)
#: A batch run through :class:`ShardThreads` of more rows than this runs as
#: ``ceil(rows / SHARD_ROWS)`` shards (see "One request, several cores").
SHARD_ROWS = 128


@dataclass(frozen=True)
class Stage:
    """``relu(cols @ weight + bias)`` on ``channels`` x ``height`` x ``width``
    images under a ``kernel`` x ``kernel`` "same" window, then ``pool`` x
    ``pool`` max-pooling and, for ``reduce``, the mean over what is left of
    the image."""

    weight: np.ndarray  # (kernel * kernel * channels, out), BatchNorm folded in
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
    def fan_in(self) -> int:
        """Rows of ``weight``: a pixel's taps, channel by channel."""
        return self.weight.shape[0]

    @property
    def pixels(self) -> int:
        """Pixels of one input image."""
        return self.height * self.width

    @property
    def window(self) -> tuple:
        """What the stage's gather table depends on."""
        return (self.height, self.width, self.kernel, self.pool)

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

    def channels(self, depth: int) -> int:
        """The channels stage ``depth`` leaves: its rows of an activation buffer."""
        return self.stages[depth].weight.shape[1]


def _fold(weight: np.ndarray, bias: Optional[np.ndarray], bn: Optional[BatchNorm]):
    """``(fan_in, out)`` weight and bias with ``bn``'s inference transform
    folded in; float64 throughout, cast once."""
    weight = weight.astype(np.float64)
    bias = np.zeros(weight.shape[1]) if bias is None else bias.astype(np.float64)
    if bn is not None:
        scale = bn.params["gamma"].astype(np.float64) / np.sqrt(
            bn.state["running_var"].astype(np.float64) + bn.eps
        )
        weight *= scale
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
                kernel, k = kernel[:, :, k // 2 : k // 2 + 1, k // 2 : k // 2 + 1], 1
            # (out, channels, k, k) -> rows in the order of a pixel's cols: tap, channel.
            kernel = kernel.transpose(2, 3, 1, 0).reshape(-1, conv.out_channels)
            weight, bias = _fold(kernel, conv.params.get("b"), unit.bn)
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
        if height * width > 1:  # the mean of a 1-pixel image is the image
            stages[-1] = replace(stages[-1], reduce=True)
    for unit in model.dense_units:
        if not isinstance(unit.relu, ReLU):
            return None
        weight, bias = _fold(unit.dense.params["W"], unit.dense.params["b"], unit.bn)
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
    """Which pixel of a member's block of the input buffer each row of
    ``cols`` reads at each tap, as ``(p * p, 1 + capacity * H * W / (p * p),
    k * k)``: :func:`im2col` of the positions themselves.

    The positions are an index image per batch slot — ``1 + (slot * H + row)
    * W + col`` inside, the zero row ``0`` on the padding border — so the
    rows come out image by image, row-major; they are then put behind the
    position within the ``pool`` x ``pool`` window, and each window's run
    starts with a row that reads the zero row at every tap.  A batch of ``n``
    reads ``table[:, : 1 + n * H * W / (p * p)]``: nothing in it depends on
    ``n``.
    """
    pad, pixels, windows = kernel // 2, height * width, pool * pool
    positions = np.zeros((capacity, 1, height + 2 * pad, width + 2 * pad), dtype=np.intp)
    positions[:, 0, pad : pad + height, pad : pad + width] = np.arange(
        1, 1 + capacity * pixels
    ).reshape(capacity, height, width)
    table = im2col(positions, (kernel, kernel), 1, 0)
    table = table.reshape(capacity, kernel * kernel, height // pool, pool, width // pool, pool)
    table = table.transpose(3, 5, 0, 2, 4, 1).reshape(windows, -1, kernel * kernel)
    return np.concatenate([np.zeros((windows, 1, kernel * kernel), dtype=np.intp), table], axis=1)


def shard_slices(rows: int, limit: int) -> List[slice]:
    """``ceil(rows / limit)`` contiguous runs of ``rows`` rows, near-equal:
    the first ``rows % count`` of them one row longer."""
    count = -(-rows // limit)
    size, extra = divmod(rows, count)
    bounds = [k * size + min(k, extra) for k in range(count + 1)]
    return [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]


def _release(inboxes: List["queue.SimpleQueue"]) -> None:
    """End the helpers reading ``inboxes`` once they have run what they hold."""
    for inbox in inboxes:
        inbox.put(None)
    inboxes.clear()


def _serve_shards(inbox: "queue.SimpleQueue") -> None:
    """A helper thread of :class:`ShardThreads`: run each batch of shards it
    is handed and report on that batch's ``done`` queue; ``None`` ends it."""
    while True:
        item = inbox.get()
        if item is None:
            return
        tasks, done = item
        try:
            for task in tasks:
                task()
        except BaseException as exc:  # handed to the caller, which raises it
            done.put(exc)
        else:
            done.put(None)


class ShardThreads:
    """The threads a request's shards run on: the calling thread and up to
    ``count - 1`` helpers, ``repro-infer-1`` ..., each started the first time
    a batch has a shard for it.  Shard ``i`` runs on thread ``i % count`` (0
    is the caller), in scratch of its own, so the thread never reaches the
    bits.  :meth:`close` stops the helpers — so does dropping the last
    reference — and a batch run after it runs every shard on the calling
    thread.
    """

    def __init__(self, count: int):
        if count < 1:
            raise ValueError("an inference lane needs at least one thread")
        self.count = int(count)
        self._inboxes: List[queue.SimpleQueue] = []
        self._helpers: List[threading.Thread] = []
        self._lock = threading.Lock()  # starting and handing out vs close()
        self._closed = False
        weakref.finalize(self, _release, self._inboxes)

    def run(self, tasks: Sequence[Callable[[], None]]) -> None:
        """Run every task and return once all have, raising the first error."""
        lanes = min(self.count, len(tasks))
        done: queue.SimpleQueue = queue.SimpleQueue()
        with self._lock:
            if self._closed:
                lanes = 1
            while len(self._helpers) < lanes - 1:
                inbox: queue.SimpleQueue = queue.SimpleQueue()
                helper = threading.Thread(
                    target=_serve_shards,
                    args=(inbox,),
                    name=f"repro-infer-{len(self._helpers) + 1}",
                    daemon=True,
                )
                helper.start()
                self._inboxes.append(inbox)
                self._helpers.append(helper)
            for lane in range(1, lanes):
                self._inboxes[lane - 1].put((tasks[lane::lanes], done))
        error: Optional[BaseException] = None
        try:
            for task in tasks[::lanes]:
                task()
        except BaseException as exc:
            error = exc
        # Every helper's shards write this request's scratch: wait for all.
        for _ in range(lanes - 1):
            failure = done.get()
            error = error or failure
        if error is not None:
            raise error

    def close(self) -> None:
        """Stop the helpers once they have run what they were handed
        (idempotent)."""
        with self._lock:
            self._closed = True
            helpers, self._helpers = self._helpers, []
            _release(self._inboxes)
        for helper in helpers:
            helper.join()


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
        order = stacking.order(plans, self.lowered)
        # The logits in the plan's order; ``_rows`` puts them back at their
        # members' positions in the ensemble.
        members = [plans[i] for i in order]
        self._rows = slice(None) if order == list(range(len(models))) else order
        self.scratch = WorkspaceArena()
        # The largest batch the scratch holds, and the rows of one shard's
        # part of it (see _bind).
        self.capacity = self._shard_capacity = 0
        self._lock = threading.Lock()
        # Per shard: its bound records, and the call list of its last size.
        self._bound: List[tuple] = []
        self._runs: List[Optional[tuple]] = []
        if not members:
            return
        first = members[0].stages[0]
        self._image = (first.channels, first.height, first.width)
        self._head_bias = np.stack([member.head_bias for member in members])[:, None, :]
        self._input: stacking.Buffer = ("input", first.pixels)
        self._ops = stacking.plan(members, self._input)

    @property
    def _run(self) -> Optional[tuple]:
        """Shard 0's call list: all a batch that is one shard runs."""
        return self._runs[0] if self._runs else None

    def probabilities(
        self,
        x: np.ndarray,
        batch_size: int,
        out: np.ndarray,
        threads: Optional[ShardThreads] = None,
    ) -> None:
        """Write the lowered members' class probabilities for ``x`` into their
        rows of ``out``, ``batch_size`` samples at a time.

        With ``threads``, a batch of more than :data:`SHARD_ROWS` rows runs
        as :func:`shard_slices` on them; without, each batch is one shard."""
        if not self.lowered:
            return
        with self._lock:
            largest = min(batch_size, x.shape[0])
            capacity = self.capacity
            if largest > capacity:
                # Doubling: a client walking up the sizes rebinds a few times.
                capacity = 1 << (largest - 1).bit_length()
            limit = capacity if threads is None else min(capacity, SHARD_ROWS)
            if (capacity, limit) != (self.capacity, self._shard_capacity):
                self._bind(capacity, limit)
            for start in range(0, x.shape[0], batch_size):
                xb, ob = x[start : start + batch_size], out[:, start : start + batch_size]
                if xb.shape[0] <= limit:
                    self._run_shard(0, xb, ob)
                else:
                    shards = enumerate(shard_slices(xb.shape[0], limit))
                    threads.run([partial(self._run_shard, k, xb[r], ob[:, r]) for k, r in shards])

    def _run_shard(self, k: int, xb: np.ndarray, out: np.ndarray) -> None:
        """Shard ``k`` of a batch: ``xb``'s probabilities into ``out``'s
        lowered rows, in the shard's own scratch."""
        run = self._runs[k]
        if run is None or run[0] != xb.shape[0]:
            run = self._runs[k] = self._build(self._bound[k], xb.shape[0])
        _, images, calls, probabilities = run
        pixels = np.moveaxis(xb.reshape(-1, *self._image), 1, -1)
        np.copyto(images, pixels, casting="unsafe")
        for function, args, kwargs in calls:
            function(*args, **kwargs)
        out[self._rows] = probabilities

    def _bind(self, capacity: int, limit: int) -> None:
        """Bind every record to scratch for batches of up to ``capacity`` in
        shards of up to ``limit`` rows — ``ceil(capacity / limit)`` of them,
        each with buffers of its own: the one thing the plan does again when a
        larger batch arrives."""
        # Nothing bound at the old capacity outlives it, and the tables (an
        # im2col of the positions each, read by every shard) are built
        # before the scratch is there.
        self._bound, self._runs = [], []
        self.scratch.clear()
        tables: Dict[tuple, np.ndarray] = {}
        for op in self._ops:
            if isinstance(op, stacking.Stack) and op.stage.gathers and op.stage.window not in tables:
                tables[op.stage.window] = _gather_table(limit, *op.stage.window)
        count = -(-capacity // limit)
        self._bound = [self._bind_shard(f"{k}:", limit, tables) for k in range(count)]
        self._runs = [None] * count
        self.capacity, self._shard_capacity = capacity, limit

    def _bind_shard(self, prefix: str, capacity: int, tables: Dict[tuple, np.ndarray]) -> tuple:
        """``(inputs, logits, norm, records)`` of one shard of ``capacity``
        rows, its buffers the scratch's under ``prefix``."""
        stacks = [op for op in self._ops if isinstance(op, stacking.Stack)]
        channels = self._image[0]
        sizes = {self._input: channels * stacking.pitch(self._input, capacity)}
        for op in stacks:
            for key, size in op.extents(capacity):
                sizes[key] = max(sizes.get(key, 0), size)
        tails = [sizes.pop(key, 0) for key in stacking.TAILS]
        gathered = max((op.gathered(capacity) for op in stacks), default=0)
        cols = self.scratch.get(prefix + "cols", (max(gathered, sum(tails)),), _DTYPE)
        buffers = {
            key: self.scratch.get(f"{prefix}{key[0]}/{key[1]}", (size,), _DTYPE, True)
            for key, size in sizes.items()
        }
        buffers.update(zip(stacking.TAILS, np.split(cols[: sum(tails)], [tails[0]])))
        members, _, classes = self._head_bias.shape
        logits = self.scratch.get(prefix + "logits", (members, capacity, classes), _DTYPE)
        norm = self.scratch.get(prefix + "norm", (members, capacity, 1), _DTYPE)
        records = [
            op.bind(buffers, logits, capacity)
            if isinstance(op, stacking.Head)
            else op.bind(buffers, tables.get(op.stage.window), cols, capacity)
            for op in self._ops
        ]
        inputs = buffers[self._input].reshape(-1, channels)
        return inputs, logits, norm, records

    def _build(self, bound: tuple, n: int) -> tuple:
        """``(n, images, calls, probabilities)``: the calls of a shard of
        ``n`` rows on its ``bound`` records, built when ``n`` is not the
        shard's last size and never kept for another, the view its images go
        into and the one its probabilities come out of."""
        inputs, logits, norm, records = bound
        channels, height, width = self._image
        # Row 0 is the input's zero row: never written.
        images = inputs[1 : 1 + n * height * width].reshape(n, height, width, channels)
        calls = [call for record in records for call in record(n)]
        # The head's bias, then softmax in place.
        logits, norm = logits[:, :n], norm[:, :n]
        calls += [
            (np.add, (logits, self._head_bias), {"out": logits}),
            (np.maximum.reduce, (logits,), {"axis": 2, "keepdims": True, "out": norm}),
            (np.subtract, (logits, norm), {"out": logits}),
            (np.exp, (logits,), {"out": logits}),
            (np.add.reduce, (logits,), {"axis": 2, "keepdims": True, "out": norm}),
            (np.divide, (logits, norm), {"out": logits}),
        ]
        return n, images, calls, logits

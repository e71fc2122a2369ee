"""Which stages of an ensemble's lowered members run as one call.

:class:`~repro.nn.lowering.InferencePlan` runs the stages of every member of
an ensemble; this module decides how they share calls (the rules are the
lowering module's "Members that share a shape share a call") and returns the
records the plan binds and runs, in run order: :class:`Stack` (one stage of
``g`` members) and :class:`Head` (their classifiers).

* :func:`order` puts the members in an order in which every stack's members
  are neighbours in one buffer, so no activation is ever copied.  A buffer is
  its members' blocks one after another (:func:`blocks`), each ``(pitch,
  channels)``, pixel-major; a record names its part of a buffer by rows —
  channels, summed over the members before it — which :func:`blocks` turns
  into the ``(g, pitch, channels)`` view it runs on.
* :func:`plan` walks the image stages as a tree — members part where their
  stages' shapes do, and a gathering stack is cut where its ``cols`` would
  outgrow :func:`widest` — each branch leaving its members' first 1-pixel
  activations in :data:`ENTRY`.  From there it runs the tails a step at a time
  for every member at once, so members that parted above stack again.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, groupby
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.nn.lowering import LoweredModel, Stage

_ZERO = np.zeros((), dtype=np.float32)

#: An activation buffer of the plan's scratch, ``(role, pixels)``: bound flat,
#: for the most rows (channels, summed over members) any record keeps in it,
#: each row :func:`pitch` elements.
Buffer = Tuple[str, int]
#: Where each member's images end: its first 1-pixel activations, member
#: after member in the plan's order.  The tails start from here.
ENTRY: Buffer = ("entry", 1)
#: The two buffers the tails alternate between.  No stage gathers after the
#: images, so the plan binds them inside ``cols``.
TAILS: Tuple[Buffer, Buffer] = (("tail0", 1), ("tail1", 1))
#: One numpy call, ``function(*args, **kwargs)``, on views of the scratch.
Call = Tuple[Callable, tuple, dict]
#: A record bound to the scratch: the calls a batch of ``n`` makes.
Calls = Callable[[int], List[Call]]


def pitch(buffer: Buffer, capacity: int, windows: int = 1) -> int:
    """Rows of one member's block of ``buffer`` at ``capacity``: a zero row
    per pooling window, then ``capacity`` images of ``buffer[1]`` pixels."""
    return windows + capacity * buffer[1]


def blocks(buffer: np.ndarray, rows: int, span: slice, channels: int) -> np.ndarray:
    """The members' blocks of ``channels`` channels that take the ``span``
    rows of a flat ``buffer`` (channels, summed over members), as ``(g,
    rows, channels)``: member after member, pixel after pixel.  A ``span``
    of ``slice(None)`` is one block that every member reads."""
    start, stop = span.start or 0, channels if span.stop is None else span.stop
    return buffer[start * rows : stop * rows].reshape(-1, rows, channels)


@dataclass(frozen=True)
class Stack:
    """One stage of ``g`` members run as one: the ``i``-th block of the
    ``rows`` of ``source`` is member ``i``'s input (``slice(None)``: every
    member reads all of it), and its output is the ``i``-th block of the last
    of ``buffers``, from row ``at`` on.  Any buffers before that hold the
    GEMM's product and the pooled activations of a stage that pools or
    reduces."""

    #: The first member's stage: the geometry every member shares.
    stage: Stage
    #: ``(weight, bias)`` per run of members with one weight shape, in
    #: member order: ``weight`` ``(g, fan_in, out)``, ``bias`` ``(g, 1,
    #: pixels * out)``, repeated for each pixel of an output image, so that
    #: adding it runs a whole image at a time.  Only a stem (every member
    #: reads the same input) has more than one: one per stem width.
    parts: Tuple[Tuple[np.ndarray, np.ndarray], ...]
    source: Buffer
    rows: slice
    buffers: Tuple[Buffer, ...]
    at: int = 0

    @classmethod
    def of(cls, stages: Sequence[Stage], **where) -> "Stack":
        """``stages``, one per member, stacked: one ``(g, fan_in, out)``
        weight per run of neighbours with one weight shape.  One member's
        weight is a view of its own."""
        first, parts = stages[0], []
        pixels = first.pixels // (first.pool * first.pool)
        for _, run in groupby(stages, key=lambda stage: stage.weight.shape):
            run = list(run)
            if len(run) == 1:
                weight = run[0].weight[None]
            else:
                weight = np.stack([stage.weight for stage in run])
            bias = np.stack([np.tile(stage.bias, pixels) for stage in run])[:, None]
            parts.append((weight, bias))
        return cls(first, tuple(parts), **where)

    @property
    def channels(self) -> int:
        """Rows the stack writes in each of its buffers: its members' outputs."""
        return sum(weight.shape[0] * weight.shape[2] for weight, _ in self.parts)

    def pitches(self, capacity: int) -> List[int]:
        """The block rows of each of ``buffers`` at ``capacity``: a pooling
        stage's product has a zero row per window."""
        windows = self.stage.pool * self.stage.pool
        return [
            pitch(key, capacity, windows if i == 0 else 1) for i, key in enumerate(self.buffers)
        ]

    def extents(self, capacity: int) -> List[Tuple[Buffer, int]]:
        """How many elements of each of ``buffers`` the stack uses at ``capacity``."""
        ends = [self.channels] * (len(self.buffers) - 1) + [self.at + self.channels]
        pitches = self.pitches(capacity)
        return [(key, end * rows) for key, end, rows in zip(self.buffers, ends, pitches)]

    def gathered(self, capacity: int) -> int:
        """Elements of ``cols`` the stack fills at ``capacity`` (0: none)."""
        stage = self.stage
        if not stage.gathers:
            return 0
        # One block read per member, or one that every member reads.
        read = stage.channels if self.rows == slice(None) else self.rows.stop - self.rows.start
        return read * pitch(self.source, capacity, stage.pool * stage.pool) * stage.kernel**2

    def bind(
        self, buffers: Dict[Buffer, np.ndarray], table, cols: np.ndarray, capacity: int
    ) -> Calls:
        """The calls a batch of ``n`` makes, on ``buffers`` (and, for a
        gathering stage, ``table`` and ``cols``) bound at ``capacity``."""
        stage = self.stage
        windows = stage.pool * stage.pool
        rows = pitch(self.source, capacity)
        source = blocks(buffers[self.source], rows, self.rows, stage.channels)
        pitches, parts, row = self.pitches(capacity), [], 0
        for weight, bias in self.parts:
            height = weight.shape[0] * weight.shape[2]
            starts = [row] * (len(self.buffers) - 1) + [self.at + row]
            views = [
                blocks(buffers[key], size, slice(start, start + height), weight.shape[2])
                for key, size, start in zip(self.buffers, pitches, starts)
            ]
            parts.append((weight, bias, views))
            row += height

        def calls(n: int) -> List[Call]:
            # The zero rows, then the images: a pooling stage's cols and
            # product are one such run per window.
            length = windows + n * stage.pixels
            if table is None:
                operand, steps = source[:, :length], []
            else:
                # A strided slice unless the batch fills the capacity or the
                # stage does not pool; ``take`` then copies the indices.
                indices = table[:, : length // windows]
                gathered = cols[: len(source) * indices.size * stage.channels]
                gathered = gathered.reshape(source.shape[:1] + indices.shape + source.shape[2:])
                # mode="clip" spares ``out=`` a bounds-checking temporary, as in Conv2D.
                steps = [(source.take, (indices, 1), {"out": gathered, "mode": "clip"})]
                operand = gathered.reshape(len(source), length, -1)
            for weight, bias, (product, *rest) in parts:
                # The zero rows of ``operand`` are zero, so are the product's.
                out = product[:, :length]
                steps.append((np.matmul, (operand, weight), {"out": out}))
                if windows > 1:
                    planes = out.reshape(len(out), windows, -1, out.shape[2])
                    out = rest[0][:, : length // windows]
                    steps.append((np.maximum.reduce, (planes,), {"axis": 1, "out": out}))
                # Image after image, (g, n, pixels * out).
                images = out[:, 1:].reshape(len(out), n, -1)
                steps.append((np.add, (images, bias), {"out": images}))
                steps.append((np.maximum, (images, _ZERO), {"out": images}))
                if stage.reduce:
                    pixels = images.reshape(len(out), n, -1, out.shape[2])
                    steps.append((pixels.mean, (2,), {"out": rest[-1][:, 1 : n + 1]}))
            return steps

        return calls


@dataclass(frozen=True)
class Head:
    """The classifiers of the members at ``slots`` (of the plan's order), run
    as one batched GEMM on the ``rows`` of ``source``."""

    weight: np.ndarray  # (g, features, classes)
    source: Buffer
    rows: slice
    slots: slice

    def bind(self, buffers: Dict[Buffer, np.ndarray], logits: np.ndarray, capacity: int) -> Calls:
        rows = pitch(self.source, capacity)
        source = blocks(buffers[self.source], rows, self.rows, self.weight.shape[1])
        logits = logits[self.slots]

        def calls(n: int) -> List[Call]:
            return [(np.matmul, (source[:, 1 : n + 1], self.weight), {"out": logits[:, :n]})]

        return calls


def _key(member: LoweredModel, depth: int) -> tuple:
    """What members must share to run their stage ``depth`` as one stack:
    the geometry and the weight's shape; past the last stage, the head's."""
    if depth == len(member.stages):
        return ("head", member.head_weight.shape)
    stage = member.stages[depth]
    return (stage.geometry, stage.weight.shape)


def _tail(member: LoweredModel) -> int:
    """The depth at which ``member``'s tail starts: its first stage that reads
    1-pixel activations (its length if there is none)."""
    return next(
        (depth for depth, stage in enumerate(member.stages) if stage.pixels == 1),
        len(member.stages),
    )


def _image_key(member: LoweredModel, depth: int) -> tuple:
    """:func:`_key` above the tail, where a stem (every member reads its
    input) needs only the geometry; the whole tail is one leaf."""
    if depth == _tail(member):
        return ("tail",)
    key = _key(member, depth)
    return key if depth else (key[0], None)


def _tail_key(member: LoweredModel, step: int) -> tuple:
    """:func:`_key` of the ``step``-th stage of the tail."""
    return _key(member, _tail(member) + step)


def _stacking_order(members, slots, key: Callable[[LoweredModel, int], tuple], depth: int = 0):
    """``slots`` ordered so that the members of every stack ``key`` allows,
    at every depth, are neighbours: grouped by their key at ``depth`` (in the
    order ``slots`` are in), each group ordered the same way one depth down.
    A key whose first item is a string is a leaf."""
    groups: Dict[tuple, List[int]] = {}
    for slot in slots:
        groups.setdefault(key(members[slot], depth), []).append(slot)
    return [
        slot
        for name, group in groups.items()
        for slot in (
            group if isinstance(name[0], str) else _stacking_order(members, group, key, depth + 1)
        )
    ]


def _runs(slots: List[int]) -> List[List[int]]:
    """``slots`` cut wherever the next one is not the next integer."""
    runs = [[slots[0]]]
    for slot in slots[1:]:
        if slot == runs[-1][-1] + 1:
            runs[-1].append(slot)
        else:
            runs.append([slot])
    return runs


def order(members: Sequence[LoweredModel], slots: Sequence[int]) -> List[int]:
    """``slots`` (positions in ``members``) in the order the plan keeps its
    members in: the tails' stacks are neighbours, and :func:`plan` reorders
    the image stages' own way on top of it."""
    return _stacking_order(members, slots, _tail_key)


def widest(members: Sequence[LoweredModel]) -> int:
    """Elements per image of the largest ``cols`` any one member gathers: an
    image stack is cut where its own would be larger."""
    return max(
        (
            stage.fan_in * stage.pixels
            for member in members
            for stage in member.stages
            if stage.gathers
        ),
        default=0,
    )


def plan(members: Sequence[LoweredModel], source: Buffer) -> List[object]:
    """The :class:`Stack` and :class:`Head` records that run ``members`` (in
    :func:`order`) on the input ``source``, in run order.  They hold every
    weight the plan runs."""
    return _Planner(members, source).ops


class _Planner:
    """One walk over the members, appending their records to ``ops``."""

    def __init__(self, members: Sequence[LoweredModel], source: Buffer):
        self.members, self.widest, self.ops = members, widest(members), []
        if source[1] == 1:  # no images: every stage is the tail's
            self.tails(source)
            return
        # Where each member's rows of ENTRY start.
        self.entry = list(accumulate((m.channels(_tail(m) - 1) for m in members), initial=0))
        for stem in self.split(_stacking_order(members, range(len(members)), _image_key), 0):
            self.images(stem, 0, source, slice(None))
        self.tails(ENTRY)

    def split(self, slots: List[int], depth: int) -> List[List[int]]:
        """``slots``, neighbours in the images' order, cut into the stacks
        that run their image stage ``depth``: one per key, cut again where a
        gathering stack's ``cols`` would outgrow ``widest``, and where the
        members of a stack that writes ``ENTRY`` are not neighbours there."""
        groups: Dict[tuple, List[int]] = {}
        for slot in slots:
            groups.setdefault(_image_key(self.members[slot], depth), []).append(slot)
        stacks = []
        for group in groups.values():
            member = self.members[group[0]]
            stage, per = member.stages[depth], len(group)
            if depth and stage.gathers:
                per = max(1, self.widest // (stage.fan_in * stage.pixels))
            for start in range(0, len(group), per):
                chunk = group[start : start + per]
                stacks += _runs(chunk) if _tail(member) == depth + 1 else [chunk]
        return stacks

    def images(self, slots: List[int], depth: int, source: Buffer, rows: slice) -> None:
        """Plan image stage ``depth`` of the members ``slots``, whose inputs
        are the ``rows`` of ``source``, and everything below it down to
        ``ENTRY``."""
        stages = [self.members[slot].stages[depth] for slot in slots]
        stage = stages[0]
        shapes = [stage.pixels]
        if stage.pool > 1:
            shapes.append(stage.pixels // (stage.pool * stage.pool))
        if stage.reduce:
            shapes.append(1)
        enters = _tail(self.members[slots[0]]) == depth + 1
        below = [] if enters else self.split(slots, depth + 1)
        buffers, role = [], source[0]
        for shape in shapes:
            # Alternating, so that a stage never writes what it reads.
            role = "act1" if role == "act0" else "act0"
            buffers.append((role, shape))
        if enters:
            buffers[-1] = ENTRY
        elif len(below) > 1:
            buffers[-1] = (f"live{depth}", shapes[-1])  # read by every stack below
        at = self.entry[slots[0]] if enters else 0
        where = dict(source=source, rows=rows, buffers=tuple(buffers), at=at)
        self.ops.append(Stack.of(stages, **where))
        row = 0
        for stack in below:
            span = slice(row, row + sum(self.members[slot].channels(depth) for slot in stack))
            self.images(stack, depth + 1, buffers[-1], span)
            row = span.stop

    def tails(self, source: Buffer) -> None:
        """Plan the tails a step at a time for every member at once: step ``t``
        reads what step ``t - 1`` left in one buffer, members in the plan's
        order, and neighbours with one key run as one stack, whichever image
        stages they came from.  Step 0 reads ``source``: ``ENTRY``, or the
        input, which every member reads whole."""
        layout, step, whole = list(range(len(self.members))), 0, source != ENTRY
        while layout:
            target, below, row, at = TAILS[step % 2], [], 0, 0
            runs: List[Tuple[tuple, List[int]]] = []
            for slot in layout:
                key = _tail_key(self.members[slot], step)
                last = runs[-1] if runs else (None, [])
                # A head writes its members' logits: they must be neighbours there too.
                if last[0] == key and (key[0] != "head" or slot == last[1][-1] + 1):
                    last[1].append(slot)
                else:
                    runs.append((key, [slot]))
            for key, run in runs:
                members = [self.members[slot] for slot in run]
                depths = [_tail(member) + step for member in members]
                if whole:
                    span = slice(None)
                else:
                    height = sum(m.channels(d - 1) for m, d in zip(members, depths))
                    span = slice(row, row + height)
                    row = span.stop
                if key[0] == "head":
                    weight = np.stack([member.head_weight for member in members])
                    self.ops.append(Head(weight, source, span, slice(run[0], run[-1] + 1)))
                    continue
                stages = [m.stages[d] for m, d in zip(members, depths)]
                stack = Stack.of(stages, source=source, rows=span, buffers=(target,), at=at)
                self.ops.append(stack)
                at += stack.channels
                below += run
            layout, source, step, whole = below, target, step + 1, False

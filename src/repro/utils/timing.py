"""Wall-clock timing helpers used by the training-cost accounting layer.

Besides the per-network accounting (:class:`Timer`,
:class:`WallClockAccumulator`), this module hosts the *compute-phase*
registry: hot-path layers report how long they spend in each internal phase
so the cost ledger can split training time into data movement versus BLAS
compute.  The phases:

* ``conv.im2col`` — padding and patch gather of the forward pass;
* ``conv.gemm`` — the forward product, the weight-gradient ``tensordot`` and
  the input-gradient product (with its copy onto the padded row pitch);
* ``conv.bias`` — bias add and bias gradient;
* ``conv.col2im`` — the input-gradient scatter;
* ``norm.forward`` / ``norm.backward`` — ``BatchNorm``, one record per call;
* ``pool.forward`` / ``pool.backward`` — ``MaxPool2D``, one record per call.

The registry is off unless a caller enables it via
:func:`enable_phase_timing` or :func:`capture_phase_timings`; note the
ensemble trainers *do* enable it for their fits by default (a
``perf_counter`` pair per record — well under a percent of a fit; pass
``collect_phase_timings=False`` to train fully uninstrumented).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional


class Timer:
    """A simple start/stop wall-clock timer.

    Can be used directly or as a context manager::

        with Timer() as t:
            work()
        print(t.elapsed)
    """

    def __init__(self) -> None:
        self._start: float | None = None
        self.elapsed: float = 0.0

    def start(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def stop(self) -> float:
        if self._start is None:
            raise RuntimeError("Timer.stop() called before start()")
        self.elapsed += time.perf_counter() - self._start
        self._start = None
        return self.elapsed

    def __enter__(self) -> "Timer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


@dataclass
class WallClockAccumulator:
    """Accumulates wall-clock time under named categories.

    Used by the ensemble trainers to split total training time into
    per-network contributions (the breakdown shown in Figure 5b of the paper).
    """

    totals: Dict[str, float] = field(default_factory=dict)

    def add(self, category: str, seconds: float) -> None:
        self.totals[category] = self.totals.get(category, 0.0) + float(seconds)

    @contextmanager
    def measure(self, category: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(category, time.perf_counter() - start)

    @property
    def total(self) -> float:
        return float(sum(self.totals.values()))

    def merge(self, other: "WallClockAccumulator") -> "WallClockAccumulator":
        merged = WallClockAccumulator(dict(self.totals))
        for key, value in other.totals.items():
            merged.add(key, value)
        return merged


# ---------------------------------------------------------------------------
# Compute-phase registry (opt-in, consumed by the cost ledger)
# ---------------------------------------------------------------------------

_phase_accumulator: Optional[WallClockAccumulator] = None


def phase_timing_enabled() -> bool:
    """Whether hot-path layers should report per-phase timings."""
    return _phase_accumulator is not None


def enable_phase_timing() -> WallClockAccumulator:
    """Turn the phase registry on (idempotent); returns the accumulator."""
    global _phase_accumulator
    if _phase_accumulator is None:
        _phase_accumulator = WallClockAccumulator()
    return _phase_accumulator


def disable_phase_timing() -> None:
    """Turn the phase registry off and drop accumulated totals."""
    global _phase_accumulator
    _phase_accumulator = None


def record_phase(category: str, seconds: float) -> None:
    """Report ``seconds`` spent in ``category``; no-op while disabled."""
    acc = _phase_accumulator
    if acc is not None:
        acc.add(category, seconds)


def phase_timings() -> Dict[str, float]:
    """Snapshot of the accumulated per-phase totals (empty while disabled)."""
    acc = _phase_accumulator
    return dict(acc.totals) if acc is not None else {}


@contextmanager
def capture_phase_timings() -> Iterator[Dict[str, float]]:
    """Enable phase timing for the block and capture the *delta* it produced.

    The yielded dict is filled in when the block exits, so hold on to the
    reference::

        with capture_phase_timings() as phases:
            trainer.fit(model, x, y)
        print(phases)  # {"conv.gemm": 1.23, "conv.im2col": 0.45, ...}

    Nested captures work (each sees only its own delta); if the registry was
    already enabled by an outer caller it is left enabled on exit.
    """
    was_enabled = phase_timing_enabled()
    acc = enable_phase_timing()
    before = dict(acc.totals)
    captured: Dict[str, float] = {}
    try:
        yield captured
    finally:
        for key, value in acc.totals.items():
            delta = value - before.get(key, 0.0)
            if delta > 0.0:
                captured[key] = delta
        if not was_enabled:
            disable_phase_timing()

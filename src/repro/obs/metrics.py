"""Dependency-free metrics core: counters, gauges, histograms, registry.

The observability subsystem needs to run everywhere the library runs — CI
containers, spawn-started worker processes, user laptops — so the metric
primitives are implemented on the stdlib alone and follow the Prometheus
data model closely enough that :func:`repro.obs.exposition.render_prometheus`
can emit standard text exposition format.

Design constraints
------------------

* **Thread-safe.**  The serving pool updates metrics from HTTP handler
  threads, the dispatcher, the collector, and the supervisor concurrently;
  every mutation takes the owning metric's lock (uncontended CPython lock
  acquisition is tens of nanoseconds).
* **Near-zero-overhead disabled mode.**  Every mutator checks the registry's
  ``enabled`` flag first and returns immediately when metrics are off — one
  attribute load and a branch, no lock, no allocation.  The
  ``metrics_overhead`` micro-benchmark pins the *enabled* cost on a real VGG
  training run at under 2%.
* **Get-or-create registration.**  Instrumented modules declare their metrics
  at import time via :meth:`MetricsRegistry.counter` / :meth:`gauge` /
  :meth:`histogram`; re-declaring the same name with the same type and labels
  returns the existing metric, so import order and repeated imports are
  harmless.  Conflicting re-declarations raise.
"""

from __future__ import annotations

import os
import re
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "quantile_from_counts",
]

#: Fixed latency buckets (seconds) shared by every latency histogram in the
#: library: sub-millisecond dispatch overhead up to multi-second cold paths.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def quantile_from_counts(
    bounds: Sequence[float], counts: Sequence[int], q: float
) -> float:
    """Bucket-interpolated quantile over histogram counts.

    ``bounds`` are the finite bucket upper bounds and ``counts`` the
    non-cumulative per-bucket counts (``len(bounds) + 1`` entries, the last
    being the implicit ``+Inf`` bucket) — exactly the layout
    :class:`Histogram` keeps.  Interpolates linearly inside the bucket the
    rank falls into, like PromQL's ``histogram_quantile``: observations are
    assumed non-negative (the first bucket interpolates from 0), and a rank
    landing in the ``+Inf`` bucket is clamped to the highest finite bound.
    Returns ``nan`` for an empty histogram.

    Module-level (rather than only a :class:`Histogram` method) so callers
    that window a histogram — e.g. the fleet autoscaler computing a p99 over
    the counts observed *since its last tick* — can run the same math on a
    counts delta.
    """
    if not 0.0 <= float(q) <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q!r}")
    total = sum(counts)
    if total == 0:
        return float("nan")
    rank = float(q) * total
    cumulative = 0
    lower = 0.0
    for bound, count in zip(bounds, counts):
        cumulative += count
        if cumulative >= rank and count:
            fraction = (rank - (cumulative - count)) / count
            return lower + fraction * (bound - lower)
        lower = bound
    return float(bounds[-1])


class _Timer:
    """Context manager that observes its block's duration on a histogram."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: "Histogram"):
        self._histogram = histogram

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._histogram.observe(time.perf_counter() - self._start)


class Metric:
    """Base class: name/help/labels plus the labelled-children machinery.

    A metric without label names is its own single sample; a metric with
    label names is a family whose samples are created on first use through
    :meth:`labels`.
    """

    type_name = "untyped"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        registry: Optional["MetricsRegistry"] = None,
    ):
        if not _METRIC_NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_NAME_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = str(help)
        self.labelnames = tuple(labelnames)
        self._registry = registry if registry is not None else get_registry()
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], "Metric"] = {}

    # ------------------------------------------------------------- children
    def labels(self, *labelvalues: object, **labelkwargs: object) -> "Metric":
        """Return (creating on first use) the child for the given label values."""
        if not self.labelnames:
            raise ValueError(f"metric {self.name} declares no labels")
        if labelvalues and labelkwargs:
            raise ValueError("pass label values either positionally or by keyword")
        if labelkwargs:
            if set(labelkwargs) != set(self.labelnames):
                raise ValueError(
                    f"metric {self.name} expects labels {self.labelnames}, got "
                    f"{sorted(labelkwargs)}"
                )
            values = tuple(str(labelkwargs[label]) for label in self.labelnames)
        else:
            if len(labelvalues) != len(self.labelnames):
                raise ValueError(
                    f"metric {self.name} expects {len(self.labelnames)} label "
                    f"values, got {len(labelvalues)}"
                )
            values = tuple(str(value) for value in labelvalues)
        with self._lock:
            child = self._children.get(values)
            if child is None:
                child = self._make_child(values)
                self._children[values] = child
            return child

    def _make_child(self, values: Tuple[str, ...]) -> "Metric":
        child = type(self).__new__(type(self))
        child.name = self.name
        child.help = self.help
        child.labelnames = ()
        child._registry = self._registry
        child._lock = threading.Lock()
        child._children = {}
        self._copy_config_to(child)
        child._init_value()
        child.labelvalues = values
        return child

    def _copy_config_to(self, child: "Metric") -> None:
        """Copy subclass configuration (e.g. bucket bounds) onto a child."""

    def _init_value(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def _require_unlabelled(self) -> None:
        if self.labelnames:
            raise ValueError(
                f"metric {self.name} is labelled by {self.labelnames}; call "
                ".labels(...) first"
            )

    def samples(self) -> List[Tuple[Tuple[str, ...], object]]:
        """``(labelvalues, value)`` pairs for every child (exposition hook)."""
        if self.labelnames:
            with self._lock:
                children = list(self._children.items())
            return [(values, child._read()) for values, child in children]
        return [((), self._read())]

    def _read(self) -> object:  # pragma: no cover - overridden
        raise NotImplementedError

    def _reset(self) -> None:
        with self._lock:
            self._children.clear()
        self._init_value()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class Counter(Metric):
    """Monotonically increasing count (requests served, epochs run, ...)."""

    type_name = "counter"

    def __init__(self, name, help, labelnames=(), registry=None):
        super().__init__(name, help, labelnames, registry)
        self._init_value()

    def _init_value(self) -> None:
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not self._registry.enabled:
            return
        self._require_unlabelled()
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _read(self) -> float:
        return self._value


class Gauge(Metric):
    """A value that can go up and down (alive workers, last epoch loss, ...)."""

    type_name = "gauge"

    def __init__(self, name, help, labelnames=(), registry=None):
        super().__init__(name, help, labelnames, registry)
        self._init_value()

    def _init_value(self) -> None:
        self._value = 0.0
        # Distinguishes "set to 0" from "never written": registry snapshots
        # skip untouched gauges so a worker that merely *registered* a gauge
        # cannot clobber the parent's value with the default 0 on merge.
        self._touched = False

    def set(self, value: float) -> None:
        if not self._registry.enabled:
            return
        self._require_unlabelled()
        with self._lock:
            self._value = float(value)
            self._touched = True

    def inc(self, amount: float = 1.0) -> None:
        if not self._registry.enabled:
            return
        self._require_unlabelled()
        with self._lock:
            self._value += amount
            self._touched = True

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def touched_samples(self) -> List[Tuple[Tuple[str, ...], float]]:
        """Like :meth:`samples`, but only gauges that were actually written.

        A labelled child created by ``labels(...)`` but never set is skipped
        too.  This is what :meth:`MetricsRegistry.snapshot` ships between
        processes — untouched gauges carry no information, only the power to
        overwrite a real value with 0.
        """
        if self.labelnames:
            with self._lock:
                children = list(self._children.items())
            return [
                (values, child._read()) for values, child in children if child._touched
            ]
        return [((), self._read())] if self._touched else []

    @property
    def value(self) -> float:
        return self._value

    def _read(self) -> float:
        return self._value


class Histogram(Metric):
    """Bucketed distribution (latency, batch size) with ``sum`` and ``count``.

    ``buckets`` are the *upper bounds* of the non-cumulative buckets; an
    implicit ``+Inf`` bucket is always present.  The exposition layer emits
    the standard cumulative ``_bucket{le=...}`` series plus ``_sum`` and
    ``_count``.
    """

    type_name = "histogram"

    def __init__(
        self,
        name,
        help,
        labelnames=(),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        registry=None,
    ):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram bucket bounds must be sorted ascending")
        if len(set(bounds)) != len(bounds):
            raise ValueError("histogram bucket bounds must be distinct")
        self.buckets = bounds
        super().__init__(name, help, labelnames, registry)
        self._init_value()

    def _copy_config_to(self, child: "Metric") -> None:
        child.buckets = self.buckets

    def _init_value(self) -> None:
        self._counts = [0] * (len(self.buckets) + 1)  # + the +Inf bucket
        self._sum = 0.0

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        self._require_unlabelled()
        value = float(value)
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value

    def time(self) -> _Timer:
        """``with histogram.time(): ...`` observes the block's duration."""
        return _Timer(self)

    def bucket_counts(self) -> List[int]:
        """Consistent snapshot of the non-cumulative per-bucket counts
        (``len(buckets) + 1`` entries; the last is the ``+Inf`` bucket)."""
        self._require_unlabelled()
        counts, _ = self._read()
        return counts

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate over everything observed.

        See :func:`quantile_from_counts` for the semantics; ``nan`` when the
        histogram is empty.  For a *windowed* quantile (recent observations
        only), snapshot :meth:`bucket_counts` periodically and feed the delta
        to :func:`quantile_from_counts` instead.
        """
        return quantile_from_counts(self.buckets, self.bucket_counts(), q)

    def merge(self, counts: Sequence[int], total: float) -> None:
        """Fold another histogram's ``(bucket counts, sum)`` into this one.

        Used when worker processes ship registry snapshots back to the
        parent; both sides share the same bucket layout because they run the
        same instrumented modules.
        """
        if not self._registry.enabled:
            return
        self._require_unlabelled()
        if len(counts) != len(self._counts):
            raise ValueError(
                f"histogram {self.name}: cannot merge {len(counts)} bucket "
                f"counts into {len(self._counts)} buckets"
            )
        with self._lock:
            for index, count in enumerate(counts):
                self._counts[index] += int(count)
            self._sum += float(total)

    @property
    def count(self) -> int:
        return sum(self._counts)

    @property
    def sum(self) -> float:
        return self._sum

    def _read(self) -> Tuple[List[int], float]:
        with self._lock:
            return list(self._counts), self._sum


class MetricsRegistry:
    """Process-wide collection of metrics with a global enable switch.

    ``enabled`` defaults to on unless the ``REPRO_METRICS`` environment
    variable is set to ``0`` / ``off`` / ``false`` / ``no``.  Disabling makes
    every metric mutator a constant-time no-op; the registry structure (names,
    helps, label sets) stays intact so re-enabling just resumes collection.
    """

    def __init__(self, enabled: Optional[bool] = None):
        if enabled is None:
            enabled = os.environ.get("REPRO_METRICS", "on").strip().lower() not in (
                "0",
                "off",
                "false",
                "no",
            )
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}

    # ------------------------------------------------------------ lifecycle
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Zero every metric's samples (keeps registrations; test helper)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric._reset()

    # --------------------------------------------------------- registration
    def _get_or_create(self, cls, name, help, labelnames, **kwargs) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}{existing.labelnames}"
                    )
                if cls is Histogram and "buckets" in kwargs:
                    bounds = tuple(float(b) for b in kwargs["buckets"])
                    if bounds != existing.buckets:  # type: ignore[union-attr]
                        raise ValueError(
                            f"histogram {name!r} already registered with "
                            "different buckets"
                        )
                return existing
            metric = cls(name, help, labelnames, registry=self, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str, labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str, labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames, buckets=buckets)

    # ----------------------------------------------------------- collection
    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def collect(self) -> Iterable[Metric]:
        """All registered metrics in name order (stable exposition output)."""
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._metrics

    # ----------------------------------------------------- snapshot / merge
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A picklable plain-data view of every registered metric.

        The snapshot is what training workers ship back to the parent next to
        each trained network so per-member metrics survive worker exit; it can
        cross ``multiprocessing`` queues or be serialised as JSON (histogram
        samples are ``(bucket counts, sum)`` pairs).
        """
        out: Dict[str, Dict[str, object]] = {}
        for metric in self.collect():
            samples = (
                metric.touched_samples()
                if isinstance(metric, Gauge)
                else metric.samples()
            )
            entry: Dict[str, object] = {
                "type": metric.type_name,
                "help": metric.help,
                "labelnames": list(metric.labelnames),
                "samples": [[list(values), value] for values, value in samples],
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
            out[metric.name] = entry
        return out

    def merge_snapshot(self, snapshot: Dict[str, Dict[str, object]]) -> None:
        """Fold a :meth:`snapshot` from another process into this registry.

        Counters and histograms *accumulate* (they are deltas of work done
        elsewhere); gauges are *set* (last writer wins — e.g. the final
        epoch loss of the member a worker just trained).  Process-level
        gauges (``repro_process_*``) describe the process that took the
        snapshot, not this one, and are skipped.  Metrics unknown to this
        process are registered on the fly, so series instrumented only in
        worker-side modules still reach the parent's ``/metrics``.
        """
        if not self.enabled:
            return
        for name, entry in snapshot.items():
            kind = entry["type"]
            labelnames = tuple(entry["labelnames"])  # type: ignore[arg-type]
            if kind == "gauge" and name.startswith("repro_process_"):
                continue
            if kind == "counter":
                metric: Metric = self.counter(name, str(entry["help"]), labelnames)
            elif kind == "gauge":
                metric = self.gauge(name, str(entry["help"]), labelnames)
            elif kind == "histogram":
                metric = self.histogram(
                    name,
                    str(entry["help"]),
                    labelnames,
                    buckets=entry["buckets"],  # type: ignore[arg-type]
                )
            else:  # pragma: no cover - snapshot from a newer version
                continue
            for labelvalues, value in entry["samples"]:  # type: ignore[union-attr]
                child = metric.labels(*labelvalues) if labelnames else metric
                if kind == "counter":
                    child.inc(float(value))  # type: ignore[attr-defined]
                elif kind == "gauge":
                    child.set(float(value))  # type: ignore[attr-defined]
                else:
                    counts, total = value
                    child.merge(counts, total)  # type: ignore[attr-defined]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (
                f"MetricsRegistry(enabled={self.enabled}, "
                f"metrics={len(self._metrics)})"
            )


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry every instrumented module uses."""
    return _REGISTRY

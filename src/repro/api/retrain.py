"""Background retraining loop: hatch a fresh generation, gate it, promote it.

The MotherNets economics make ensemble refresh cheap — hatching members from
a trained MotherNet costs a fraction of training them from scratch — so the
natural deployment loop is *retrain continuously, promote conservatively*:

1. **Retrain** the experiment on freshly-arrived data (simulated here by
   shifting the dataset seed per cycle; every member is trained through the
   registry-resolved trainer, so MotherNets runs hatch their members).
2. **Write** the result as the next generation of an
   :class:`~repro.core.artifact_store.ArtifactStore` — a complete ordinary
   artifact plus ``lineage.json`` provenance; ``CURRENT`` is untouched.
3. **Shadow-evaluate**: the candidate and the currently-promoted baseline
   both predict the candidate's held-out test split; the candidate is
   promoted only when its error does not exceed the baseline's by more than
   ``max_error_delta`` percentage points.  A rejected generation stays on
   disk (status ``rejected``) for forensics.

Promotion moves the store's atomic ``CURRENT`` pointer, which is exactly
what the serving tier's hot-swap re-resolves — ``POST /admin/swap`` on the
HTTP front, :meth:`PoolPredictor.swap` or :meth:`FleetFront.swap` — so
the retrain loop never touches a server directly.

``python -m repro retrain`` drives this module from the CLI: ``--once`` for
a single cycle (CI smoke), ``--interval``/``--max-cycles`` for the
background loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.api.spec import ExperimentSpec
from repro.core.artifact_store import ArtifactStore
from repro.obs.events import log_event
from repro.obs.metrics import get_registry
from repro.utils.logging import get_logger

logger = get_logger("api.retrain")

_metrics = get_registry()
_RETRAIN_CYCLES = _metrics.counter(
    "repro_retrain_cycles_total",
    "Retrain cycles by outcome (promoted / rejected / failed).",
    ("outcome",),
)
_RETRAIN_SECONDS = _metrics.histogram(
    "repro_retrain_cycle_seconds", "Wall-clock seconds per retrain cycle."
)

__all__ = ["RetrainReport", "retrain_cycle", "retrain_loop"]


@dataclass
class RetrainReport:
    """Outcome of one retrain cycle (JSON-friendly via :meth:`to_dict`)."""

    generation: int
    parent_generation: int
    promoted: bool
    candidate_error: float
    baseline_error: float
    max_error_delta: float
    method: str
    data_seed: int
    cycle_seconds: float
    members_hatched: int = 0
    members_total: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "generation": self.generation,
            "parent_generation": self.parent_generation,
            "promoted": self.promoted,
            "candidate_error_percent": self.candidate_error,
            "baseline_error_percent": self.baseline_error,
            "max_error_delta": self.max_error_delta,
            "method": self.method,
            "data_seed": self.data_seed,
            "cycle_seconds": self.cycle_seconds,
            "members_hatched": self.members_hatched,
            "members_total": self.members_total,
            **self.extra,
        }


def _shifted_spec(spec: ExperimentSpec, data_seed: int) -> ExperimentSpec:
    """The same experiment pointed at a fresh draw of the data.

    Round-trips through the spec's dict form so nothing but the dataset seed
    changes — the member architectures, trainer config and member seeds stay
    identical, isolating the generation delta to the data.
    """
    spec_dict = spec.to_dict()
    dataset = dict(spec_dict.get("dataset", {}))
    dataset["seed"] = int(data_seed)
    spec_dict["dataset"] = dataset
    return ExperimentSpec.from_dict(spec_dict)


def retrain_cycle(
    store: ArtifactStore,
    spec: ExperimentSpec,
    *,
    data_seed: int,
    max_error_delta: float = 1.0,
    method: str = "average",
) -> RetrainReport:
    """Run one retrain → shadow-evaluate → promote-or-reject cycle.

    ``data_seed`` selects the cycle's fresh data draw; ``max_error_delta``
    is the promotion gate in error-percentage points: the candidate is
    promoted iff ``candidate_error <= baseline_error + max_error_delta`` on
    the candidate's held-out test split, both ensembles evaluated under
    ``method``.  Returns the :class:`RetrainReport`; the written generation
    carries the verdict in its ``lineage.json`` either way.
    """
    from repro.api.experiment import run_experiment
    from repro.api.predictor import EnsemblePredictor

    started = time.monotonic()
    parent_generation = store.current_generation()
    cycle_spec = _shifted_spec(spec, data_seed)
    log_event(
        "retrain.cycle_started",
        store=str(store.root),
        parent_generation=parent_generation,
        data_seed=data_seed,
    )
    result = run_experiment(cycle_spec)

    # Shadow evaluation: candidate vs the promoted baseline, same fresh
    # held-out split (the data neither ensemble trained on this cycle).
    x_test, y_test = result.dataset.x_test, result.dataset.y_test
    candidate_error = result.ensemble.evaluate(x_test, y_test, methods=(method,))[
        method
    ]
    baseline = EnsemblePredictor.load(store.root, warm=False)
    baseline_error = baseline.ensemble.evaluate(x_test, y_test, methods=(method,))[
        method
    ]

    gate = {
        "method": method,
        "max_error_delta": float(max_error_delta),
        "candidate_error_percent": candidate_error,
        "baseline_error_percent": baseline_error,
        "baseline_generation": parent_generation,
        "test_samples": int(len(y_test)),
        "data_seed": int(data_seed),
    }
    generation = store.add_generation(
        result.run, parent_generation=parent_generation, gate=gate
    )
    promoted = candidate_error <= baseline_error + float(max_error_delta)
    if promoted:
        store.promote(generation)
    else:
        store.reject(
            generation,
            reason=(
                f"shadow evaluation failed the gate: candidate error "
                f"{candidate_error:.3f}% > baseline {baseline_error:.3f}% "
                f"+ {float(max_error_delta):.3f}"
            ),
        )
    elapsed = time.monotonic() - started
    if _metrics.enabled:
        _RETRAIN_CYCLES.labels("promoted" if promoted else "rejected").inc()
        _RETRAIN_SECONDS.observe(elapsed)
    members = list(result.run.ensemble.members)
    report = RetrainReport(
        generation=generation,
        parent_generation=parent_generation,
        promoted=promoted,
        candidate_error=candidate_error,
        baseline_error=baseline_error,
        max_error_delta=float(max_error_delta),
        method=method,
        data_seed=int(data_seed),
        cycle_seconds=elapsed,
        members_hatched=sum(1 for member in members if member.source == "hatched"),
        members_total=len(members),
    )
    log_event(
        "retrain.cycle_finished",
        store=str(store.root),
        **report.to_dict(),
    )
    logger.info(
        "retrain cycle: generation %d %s (candidate %.3f%% vs baseline %.3f%%, "
        "gate +%.3f, %.1fs)",
        generation,
        "promoted" if promoted else "rejected",
        candidate_error,
        baseline_error,
        float(max_error_delta),
        elapsed,
    )
    return report


def retrain_loop(
    store: Union[str, Path, ArtifactStore],
    spec: ExperimentSpec,
    *,
    interval: float = 0.0,
    max_cycles: Optional[int] = None,
    max_error_delta: float = 1.0,
    method: str = "average",
    data_seed_step: int = 1,
    stop: Optional[Any] = None,
) -> list:
    """Run retrain cycles until ``max_cycles`` (or ``stop.is_set()``).

    Each cycle's data seed is the spec's dataset seed plus ``generation *
    data_seed_step``, where ``generation`` is the one the cycle writes, so
    cycles are deterministic and distinct — also across processes: a second
    ``repro retrain --once`` on a store draws the next seed, not the first
    one again.
    ``stop`` is any object with ``is_set()`` — a ``threading.Event`` — for
    embedding the loop in a service.  Returns the list of
    :class:`RetrainReport`.
    """
    if not isinstance(store, ArtifactStore):
        store = ArtifactStore.open(store)
    base_seed = int(dict(spec.dataset).get("seed", 0))
    reports = []
    cycle = 0
    while max_cycles is None or cycle < max_cycles:
        if stop is not None and stop.is_set():
            break
        cycle += 1
        generation = max(store.generations(), default=-1) + 1
        data_seed = base_seed + generation * int(data_seed_step)
        try:
            reports.append(
                retrain_cycle(
                    store,
                    spec,
                    data_seed=data_seed,
                    max_error_delta=max_error_delta,
                    method=method,
                )
            )
        except Exception:
            _RETRAIN_CYCLES.labels("failed").inc()
            logger.exception("retrain cycle %d failed", cycle)
            raise
        if max_cycles is not None and cycle >= max_cycles:
            break
        if stop is not None:
            if stop.wait(interval):
                break
        elif interval > 0:
            time.sleep(interval)
    return reports

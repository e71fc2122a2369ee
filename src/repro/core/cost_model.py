"""Training-cost accounting and extrapolation.

The paper's headline results are training-time curves (Figures 5b, 6b, 7b,
8b, 9b): wall-clock training time as a function of ensemble size for
full-data training, bagging, and MotherNets.  This module provides

* :class:`CostLedger` — the record of what was actually trained (phase,
  epochs, wall-clock seconds, parameters, samples), filled in by the three
  ensemble trainers; and
* :class:`AnalyticalCostModel` — a simple work-proportional model
  (``epochs x samples x parameters``) that converts the measured ledger into
  the cumulative training-time-vs-ensemble-size series of the figures and
  extrapolates them to paper scale, where the absolute numbers are hours on a
  P40 GPU rather than seconds on the numpy substrate.  Ratios between
  approaches — the quantity the paper emphasises — are preserved by
  construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.arch.params import count_parameters
from repro.arch.spec import ArchitectureSpec


@dataclass
class CostRecord:
    """The training cost of one network (a MotherNet or an ensemble member)."""

    network: str
    phase: str  # "mothernet" | "member" | "scratch"
    approach: str  # "mothernets" | "full_data" | "bagging" | ...
    epochs: int
    wall_clock_seconds: float
    parameters: int
    samples_per_epoch: int
    # Optional compute-phase breakdown of the wall clock (e.g. "conv.im2col",
    # "conv.gemm") reported by the execution engine via repro.utils.timing;
    # empty when phase timing was not enabled for the run.
    compute_phases: Dict[str, float] = field(default_factory=dict)

    @property
    def work_units(self) -> float:
        """Abstract training work: parameters x samples x epochs."""
        return float(self.parameters) * float(self.samples_per_epoch) * float(self.epochs)


@dataclass
class CostLedger:
    """Accumulates :class:`CostRecord` entries for one ensemble training run.

    Per-record ``wall_clock_seconds`` always measures each network's own
    training time (total compute), regardless of how many worker processes
    trained networks concurrently.  When a pool ran, the trainer additionally
    records **makespans** via :meth:`record_phase_makespan`: the pool's wall
    window, partitioned at the moment each phase's last network landed
    (``"mothernet"`` = pool start to last MotherNet, ``"member"`` = from there
    to the last member).  One pool serves the whole run, so member tasks may
    run inside the ``"mothernet"`` window; the values still sum to the time
    actually waited, which :attr:`makespan_seconds` reports next to
    :attr:`total_seconds`'s "how much compute it burned".
    """

    approach: str
    records: List[CostRecord] = field(default_factory=list)
    # phase -> its share of the pooled wall window (see class docstring).
    phase_makespans: Dict[str, float] = field(default_factory=dict)

    def add(
        self,
        network: str,
        phase: str,
        epochs: int,
        wall_clock_seconds: float,
        parameters: int,
        samples_per_epoch: int,
        compute_phases: Optional[Dict[str, float]] = None,
    ) -> CostRecord:
        record = CostRecord(
            network=network,
            phase=phase,
            approach=self.approach,
            epochs=int(epochs),
            wall_clock_seconds=float(wall_clock_seconds),
            parameters=int(parameters),
            samples_per_epoch=int(samples_per_epoch),
            compute_phases=dict(compute_phases) if compute_phases else {},
        )
        self.records.append(record)
        return record

    def record_phase_makespan(self, phase: str, seconds: float) -> None:
        """Record a phase's share of the pooled wall window."""
        if seconds < 0:
            raise ValueError("makespan seconds must be non-negative")
        self.phase_makespans[phase] = float(seconds)

    # ------------------------------------------------------------ summaries
    @property
    def total_seconds(self) -> float:
        return float(sum(record.wall_clock_seconds for record in self.records))

    @property
    def makespan_seconds(self) -> float:
        """Critical-path wall clock of the whole run: phases with a recorded
        parallel makespan contribute their measured window, serial phases the
        sum of their records.  Equals :attr:`total_seconds` for fully serial
        runs."""
        by_phase = self.seconds_by_phase()
        total = 0.0
        for phase, seconds in by_phase.items():
            total += self.phase_makespans.get(phase, seconds)
        # Phases that recorded a makespan but (pathologically) no records.
        for phase, seconds in self.phase_makespans.items():
            if phase not in by_phase:
                total += seconds
        return total

    @property
    def total_epochs(self) -> int:
        return int(sum(record.epochs for record in self.records))

    @property
    def total_work_units(self) -> float:
        return float(sum(record.work_units for record in self.records))

    def seconds_by_phase(self) -> Dict[str, float]:
        by_phase: Dict[str, float] = {}
        for record in self.records:
            by_phase[record.phase] = by_phase.get(record.phase, 0.0) + record.wall_clock_seconds
        return by_phase

    def seconds_by_compute_phase(self) -> Dict[str, float]:
        """Aggregate compute-phase breakdown (``conv.im2col`` / ``conv.gemm``
        / ...) across all records — distinguishes data movement from BLAS
        compute when the run was trained with phase timing enabled."""
        by_phase: Dict[str, float] = {}
        for record in self.records:
            for key, value in record.compute_phases.items():
                by_phase[key] = by_phase.get(key, 0.0) + value
        return by_phase

    def seconds_by_network(self) -> Dict[str, float]:
        by_network: Dict[str, float] = {}
        for record in self.records:
            by_network[record.network] = (
                by_network.get(record.network, 0.0) + record.wall_clock_seconds
            )
        return by_network

    def cumulative_member_seconds(self) -> List[float]:
        """Cumulative wall-clock training time after each *member* is added,
        counting shared (MotherNet) training once up front — the series the
        training-time figures plot."""
        shared = sum(r.wall_clock_seconds for r in self.records if r.phase == "mothernet")
        series: List[float] = []
        running = shared
        for record in self.records:
            if record.phase == "mothernet":
                continue
            running += record.wall_clock_seconds
            series.append(running)
        return series


class AnalyticalCostModel:
    """Work-proportional training-cost model used for paper-scale projection.

    The model assumes the time to train a network for one epoch is
    proportional to ``parameters x samples`` with a hardware-dependent
    constant ``seconds_per_unit``.  Calibrating the constant against any
    measured run converts abstract work units to projected wall-clock time on
    that hardware.
    """

    def __init__(self, seconds_per_unit: float = 1e-9):
        if seconds_per_unit <= 0:
            raise ValueError("seconds_per_unit must be positive")
        self.seconds_per_unit = float(seconds_per_unit)

    @classmethod
    def calibrate(cls, ledger: CostLedger) -> "AnalyticalCostModel":
        """Fit ``seconds_per_unit`` so the model reproduces the ledger total."""
        work = ledger.total_work_units
        if work <= 0:
            raise ValueError("cannot calibrate against an empty ledger")
        return cls(seconds_per_unit=ledger.total_seconds / work)

    def training_seconds(self, spec: ArchitectureSpec, epochs: int, samples: int) -> float:
        """Projected time to train ``spec`` for ``epochs`` epochs on ``samples``
        training items."""
        if epochs < 0 or samples < 0:
            raise ValueError("epochs and samples must be non-negative")
        return count_parameters(spec) * float(samples) * float(epochs) * self.seconds_per_unit

    def ensemble_training_seconds(
        self,
        member_specs: Sequence[ArchitectureSpec],
        epochs_per_member: int,
        samples: int,
        mothernet_specs: Sequence[ArchitectureSpec] = (),
        mothernet_epochs: int = 0,
    ) -> float:
        """Projected total time for an ensemble training run (shared MotherNet
        training plus per-member training)."""
        total = sum(
            self.training_seconds(spec, mothernet_epochs, samples) for spec in mothernet_specs
        )
        total += sum(
            self.training_seconds(spec, epochs_per_member, samples) for spec in member_specs
        )
        return total

    def cumulative_series(
        self,
        member_specs: Sequence[ArchitectureSpec],
        epochs_per_member: int,
        samples: int,
        mothernet_specs: Sequence[ArchitectureSpec] = (),
        mothernet_epochs: int = 0,
    ) -> List[float]:
        """Projected cumulative training time after 1, 2, ... members — the
        x-axis sweep of the training-time figures."""
        shared = sum(
            self.training_seconds(spec, mothernet_epochs, samples) for spec in mothernet_specs
        )
        series: List[float] = []
        running = shared
        for spec in member_specs:
            running += self.training_seconds(spec, epochs_per_member, samples)
            series.append(running)
        return series


def speedup(baseline_seconds: float, seconds: float) -> float:
    """Convenience helper: how many times faster than the baseline."""
    if seconds <= 0:
        raise ValueError("seconds must be positive")
    return baseline_seconds / seconds

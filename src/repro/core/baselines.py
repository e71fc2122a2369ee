"""Baseline ensemble-training approaches.

The paper compares MotherNets against the two prevalent ways of training an
ensemble of distinct architectures (§1, §3 "Baselines"):

* **Full-data (FD)** — every member is trained from scratch on the entire
  training set with random initialisation;
* **Bagging (Bag.)** — every member is trained from scratch on its own
  bootstrap sample of the training set.

A Snapshot-Ensemble-style trainer (Huang et al., discussed in Related Work)
is also provided as an extension: it trains a *single* architecture with a
cyclic learning rate and collects one snapshot per cycle, which illustrates
the monolithic-architecture restriction that MotherNets removes.

All of them describe their networks as ``MemberTask`` records and go through
the pipeline in :mod:`repro.core.trainer` (``fit_task`` / ``_run_tasks`` /
``_book``), exactly like the MotherNets trainer; the from-scratch baselines
hand ``_run_tasks`` a dependency graph without edges.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.arch.serialization import spec_to_json
from repro.arch.spec import ArchitectureSpec
from repro.core.cost_model import CostLedger
from repro.core.registry import register_trainer
from repro.core.trainer import (
    EnsembleTrainer,
    EnsembleTrainingRun,
    MemberTask,
    TaskNode,
    TrainedNetwork,
    fit_task,
    work_units,
)
from repro.data.datasets import Dataset
from repro.nn.dtypes import resolve_dtype
from repro.nn.model import Model
from repro.nn.optimizers import CosineSchedule
from repro.nn.training import TrainingConfig
from repro.utils.logging import get_logger
from repro.utils.rng import RngManager

logger = get_logger("core.baselines")


class _ScratchTrainer(EnsembleTrainer):
    """Shared implementation for the two from-scratch baselines.

    Members are mutually independent, so every one is a node without
    dependencies: built from ``(spec, init seed)``, fitted on the training
    set or — for bagging — on the bootstrap sample its ``bag_seed`` draws
    from it.
    """

    use_bagging: bool = False

    def train(
        self, specs: Sequence[ArchitectureSpec], dataset: Dataset, seed: int = 0
    ) -> EnsembleTrainingRun:
        specs = list(specs)
        self._validate(specs, dataset)
        rngs = RngManager(seed)
        ledger = CostLedger(approach=self.approach)
        # Resolve the compute dtype here: pool workers are fresh interpreters
        # and would otherwise fall back to the global default even when this
        # run opted into another dtype.
        dtype = str(resolve_dtype(None))

        def member_node(index: int) -> TaskNode:
            def make_task() -> MemberTask:
                return MemberTask(
                    name=specs[index].name,
                    spec_json=spec_to_json(specs[index]),
                    config=self.config,
                    train_seed=rngs.seed("shuffle", index),
                    dtype=dtype,
                    init_seed=rngs.seed("init", index),
                    bag_seed=rngs.seed("bag", index) if self.use_bagging else None,
                    collect_phase_timings=self.collect_phase_timings,
                )

            work = work_units(specs[index], self.config, dataset)
            done = partial(self._journal_member, index)
            return TaskNode(index, "scratch", (), work, make_task, done)

        # Members journaled by an interrupted checkpointed run are restored
        # bitwise; the rest become the nodes of a graph without edges.
        nodes: List[TaskNode] = []
        landed: Dict[int, TrainedNetwork] = {}
        for index in range(len(specs)):
            net = self._restored_member(index)
            if net is None:
                nodes.append(member_node(index))
            else:
                landed[index] = net
        self._run_tasks(nodes, landed, dataset, ledger)
        members = [landed[index] for index in range(len(specs))]
        return self._finish(ledger, "scratch", "scratch", members, dataset)


@register_trainer("full_data")
class FullDataTrainer(_ScratchTrainer):
    """Train every ensemble member from scratch on the full training set."""

    approach = "full_data"
    use_bagging = False


@register_trainer("bagging")
class BaggingTrainer(_ScratchTrainer):
    """Train every ensemble member from scratch on its own bootstrap sample."""

    approach = "bagging"
    use_bagging = True


@register_trainer("snapshot")
class SnapshotEnsembleTrainer(EnsembleTrainer):
    """Snapshot Ensembles (Huang et al. 2017), the fast-ensembling related
    work the paper contrasts against: a *single* architecture is trained with
    a cyclic (cosine) learning rate and a snapshot of the weights is taken at
    the end of every cycle.

    All snapshots share the same, monolithic architecture — this trainer is
    provided to demonstrate that restriction next to MotherNets' structurally
    diverse ensembles.

    Unlike the other approaches, snapshot cycles form a strict sequential
    chain (every cycle continues from the previous cycle's weights), so each
    cycle's task is fitted here on the live network and ``config.workers``
    has nothing to distribute — it is deliberately ignored (with a log note)
    rather than rejected, so configs stay portable across approaches.
    """

    approach = "snapshot"

    def __init__(
        self,
        config: Optional[TrainingConfig] = None,
        num_snapshots: int = 5,
        epochs_per_cycle: Optional[int] = None,
        collect_phase_timings: bool = True,
    ):
        super().__init__(config, collect_phase_timings=collect_phase_timings)
        if num_snapshots < 1:
            raise ValueError("num_snapshots must be at least 1")
        self.num_snapshots = int(num_snapshots)
        self.epochs_per_cycle = epochs_per_cycle

    def train(
        self, specs: Sequence[ArchitectureSpec], dataset: Dataset, seed: int = 0
    ) -> EnsembleTrainingRun:
        specs = list(specs)
        if len({spec.describe() for spec in specs}) != 1:
            raise ValueError(
                "SnapshotEnsembleTrainer requires a monolithic architecture; "
                "pass the same spec repeated (this is exactly the restriction "
                "MotherNets lifts)"
            )
        self._validate(specs, dataset)
        spec = specs[0]
        rngs = RngManager(seed)
        ledger = CostLedger(approach=self.approach)
        if self.config.workers > 1:
            logger.info(
                "snapshot ensembles train one network sequentially; workers=%d ignored",
                self.config.workers,
            )

        cycle_epochs = self.epochs_per_cycle or max(1, self.config.max_epochs)
        cycle_config = TrainingConfig(
            max_epochs=cycle_epochs,
            min_epochs=cycle_epochs,
            batch_size=self.config.batch_size,
            learning_rate=self.config.learning_rate,
            momentum=self.config.momentum,
            weight_decay=self.config.weight_decay,
            convergence_patience=cycle_epochs,
            convergence_tolerance=0.0,
            shuffle=self.config.shuffle,
            schedule=CosineSchedule(
                self.config.learning_rate,
                total_epochs=cycle_epochs,
                cycle_length=cycle_epochs,
                min_lr=0.01 * self.config.learning_rate,
            ),
            loss=self.config.loss,
        )

        model = Model.from_spec(spec, seed=rngs.seed("init"))

        # Checkpoint/resume: snapshots form a sequential chain, so the
        # journal always holds a contiguous prefix of cycles.  Restore it,
        # then continue the chain from the last snapshot's weights (a
        # snapshot is a copy of the live network at cycle end, and model
        # serialisation round-trips bitwise).
        snapshots: List[TrainedNetwork] = []
        while len(snapshots) < self.num_snapshots:
            restored = self._restored_member(len(snapshots))
            if restored is None:
                break
            snapshots.append(restored)
        if snapshots:
            model = snapshots[-1].model.copy()

        for cycle in range(len(snapshots), self.num_snapshots):
            task = MemberTask(
                name=f"{spec.name}-snapshot-{cycle}",
                spec_json=spec_to_json(spec),
                config=cycle_config,
                train_seed=rngs.seed("shuffle", cycle),
                collect_phase_timings=self.collect_phase_timings,
            )
            net = fit_task(task, dataset.x_train, dataset.y_train, model=model)
            net.model = model.copy()
            self._journal_member(cycle, net)
            snapshots.append(net)

        return self._finish(ledger, "member", "snapshot", snapshots, dataset)

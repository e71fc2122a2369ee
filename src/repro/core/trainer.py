"""Ensemble training pipelines.

Every network any trainer fits — a MotherNet, a hatched member, a
from-scratch baseline member, a snapshot cycle — is described by one
:class:`MemberTask` and trained by one function,
:func:`fit_task`, which returns one record, :class:`TrainedNetwork`.
:class:`EnsembleTrainer` supplies the rest of the single pipeline: a runner
that executes tasks in order in this process or on the
:mod:`repro.parallel` pool (``TrainingConfig.workers`` only chooses *where*
a task runs), and the one place a trained network is booked into the
:class:`~repro.core.cost_model.CostLedger` and the training metrics.
Because a task record fully determines its fit, members are bitwise
identical run to run, in-process to pool and first try to retry (under
matching BLAS thread counts).

On top of that, :class:`MotherNetsTrainer` is the paper's contribution
(§2.2):

1. cluster the member architectures (Algorithm 1) and train one MotherNet per
   cluster from scratch on the full data set;
2. hatch every member from its cluster's MotherNet via function-preserving
   transformations and fine-tune it on its own bagged sample.

The baselines (full-data and bagging, §3) live in ``repro.core.baselines``
and use the same helpers, so training cost is accounted identically across
approaches.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.arch.params import count_parameters
from repro.arch.serialization import spec_from_json, spec_to_json
from repro.arch.spec import ArchitectureSpec
from repro.arch.validation import check_same_task
from repro.core.clustering import Cluster, cluster_ensemble
from repro.core.cost_model import CostLedger
from repro.core.ensemble import Ensemble, EnsembleMember
from repro.core.hatching import hatch
from repro.core.registry import register_trainer
from repro.data.datasets import Dataset
from repro.data.sampling import bootstrap_sample
from repro.nn.dtypes import resolve_dtype
from repro.nn.model import Model
from repro.nn.training import Trainer, TrainingConfig, TrainingResult
from repro.obs.metrics import get_registry
from repro.utils.logging import get_logger
from repro.utils.rng import RngManager
from repro.utils.timing import capture_phase_timings

logger = get_logger("core.trainer")

# Per-member / per-phase training telemetry (repro.obs), shared by every
# ensemble trainer: networks finished and wall-clock seconds burned, keyed by
# approach and pipeline phase ("mothernet" | "member" | "scratch").
_metrics = get_registry()
_NETWORKS_TRAINED = _metrics.counter(
    "repro_ensemble_networks_trained_total",
    "Networks trained by the ensemble trainers.",
    ("approach", "phase"),
)
_TRAINING_SECONDS = _metrics.counter(
    "repro_ensemble_training_seconds_total",
    "Wall-clock seconds spent training ensemble networks.",
    ("approach", "phase"),
)


def record_training_cost(approach: str, phase: str, seconds: float) -> None:
    """Count one finished network against the per-phase training metrics."""
    if _metrics.enabled:
        _NETWORKS_TRAINED.labels(approach, phase).inc()
        _TRAINING_SECONDS.labels(approach, phase).inc(float(seconds))


@dataclass
class MemberTask:
    """The complete description of one network to train — everything
    :func:`fit_task` needs besides the training set; picklable, so the same
    record runs in this process or travels to a :mod:`repro.parallel` worker.

    ``init_weights`` (when given) are installed over a ``seed``-initialised
    model — this is how hatched members travel: the trainer hatches from the
    MotherNet and records the resulting weight/state snapshot, the fit
    rebuilds the model (``Model.from_spec(spec, seed=init_seed)``) and
    restores the snapshot before fine-tuning.  ``bag_seed`` (when given) makes
    the fit draw the member's bootstrap sample from the training set.
    """

    name: str
    spec_json: str
    config: TrainingConfig
    train_seed: int
    dtype: Optional[str] = None
    init_seed: int = 0
    init_weights: Optional[Dict[str, Dict[str, object]]] = None
    bag_seed: Optional[int] = None
    collect_phase_timings: bool = True


@dataclass
class TrainedNetwork:
    """One trained network plus its cost-ledger facts: what :func:`fit_task`
    returns, the pool ships back, the checkpoint journal stores and the
    ledger books."""

    name: str
    model: Model
    result: Optional[TrainingResult]
    seconds: float
    parameters: int
    samples_per_epoch: int
    compute_phases: Dict[str, float] = field(default_factory=dict)
    cluster_id: Optional[int] = None
    # True for a MotherNets member whose hatching plan was empty: its model
    # IS the cluster's fine-tuned MotherNet (see MotherNetsTrainer).
    aliased_mothernet: bool = False
    # True when loaded from the checkpoint journal instead of trained by
    # this run (booked into the ledger, not re-counted as trained).
    restored: bool = False


def fit_task(task: MemberTask, x, y, model: Optional[Model] = None) -> TrainedNetwork:
    """Train the network ``task`` describes on ``(x, y)``.

    The model is built from the task's spec and ``init_seed`` and, for a
    hatched member, overwritten with the ``init_weights`` snapshot — unless
    the caller passes the live ``model`` to continue training in place (an
    aliased MotherNet, a snapshot chain).  With a ``bag_seed`` the fit runs
    on the bootstrap sample that seed draws from ``(x, y)``.  Every input
    comes from the task record, so the result is the same wherever and
    however often the task runs.
    """
    if model is None:
        model = Model.from_spec(
            spec_from_json(task.spec_json), seed=task.init_seed, dtype=task.dtype
        )
        if task.init_weights is not None:
            model.set_weights(task.init_weights)
    if task.bag_seed is not None:
        bag = bootstrap_sample(x, y, seed=task.bag_seed)
        x, y = bag.x, bag.y
    timings = capture_phase_timings() if task.collect_phase_timings else nullcontext({})
    start = time.perf_counter()
    with timings as phases:
        result = Trainer(task.config).fit(model, x, y, seed=task.train_seed)
    seconds = time.perf_counter() - start
    logger.info("trained %s in %.2fs / %d epochs", task.name, seconds, result.epochs_run)
    return TrainedNetwork(
        name=task.name,
        model=model,
        result=result,
        seconds=seconds,
        parameters=model.parameter_count(),
        samples_per_epoch=int(x.shape[0]),
        compute_phases=dict(phases),
    )


@dataclass
class EnsembleTrainingRun:
    """The outcome of training an ensemble with one approach."""

    approach: str
    ensemble: Ensemble
    ledger: CostLedger
    config: TrainingConfig
    clusters: Optional[List[Cluster]] = None
    mothernet_models: Dict[int, Model] = field(default_factory=dict)
    mothernet_results: Dict[int, TrainingResult] = field(default_factory=dict)
    member_results: Dict[str, TrainingResult] = field(default_factory=dict)

    @property
    def total_training_seconds(self) -> float:
        return self.ledger.total_seconds

    @property
    def makespan_seconds(self) -> float:
        """Critical-path wall clock (equals total when no pool ran)."""
        return self.ledger.makespan_seconds

    @property
    def member_names(self) -> List[str]:
        return [member.name for member in self.ensemble.members]

    def training_time_breakdown(self) -> Dict[str, float]:
        """Per-network wall-clock seconds (the stacked bars of Figure 5b)."""
        return self.ledger.seconds_by_network()

    def cumulative_training_seconds(self) -> List[float]:
        """Cumulative training time after each member (Figures 6b-9b)."""
        return self.ledger.cumulative_member_seconds()


class EnsembleTrainer:
    """Base class for the three ensemble-training approaches.

    ``collect_phase_timings`` (default on) captures the execution engine's
    per-phase compute breakdown (``conv.im2col`` / ``conv.gemm`` / ...) for
    every fitted network and stores it on the corresponding
    :class:`~repro.core.cost_model.CostRecord`, so ledgers can separate data
    movement from BLAS compute.  The instrumentation cost is a few
    ``perf_counter`` calls per conv call (well under a percent); pass
    ``False`` for fully uninstrumented timing runs.
    """

    approach: str = "base"

    def __init__(
        self, config: Optional[TrainingConfig] = None, collect_phase_timings: bool = True
    ):
        self.config = config or TrainingConfig()
        self.collect_phase_timings = bool(collect_phase_timings)
        # Optional RunCheckpoint journal (repro.core.checkpoint), attached by
        # run_experiment when the caller wants crash-safe incremental
        # checkpointing; None leaves training exactly as before.
        self.checkpoint = None

    # ------------------------------------------------------------ interface
    def train(
        self, specs: Sequence[ArchitectureSpec], dataset: Dataset, seed: int = 0
    ) -> EnsembleTrainingRun:
        raise NotImplementedError

    # -------------------------------------------------------------- helpers
    def _validate(self, specs: Sequence[ArchitectureSpec], dataset: Dataset) -> None:
        specs = list(specs)
        check_same_task(specs)
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError("ensemble member names must be unique")
        if specs[0].input_shape != dataset.input_shape:
            raise ValueError(
                f"architecture input shape {specs[0].input_shape} does not match "
                f"dataset input shape {dataset.input_shape}"
            )
        if specs[0].num_classes != dataset.num_classes:
            raise ValueError(
                f"architecture has {specs[0].num_classes} classes, dataset has "
                f"{dataset.num_classes}"
            )

    def _restored_member(self, index: int) -> Optional[TrainedNetwork]:
        """The journaled member at ``index``, or None (also when not
        checkpointing).  Books the restore against the resume telemetry."""
        if self.checkpoint is None:
            return None
        net = self.checkpoint.member(index)
        if net is not None:
            self.checkpoint.mark_restored("member", net.name)
        return net

    def _journal_member(self, index: int, net: TrainedNetwork) -> None:
        """Journal one finished member when a checkpoint is attached."""
        if self.checkpoint is not None:
            self.checkpoint.record_member(index, net)

    def _run_tasks(
        self,
        tasks: Sequence[MemberTask],
        dataset: Dataset,
        config: TrainingConfig,
        ledger: CostLedger,
        phase: str,
        phase_start: float,
        on_done: Callable[[int, TrainedNetwork], None],
    ) -> List[TrainedNetwork]:
        """Fit every task on the training set; returns the networks in task
        order.

        This is the only in-process-vs-pool decision: with
        ``min(config.workers, len(tasks)) > 1`` the tasks fan out over one
        :class:`~repro.parallel.executor.ParallelExecutor` pool (under
        ``config``'s per-task deadline and retry budget), otherwise they run
        here, in order.  ``on_done(task_index, net)`` fires as each network
        lands — the checkpoint-journal hook, so a crash mid-phase loses only
        the in-flight fits.  Only a pool that actually ran records the phase
        makespan (wall clock since ``phase_start``); without one the
        ledger's per-network seconds already are the critical path.
        """
        workers = min(config.workers, len(tasks))
        if workers > 1:
            from repro.parallel.executor import ParallelExecutor

            with ParallelExecutor(
                {"x": np.asarray(dataset.x_train), "y": np.asarray(dataset.y_train)},
                workers=workers,
                task_timeout=config.task_timeout,
                max_task_retries=config.max_task_retries,
            ) as pool:
                nets, _ = pool.train(tasks, on_outcome=on_done)
            ledger.record_phase_makespan(phase, time.perf_counter() - phase_start)
            return nets
        nets = []
        for task_index, task in enumerate(tasks):
            nets.append(fit_task(task, dataset.x_train, dataset.y_train))
            on_done(task_index, nets[-1])
        return nets

    def _book(self, ledger: CostLedger, phase: str, net: TrainedNetwork) -> None:
        """Book one network: the only writer of the cost ledger and the
        training-cost metrics, so the two always agree.  Restored networks
        keep the ledger complete but were already counted by the run that
        trained them."""
        ledger.add(
            network=net.name,
            phase=phase,
            epochs=net.result.epochs_run if net.result is not None else 0,
            wall_clock_seconds=net.seconds,
            parameters=net.parameters,
            samples_per_epoch=net.samples_per_epoch,
            compute_phases=net.compute_phases,
        )
        if not net.restored:
            record_training_cost(self.approach, phase, net.seconds)

    def _finish(
        self,
        ledger: CostLedger,
        phase: str,
        source: str,
        nets: Sequence[TrainedNetwork],
        dataset: Dataset,
        **run_fields,
    ) -> EnsembleTrainingRun:
        """Book the members in ensemble order and assemble the run."""
        for net in nets:
            self._book(ledger, phase, net)
        members = [
            EnsembleMember(
                name=net.name,
                model=net.model,
                training_result=net.result,
                source=source,
                cluster_id=net.cluster_id,
                training_seconds=net.seconds,
            )
            for net in nets
        ]
        return EnsembleTrainingRun(
            approach=self.approach,
            ensemble=Ensemble(members, num_classes=dataset.num_classes),
            ledger=ledger,
            config=self.config,
            member_results={net.name: net.result for net in nets},
            **run_fields,
        )


@register_trainer("mothernets")
class MotherNetsTrainer(EnsembleTrainer):
    """The paper's approach: cluster -> train MotherNets -> hatch -> bag-train.

    Parameters
    ----------
    config:
        Training configuration for the MotherNet phase (full data set).
    tau:
        Clustering parameter; every member must share at least this fraction
        of its parameters with its cluster's MotherNet (paper default 0.5).
    member_config:
        Training configuration for the fine-tuning of hatched members; when
        omitted, the MotherNet configuration is reused (the shared
        convergence criterion then terminates the warm-started members after
        only a few epochs, which is where the training-time savings come
        from).
    member_epoch_fraction:
        Optional hard cap on the member epoch budget, as a fraction of the
        MotherNet budget.  ``1.0`` (default) leaves the budget unchanged.
    noise_std:
        Standard deviation of the symmetry-breaking noise added to replicated
        weights during hatching (0 keeps hatching exactly function
        preserving).

    Tasks
    -----
    MotherNets of different clusters are mutually independent, and so are
    members that strictly extend their MotherNet (each trains a private
    hatched copy): all of them are tasks, run wherever ``config.workers`` /
    ``member_config.workers`` puts them.  A member whose hatching plan is
    *empty* is not: it IS its cluster's MotherNet, fine-tuned in place, and
    every later member of the cluster hatches from the fine-tuned weights.
    That is a genuine sequential dependency, so such a member trains in this
    process at its position in the member order.
    """

    approach = "mothernets"

    def __init__(
        self,
        config: Optional[TrainingConfig] = None,
        tau: float = 0.5,
        member_config: Optional[TrainingConfig] = None,
        member_epoch_fraction: float = 1.0,
        noise_std: float = 0.0,
        collect_phase_timings: bool = True,
    ):
        super().__init__(config, collect_phase_timings=collect_phase_timings)
        if not 0.0 <= tau <= 1.0:
            raise ValueError("tau must be in [0, 1]")
        if member_epoch_fraction <= 0 or member_epoch_fraction > 1:
            raise ValueError("member_epoch_fraction must be in (0, 1]")
        self.tau = float(tau)
        self.noise_std = float(noise_std)
        base_member_config = member_config or self.config
        if member_epoch_fraction < 1.0:
            base_member_config = base_member_config.scaled(member_epoch_fraction)
        self.member_config = base_member_config

    def train(
        self, specs: Sequence[ArchitectureSpec], dataset: Dataset, seed: int = 0
    ) -> EnsembleTrainingRun:
        specs = list(specs)
        self._validate(specs, dataset)
        rngs = RngManager(seed)
        ledger = CostLedger(approach=self.approach)

        # Cluster the ensemble and construct one MotherNet per cluster.
        clusters = cluster_ensemble(specs, tau=self.tau)
        cluster_id_of: Dict[str, int] = {
            member.name: cluster.cluster_id for cluster in clusters for member in cluster.members
        }

        # Phase 1: train every MotherNet from scratch on the full data set.
        # MotherNets already journaled by an interrupted run are restored
        # bitwise instead of retrained (their ledger records come from the
        # journal, so the final cost accounting stays complete).
        phase_start = time.perf_counter()
        mothernets: Dict[int, TrainedNetwork] = {}
        if self.checkpoint is not None:
            for cluster in clusters:
                net = self.checkpoint.mothernet(cluster.cluster_id)
                if net is not None:
                    self.checkpoint.mark_restored("mothernet", net.name)
                    mothernets[cluster.cluster_id] = net
        pending = [cluster for cluster in clusters if cluster.cluster_id not in mothernets]
        # Resolve the compute dtype here: pool workers are fresh interpreters
        # and would otherwise fall back to the global default even when this
        # run opted into another dtype.
        dtype = str(resolve_dtype(None))
        tasks = [
            MemberTask(
                name=cluster.mothernet.name,
                spec_json=spec_to_json(cluster.mothernet),
                config=self.config,
                train_seed=rngs.seed("mothernet-shuffle", cluster.cluster_id),
                dtype=dtype,
                init_seed=rngs.seed("mothernet", cluster.cluster_id),
                collect_phase_timings=self.collect_phase_timings,
            )
            for cluster in pending
        ]

        def mothernet_done(task_index: int, net: TrainedNetwork) -> None:
            net.cluster_id = pending[task_index].cluster_id
            mothernets[net.cluster_id] = net
            if self.checkpoint is not None:
                self.checkpoint.record_mothernet(net.cluster_id, net)

        self._run_tasks(
            tasks, dataset, self.config, ledger, "mothernet", phase_start, mothernet_done
        )
        mothernet_models: Dict[int, Model] = {}
        mothernet_results: Dict[int, TrainingResult] = {}
        for cluster in clusters:
            net = mothernets[cluster.cluster_id]
            self._book(ledger, "mothernet", net)
            mothernet_models[cluster.cluster_id] = net.model
            mothernet_results[cluster.cluster_id] = net.result

        # Phase 2: hatch every member, in member order, and fine-tune it on
        # its own bagged sample.  Hatching needs the MotherNet models, so it
        # happens here; a task carries the hatched weight snapshot plus the
        # member's derived seeds.
        phase_start = time.perf_counter()
        members: List[Optional[TrainedNetwork]] = [None] * len(specs)
        tasks = []
        hatched_members: List[tuple] = []  # (member index, hatch seconds) per task

        def member_done(index: int, hatch_seconds: float, net: TrainedNetwork) -> None:
            net.seconds += hatch_seconds
            net.cluster_id = cluster_id_of[net.name]
            members[index] = net
            self._journal_member(index, net)

        for index, spec in enumerate(specs):
            cluster_id = cluster_id_of[spec.name]
            restored = self._restored_member(index)
            if restored is not None:
                # A restored *aliased* member IS its cluster's fine-tuned
                # MotherNet — install its weights before any later member of
                # the cluster hatches (exactly what the in-place fine-tune
                # would have left behind).
                if restored.aliased_mothernet:
                    mothernet_models[cluster_id] = restored.model
                members[index] = restored
                continue
            parent = mothernet_models[cluster_id]
            hatch_start = time.perf_counter()
            hatched = hatch(parent, spec, seed=rngs.seed("hatch", index), noise_std=self.noise_std)
            hatch_seconds = time.perf_counter() - hatch_start
            task = MemberTask(
                name=spec.name,
                spec_json=spec_to_json(hatched.spec),
                config=self.member_config,
                train_seed=rngs.seed("member-shuffle", index),
                dtype=str(hatched.dtype),
                bag_seed=rngs.seed("bag", index),
                collect_phase_timings=self.collect_phase_timings,
            )
            if hatched is parent:
                # Empty hatching plan: fine-tune the MotherNet itself, now,
                # so later members of the cluster hatch from the result.
                net = fit_task(task, dataset.x_train, dataset.y_train, model=parent)
                net.aliased_mothernet = True
                member_done(index, hatch_seconds, net)
            else:
                task.init_weights = hatched.get_weights()
                tasks.append(task)
                hatched_members.append((index, hatch_seconds))

        self._run_tasks(
            tasks,
            dataset,
            self.member_config,
            ledger,
            "member",
            phase_start,
            lambda task_index, net: member_done(*hatched_members[task_index], net),
        )
        return self._finish(
            ledger,
            "member",
            "hatched",
            members,
            dataset,
            clusters=clusters,
            mothernet_models=mothernet_models,
            mothernet_results=mothernet_results,
        )


def summarize_run(run: EnsembleTrainingRun) -> Dict[str, object]:
    """A compact, JSON-friendly summary of a training run (used by reports
    and the benchmark harness)."""
    summary: Dict[str, object] = {
        "approach": run.approach,
        "num_members": len(run.ensemble),
        "total_training_seconds": run.total_training_seconds,
        "total_epochs": run.ledger.total_epochs,
        "seconds_by_phase": run.ledger.seconds_by_phase(),
    }
    if run.ledger.phase_makespans:
        summary["makespan_seconds"] = run.ledger.makespan_seconds
        summary["phase_makespans"] = dict(run.ledger.phase_makespans)
    compute_phases = run.ledger.seconds_by_compute_phase()
    if compute_phases:
        summary["seconds_by_compute_phase"] = compute_phases
    if run.clusters is not None:
        summary["num_clusters"] = len(run.clusters)
        summary["cluster_sizes"] = [cluster.size for cluster in run.clusters]
        summary["mothernet_parameters"] = {
            cluster.cluster_id: count_parameters(cluster.mothernet) for cluster in run.clusters
        }
    return summary

"""Ensemble training pipelines.

Every network any trainer fits — a MotherNet, a hatched member, a
from-scratch baseline member, a snapshot cycle — is described by one
:class:`MemberTask` and trained by one function,
:func:`fit_task`, which returns one record, :class:`TrainedNetwork`.
:class:`EnsembleTrainer` supplies the rest of the single pipeline: a runner
that takes the run as a dependency graph of :class:`TaskNode` records and executes
it in list order in this process or, critical path first, on one
:mod:`repro.parallel` pool of ``workers`` lanes — this process's own thread
plus ``workers - 1`` spawned ones — (``TrainingConfig.workers`` only chooses
*where* a task runs), and the one place a trained network is booked into the
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
from typing import Callable, Container, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.params import count_parameters
from repro.arch.serialization import spec_from_json, spec_to_json
from repro.arch.spec import ArchitectureSpec
from repro.arch.validation import check_same_task
from repro.core.clustering import Cluster, cluster_ensemble
from repro.core.cost_model import CostLedger
from repro.core.ensemble import Ensemble, EnsembleMember
from repro.core.hatching import hatch, plan_hatching
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
    record runs in this process (in-process runs, a pool's lane 0) or travels
    to a :mod:`repro.parallel` worker.

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
    priority: float = 0.0  # pool dispatch order only (highest first); the fit never sees it


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
    the caller passes the live ``model`` to continue training in place (a
    snapshot chain).  With a ``bag_seed`` the fit runs
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
class TaskNode:
    """One network still to train, as a node of a run's dependency graph.

    ``make_task`` is called with the networks under the keys ``deps`` once
    all have landed (trained, or restored from the journal) — for a member,
    the one network it hatches from; ``work`` is :func:`work_units`; ``done``
    receives the landed network (the checkpoint-journal hook).  Node lists
    respect their own edges: list order is the in-process execution order.
    """

    key: Hashable
    phase: str
    deps: Tuple[Hashable, ...]
    work: float
    make_task: Callable[..., MemberTask]
    done: Callable[[TrainedNetwork], None]


def critical_path(nodes: Sequence[TaskNode]) -> Dict[Hashable, float]:
    """Priority of every node: its own work plus the heaviest chain of
    dependents below it, so a long chain's head never queues behind a leaf."""
    priority: Dict[Hashable, float] = {}
    below: Dict[Hashable, float] = {}  # key -> priority of its heaviest dependent
    for node in reversed(nodes):
        priority[node.key] = node.work + below.get(node.key, 0.0)
        for dep in node.deps:
            below[dep] = max(below.get(dep, 0.0), priority[node.key])
    return priority


def runnable(nodes: Sequence[TaskNode], landed: Container, priority: Dict) -> List[TaskNode]:
    """The nodes whose dependencies have all landed, critical path first (stable)."""
    ready = [node for node in nodes if all(dep in landed for dep in node.deps)]
    return sorted(ready, key=lambda node: -priority[node.key])


def work_units(spec: ArchitectureSpec, config: TrainingConfig, dataset: Dataset) -> float:
    """A fit's cost bound, in the ledger's unit: parameters x samples x epochs."""
    return float(count_parameters(spec)) * dataset.x_train.shape[0] * config.max_epochs


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
        nodes: Sequence[TaskNode],
        landed: Dict[Hashable, TrainedNetwork],
        dataset: Dataset,
        ledger: CostLedger,
    ) -> None:
        """Train every node; each network joins ``landed`` (which arrives
        holding the restored ones) under its node's key.

        This is the only in-process-vs-pool decision.  With
        ``min(config.workers, len(nodes)) <= 1`` the nodes run here in list
        order — the bitwise oracle.  Otherwise one ``ParallelExecutor`` (under
        ``config``'s task deadline and retry budget) serves the whole run on
        that many lanes, of which lane 0 is a thread of this process and the
        rest are spawned workers: a node is submitted, with its
        :func:`critical_path` priority, the moment its dependencies have
        landed, and a result releases the nodes it unblocked before it reaches
        ``node.done`` — the journal write overlaps the lanes' compute and a
        crash still loses only the in-flight fits.  ``make_task`` always runs
        here, on the loop's thread (hatching), and is timed into the fit.

        Only a pool records makespans: its wall window, partitioned where each
        phase's last node landed, so they sum to the time actually waited
        although phases overlap.  Without a pool the per-network seconds
        already are the critical path.
        """

        made_in: Dict[Hashable, float] = {}

        def make(node: TaskNode) -> MemberTask:
            start = time.perf_counter()
            task = node.make_task(*(landed[dep] for dep in node.deps))
            made_in[node.key] = time.perf_counter() - start
            return task

        def land(node: TaskNode, net: TrainedNetwork) -> None:
            net.seconds += made_in[node.key]
            landed[node.key] = net

        workers = min(self.config.workers, len(nodes))
        if workers <= 1:
            for node in nodes:
                land(node, fit_task(make(node), dataset.x_train, dataset.y_train))
                node.done(landed[node.key])
            return

        from repro.parallel.executor import ParallelExecutor

        window_start = time.perf_counter()
        priority = critical_path(nodes)
        waiting = list(nodes)
        running: List[TaskNode] = []  # by executor task index
        phase_end: Dict[str, float] = {}

        def release() -> Iterator[MemberTask]:
            # Lazy: the pool offers each task to a lane before the next is made.
            for node in runnable(waiting, landed, priority):
                waiting.remove(node)
                running.append(node)
                task = make(node)
                task.priority = priority[node.key]
                yield task

        def follow_up(task_index: int, net: TrainedNetwork) -> Iterator[MemberTask]:
            land(running[task_index], net)
            phase_end[running[task_index].phase] = time.perf_counter()
            return release()

        with ParallelExecutor(
            {"x": np.asarray(dataset.x_train), "y": np.asarray(dataset.y_train)},
            workers=workers,
            task_timeout=self.config.task_timeout,
            max_task_retries=self.config.max_task_retries,
        ) as pool:
            pool.train(
                release(),
                on_outcome=lambda task_index, net: running[task_index].done(net),
                follow_up=follow_up,
            )
        for phase in dict.fromkeys(node.phase for node in nodes):
            window_end = max(window_start, phase_end[phase])
            ledger.record_phase_makespan(phase, window_end - window_start)
            window_start = window_end

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
    Every MotherNet and every member is a node of one dependency graph, run
    by :meth:`EnsembleTrainer._run_tasks` in this process or on one pool of
    ``config.workers`` processes.  The edges, stated once: a member depends
    on the network it hatches from.  That is its cluster's MotherNet — unless
    an earlier member (in member order) of the cluster had an *empty*
    hatching plan.  Such an "aliased" member equals the MotherNet
    structurally: its task carries the snapshot it starts from unchanged (and
    the MotherNet's ``init_seed``), and every later member of the cluster
    hatches from *its* fine-tuned weights; several of them in one cluster
    form a chain in member order.  MotherNets depend on nothing, and a
    network restored from the checkpoint journal has already landed.
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
        ledger = CostLedger(approach=self.approach)

        # Cluster the ensemble and construct one MotherNet per cluster, train
        # what the journal does not hold, book everything in ensemble order.
        clusters, nodes, landed = self._graph(specs, dataset, seed)
        self._run_tasks(nodes, landed, dataset, ledger)
        mothernets = {c.cluster_id: landed["mothernet", c.cluster_id] for c in clusters}
        for net in mothernets.values():
            self._book(ledger, "mothernet", net)
        return self._finish(
            ledger,
            "member",
            "hatched",
            [landed["member", index] for index in range(len(specs))],
            dataset,
            clusters=clusters,
            mothernet_models={cid: net.model for cid, net in mothernets.items()},
            mothernet_results={cid: net.result for cid, net in mothernets.items()},
        )

    def _graph(
        self, specs: Sequence[ArchitectureSpec], dataset: Dataset, seed: int
    ) -> Tuple[List[Cluster], List[TaskNode], Dict[Hashable, TrainedNetwork]]:
        """The run as a graph (see "Tasks"): the clusters, the nodes still to
        train — MotherNets in cluster order, then members in member order — and
        the journaled networks, all keyed ``(phase, cluster id | index)``."""
        clusters = cluster_ensemble(specs, tau=self.tau)
        rngs = RngManager(seed)
        # Resolve the compute dtype here: pool workers are fresh interpreters
        # and would otherwise fall back to the global default even when this
        # run opted into another dtype.
        dtype = str(resolve_dtype(None))
        nodes: List[TaskNode] = []
        landed: Dict[Hashable, TrainedNetwork] = {}

        def mothernet_node(cluster: Cluster) -> TaskNode:
            cluster_id = cluster.cluster_id

            def make_task() -> MemberTask:
                return MemberTask(
                    name=cluster.mothernet.name,
                    spec_json=spec_to_json(cluster.mothernet),
                    config=self.config,
                    train_seed=rngs.seed("mothernet-shuffle", cluster_id),
                    dtype=dtype,
                    init_seed=rngs.seed("mothernet", cluster_id),
                    collect_phase_timings=self.collect_phase_timings,
                )

            def done(net: TrainedNetwork) -> None:
                net.cluster_id = cluster_id
                if self.checkpoint is not None:
                    self.checkpoint.record_mothernet(cluster_id, net)

            work = work_units(cluster.mothernet, self.config, dataset)
            return TaskNode(("mothernet", cluster_id), "mothernet", (), work, make_task, done)

        def member_node(index: int, cluster_id: int, aliased: bool) -> TaskNode:
            spec = specs[index]

            def make_task(parent: TrainedNetwork) -> MemberTask:
                # An empty plan leaves nothing to apply: the record carries
                # the parent's own snapshot.
                model = parent.model
                if not aliased:
                    model = hatch(model, spec, rngs.seed("hatch", index), self.noise_std)
                return MemberTask(
                    name=spec.name,
                    spec_json=spec_to_json(spec),
                    config=self.member_config,
                    train_seed=rngs.seed("member-shuffle", index),
                    dtype=str(model.dtype),
                    init_seed=rngs.seed("mothernet", cluster_id) if aliased else 0,
                    init_weights=model.get_weights(),
                    bag_seed=rngs.seed("bag", index),
                    collect_phase_timings=self.collect_phase_timings,
                )

            def done(net: TrainedNetwork) -> None:
                net.cluster_id = cluster_id
                net.aliased_mothernet = aliased
                self._journal_member(index, net)

            work = work_units(spec, self.member_config, dataset)
            deps = (source[cluster_id],)
            return TaskNode(("member", index), "member", deps, work, make_task, done)

        # The network each cluster's next member hatches from.
        source: Dict[int, Hashable] = {}
        for cluster in clusters:
            key = source[cluster.cluster_id] = ("mothernet", cluster.cluster_id)
            net = None if self.checkpoint is None else self.checkpoint.mothernet(key[1])
            if net is None:
                nodes.append(mothernet_node(cluster))
            else:
                self.checkpoint.mark_restored("mothernet", net.name)
                landed[key] = net
        cluster_of = {member.name: cluster for cluster in clusters for member in cluster.members}
        for index, spec in enumerate(specs):
            cluster = cluster_of[spec.name]
            aliased = not plan_hatching(cluster.mothernet, spec).steps
            net = self._restored_member(index)
            if net is None:
                nodes.append(member_node(index, cluster.cluster_id, aliased))
            else:
                landed["member", index] = net
            if aliased:
                source[cluster.cluster_id] = ("member", index)
        return clusters, nodes, landed


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

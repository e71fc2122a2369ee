"""Shared scenario builders for the benchmark harness.

Every benchmark module regenerates one of the paper's tables or figures.  The
expensive part — actually training the ensembles on the numpy substrate — is
centralised here and cached per pytest session so that, for example, the
Figure-10 bench (oracle curves of all large ensembles) reuses the ensembles
trained for Figures 6-9 instead of retraining them.

Scale knobs
-----------
The default configuration trains heavily scaled-down versions of the paper's
workloads (8-16 pixel images, a few hundred training samples, a handful of
ensemble members) so that ``pytest benchmarks/ --benchmark-only`` completes in
minutes on a laptop CPU.  Set ``REPRO_BENCH_SCALE=medium`` for a larger run.
Absolute numbers therefore differ from the paper's GPU hours; the reported
*shape* (who wins, by roughly what factor, how curves evolve with ensemble
size) is the reproduction target, and each bench prints the paper's
qualitative expectation next to the measured rows.  Projections to paper scale
use the analytical cost model calibrated on the measured runs.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest

from repro.arch import (
    count_parameters,
    resnet_variant_family,
    small_vgg_ensemble,
    v16_variant_family,
    vgg,
)
from repro.core import (
    AnalyticalCostModel,
    BaggingTrainer,
    FullDataTrainer,
    MotherNetsTrainer,
    cluster_ensemble,
)
from repro.data import cifar10_like, cifar100_like, svhn_like, train_validation_split
from repro.evaluation import (
    evaluate_ensemble,
    fit_super_learner_curve,
    incremental_error_curve,
    oracle_curve,
)
from repro.nn import TrainingConfig, default_dtype

RESULTS_DIR = Path(__file__).parent / "results"

_SCALES = {
    # image_size, train, test, width_scale, members(large), epochs, member_fraction
    "small": dict(
        image=8, train=512, test=256, width=0.05, members=5, epochs=12,
        member_fraction=0.4, cifar100_classes=16, resnet_members=5,
    ),
    "medium": dict(
        image=16, train=2048, test=768, width=0.1, members=10, epochs=14,
        member_fraction=0.3, cifar100_classes=40, resnet_members=10,
    ),
}

SCALE = os.environ.get("REPRO_BENCH_SCALE", "small")
PARAMS = _SCALES.get(SCALE, _SCALES["small"])

# Paper-scale constants used for cost-model projection.
PAPER_TRAIN_SAMPLES = 50_000
PAPER_FULL_EPOCHS = 100
PAPER_MEMBER_EPOCHS = 20


def write_report(name: str, text: str) -> None:
    """Persist a bench report under ``benchmarks/results`` and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[report written to {path}]")


def training_config() -> TrainingConfig:
    """The shared training configuration (paper §3: SGD, mini-batches,
    batch normalisation, one convergence criterion for all networks)."""
    return TrainingConfig(
        max_epochs=PARAMS["epochs"],
        batch_size=128,
        learning_rate=0.05,
        momentum=0.9,
        convergence_patience=2,
        convergence_tolerance=3e-3,
    )


def _dataset(name: str):
    image = PARAMS["image"]
    shape = (3, image, image)
    if name == "cifar10":
        return cifar10_like(PARAMS["train"], PARAMS["test"], image_shape=shape, seed=1)
    if name == "cifar100":
        # The many-class task needs a little more signal per class than the
        # 10-class stand-ins for the ensemble effect to rise above noise at
        # miniature scale: slightly larger images and 1.5x the samples.
        many_class_shape = (3, max(PARAMS["image"], 12), max(PARAMS["image"], 12))
        return cifar100_like(
            int(PARAMS["train"] * 1.5), PARAMS["test"], image_shape=many_class_shape,
            num_classes=PARAMS["cifar100_classes"], seed=2,
        )
    if name == "svhn":
        return svhn_like(int(PARAMS["train"] * 1.5), PARAMS["test"], image_shape=shape, seed=3)
    raise ValueError(name)


# ---------------------------------------------------------------------------
# Scenario: small ensemble (Figure 5 / Figure 1)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def small_ensemble_scenario() -> Dict:
    """The five Table-1 VGG variants on cifar10-like data, trained with all
    three approaches."""
    dataset = _dataset("cifar10")
    members = small_vgg_ensemble(
        num_classes=dataset.num_classes,
        input_shape=dataset.input_shape,
        width_scale=PARAMS["width"],
    )
    x_train, y_train, x_val, y_val = train_validation_split(
        dataset.x_train, dataset.y_train, validation_fraction=0.15, seed=0
    )
    config = training_config()
    trainers = {
        "mothernets": MotherNetsTrainer(
            config, tau=0.5, member_epoch_fraction=PARAMS["member_fraction"]
        ),
        "full_data": FullDataTrainer(config),
        "bagging": BaggingTrainer(config),
    }
    runs = {}
    evaluations = {}
    for name, trainer in trainers.items():
        run = trainer.train(members, dataset, seed=0)
        run.ensemble.fit_super_learner(x_val, y_val)
        runs[name] = run
        evaluations[name] = evaluate_ensemble(run.ensemble, dataset.x_test, dataset.y_test)
    return {
        "dataset": dataset,
        "members": members,
        "runs": runs,
        "evaluations": evaluations,
        "totals": {name: run.total_training_seconds for name, run in runs.items()},
        # What the cost claims are asserted on: parameters x samples x epochs
        # run, exact and seeded.  The seconds above go into the printed
        # reports; between two sub-second fits they follow the machine.
        "work_units": {name: run.ledger.total_work_units for name, run in runs.items()},
    }


def cumulative_work_units(run) -> List[float]:
    """``run.cumulative_training_seconds()`` in the ledger's work units
    (parameters x samples x epochs run; MotherNet training counted once up
    front): exact and seeded, so it is what the growth-curve claims are
    asserted on — the measured seconds go into the printed reports."""
    records = run.ledger.records
    shared = sum(r.work_units for r in records if r.phase == "mothernet")
    members = [r.work_units for r in records if r.phase != "mothernet"]
    return list(shared + np.cumsum(members))


# ---------------------------------------------------------------------------
# Scenario: large VGG ensembles (Figures 6, 7, 8, 10)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def large_vgg_scenario(dataset_name: str) -> Dict:
    """A growing ensemble of V16 variants trained with MotherNets, plus the
    measured per-member cost of the two baselines and a cost-model projection
    of all three approaches to the paper's ensemble sizes."""
    dataset = _dataset(dataset_name)
    members = v16_variant_family(
        PARAMS["members"],
        num_classes=dataset.num_classes,
        input_shape=dataset.input_shape,
        width_scale=PARAMS["width"],
        seed=4,
    )
    x_train, y_train, x_val, y_val = train_validation_split(
        dataset.x_train, dataset.y_train, validation_fraction=0.15, seed=0
    )
    config = training_config()

    mothernets_run = MotherNetsTrainer(
        config, tau=0.5, member_epoch_fraction=PARAMS["member_fraction"]
    ).train(members, dataset, seed=0)
    full_data_run = FullDataTrainer(config).train(members, dataset, seed=0)
    bagging_run = BaggingTrainer(config).train(members, dataset, seed=0)

    sizes = list(range(1, len(members) + 1))
    error_curves = incremental_error_curve(
        mothernets_run.ensemble, dataset.x_test, dataset.y_test, sizes, methods=("average", "vote")
    )
    error_curves["super_learner"] = fit_super_learner_curve(
        mothernets_run.ensemble, x_val, y_val, dataset.x_test, dataset.y_test, sizes
    )
    oracle = oracle_curve(mothernets_run.ensemble, dataset.x_test, dataset.y_test, sizes)

    time_curves = {
        "mothernets": mothernets_run.cumulative_training_seconds(),
        "full_data": full_data_run.cumulative_training_seconds(),
        "bagging": bagging_run.cumulative_training_seconds(),
    }

    # Project the three approaches to the paper's ensemble sizes (up to 100
    # members on CIFAR, 50 on SVHN) with the cost model calibrated on the
    # measured full-data run.
    cost = AnalyticalCostModel.calibrate(full_data_run.ledger)
    paper_members = 50 if dataset_name == "svhn" else 100
    projected_specs = v16_variant_family(paper_members, num_classes=10, seed=4)
    projected_mothernet = vgg("V16")
    projection = {
        "sizes": [1, *range(10, paper_members + 1, 10)],
        "full_data": [],
        "bagging": [],
        "mothernets": [],
    }
    for size in projection["sizes"]:
        subset = projected_specs[:size]
        projection["full_data"].append(
            cost.ensemble_training_seconds(subset, PAPER_FULL_EPOCHS, PAPER_TRAIN_SAMPLES) / 3600
        )
        projection["bagging"].append(
            cost.ensemble_training_seconds(subset, PAPER_FULL_EPOCHS, PAPER_TRAIN_SAMPLES) / 3600
        )
        projection["mothernets"].append(
            cost.ensemble_training_seconds(
                subset, PAPER_MEMBER_EPOCHS, PAPER_TRAIN_SAMPLES,
                mothernet_specs=[projected_mothernet], mothernet_epochs=PAPER_FULL_EPOCHS,
            ) / 3600
        )
    return {
        "dataset": dataset,
        "members": members,
        "sizes": sizes,
        "error_curves": error_curves,
        "oracle_curve": oracle,
        "time_curves": time_curves,
        "work_curves": {
            "mothernets": cumulative_work_units(mothernets_run),
            "full_data": cumulative_work_units(full_data_run),
        },
        "totals": {
            "mothernets": mothernets_run.total_training_seconds,
            "full_data": full_data_run.total_training_seconds,
            "bagging": bagging_run.total_training_seconds,
        },
        "projection": projection,
        "runs": {
            "mothernets": mothernets_run,
            "full_data": full_data_run,
            "bagging": bagging_run,
        },
    }


# ---------------------------------------------------------------------------
# Scenario: ResNet ensemble with clustering (Figures 9, 10)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def resnet_scenario() -> Dict:
    """A clustered ResNet ensemble: full-scale clustering structure plus a
    scaled-down end-to-end training run of the smaller depths."""
    # Clustering structure at paper scale (structural only, fast).
    full_family = resnet_variant_family(width_scale=1.0)
    full_clusters = cluster_ensemble(full_family, tau=0.5)

    # Scaled-down training run.  This scenario's error-curve expectations sit
    # close to their thresholds and were calibrated on the float64 reference
    # path, so keep its training trajectory pinned to float64.
    dataset = _dataset("cifar10")
    members = resnet_variant_family(
        num_classes=dataset.num_classes,
        input_shape=dataset.input_shape,
        width_scale=PARAMS["width"],
        depths=(18, 34),
    )[: PARAMS["resnet_members"]]
    config = training_config()
    with default_dtype("float64"):
        mothernets_run = MotherNetsTrainer(
            config, tau=0.5, member_epoch_fraction=PARAMS["member_fraction"]
        ).train(members, dataset, seed=0)
        full_data_run = FullDataTrainer(config).train(members, dataset, seed=0)

    sizes = list(range(1, len(members) + 1))
    error_curves = incremental_error_curve(
        mothernets_run.ensemble, dataset.x_test, dataset.y_test, sizes, methods=("average", "vote")
    )
    oracle = oracle_curve(mothernets_run.ensemble, dataset.x_test, dataset.y_test, sizes)

    cost = AnalyticalCostModel.calibrate(full_data_run.ledger)
    paper_family = resnet_variant_family(width_scale=1.0)
    projection_sizes = [1, 5, 10, 15, 20, 25]
    projection = {"sizes": projection_sizes, "full_data": [], "mothernets": []}
    paper_clusters = cluster_ensemble(paper_family, tau=0.5)
    for size in projection_sizes:
        subset = paper_family[:size]
        projection["full_data"].append(
            cost.ensemble_training_seconds(subset, PAPER_FULL_EPOCHS, PAPER_TRAIN_SAMPLES) / 3600
        )
        active_clusters = [
            c.mothernet for c in paper_clusters if any(m.name in {s.name for s in subset} for m in c.members)
        ]
        projection["mothernets"].append(
            cost.ensemble_training_seconds(
                subset, PAPER_MEMBER_EPOCHS, PAPER_TRAIN_SAMPLES,
                mothernet_specs=active_clusters, mothernet_epochs=PAPER_FULL_EPOCHS,
            ) / 3600
        )
    return {
        "dataset": dataset,
        "members": members,
        "full_family": full_family,
        "full_clusters": full_clusters,
        "sizes": sizes,
        "error_curves": error_curves,
        "oracle_curve": oracle,
        "totals": {
            "mothernets": mothernets_run.total_training_seconds,
            "full_data": full_data_run.total_training_seconds,
        },
        "time_curves": {
            "mothernets": mothernets_run.cumulative_training_seconds(),
            "full_data": full_data_run.cumulative_training_seconds(),
        },
        "work_curves": {
            "mothernets": cumulative_work_units(mothernets_run),
            "full_data": cumulative_work_units(full_data_run),
        },
        "projection": projection,
        "runs": {"mothernets": mothernets_run, "full_data": full_data_run},
    }


@pytest.fixture(scope="session")
def paper_expectations() -> Dict[str, List[str]]:
    """The paper's qualitative expectations, printed next to measured rows."""
    return {
        "fig5": [
            "MotherNets error ~ full-data error (within a percent), ~5% lower than bagging",
            "MotherNets 2.5x faster than full-data and 1.8x faster than bagging",
        ],
        "fig6": [
            "error rate decreases with ensemble size (~2% on CIFAR-10)",
            "training time grows much more slowly for MotherNets; up to 6x faster at 100 nets",
        ],
        "fig7": [
            "more labels benefit more: ~5% improvement on CIFAR-100",
            "up to 6x faster at 100 networks",
        ],
        "fig8": [
            "small error improvement on SVHN (base learner already <5% error)",
            "up to 7x faster than full-data at 50 networks",
        ],
        "fig9": [
            "tau=0.5 clusters the 25 ResNets into a few groups (paper: 3)",
            "error improves ~3% with ensemble size; up to 3.6x faster training",
        ],
        "fig10": [
            "oracle error keeps improving as networks are added (consistently good, diverse members)",
        ],
    }

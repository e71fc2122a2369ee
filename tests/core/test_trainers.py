"""Integration tests for the ensemble training pipelines.

These train real (tiny) ensembles end-to-end and check the paper's
qualitative claims at miniature scale:

* MotherNets produces members that all start from the MotherNet's function
  and converge in fewer epochs than training from scratch;
* the total training cost of MotherNets is below full-data training;
* the three approaches produce working ensembles under all inference methods.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.arch import mlp_family, small_vgg_ensemble
from repro.core import (
    BaggingTrainer,
    FullDataTrainer,
    MotherNetsTrainer,
    SnapshotEnsembleTrainer,
    summarize_run,
)
from repro.nn import TrainingConfig


@pytest.fixture(scope="module")
def tabular_setup(tiny_tabular_dataset_module=None):
    from repro.data import synthetic_tabular_classification

    dataset = synthetic_tabular_classification(
        train_samples=384, test_samples=192, num_classes=6, num_features=24,
        class_separation=1.6, noise_std=1.2, seed=3,
    )
    specs = mlp_family(
        4, input_features=24, num_classes=6, base_width=20, seed=1
    )
    config = TrainingConfig(
        max_epochs=12, batch_size=64, learning_rate=0.1, momentum=0.9,
        convergence_patience=2, convergence_tolerance=5e-3,
    )
    return dataset, specs, config


@pytest.fixture(scope="module")
def mothernets_run(tabular_setup):
    dataset, specs, config = tabular_setup
    return MotherNetsTrainer(config, tau=0.3).train(specs, dataset, seed=0)


@pytest.fixture(scope="module")
def full_data_run(tabular_setup):
    dataset, specs, config = tabular_setup
    return FullDataTrainer(config).train(specs, dataset, seed=0)


@pytest.fixture(scope="module")
def bagging_run(tabular_setup):
    dataset, specs, config = tabular_setup
    return BaggingTrainer(config).train(specs, dataset, seed=0)


# ---------------------------------------------------------------------------
# MotherNets pipeline
# ---------------------------------------------------------------------------


def test_mothernets_run_structure(mothernets_run, tabular_setup):
    _, specs, _ = tabular_setup
    run = mothernets_run
    assert run.approach == "mothernets"
    assert len(run.ensemble) == len(specs)
    assert run.member_names == [spec.name for spec in specs]
    assert run.clusters is not None and len(run.clusters) >= 1
    assert set(run.mothernet_models) == {c.cluster_id for c in run.clusters}


def test_mothernets_members_are_hatched_and_assigned_to_clusters(mothernets_run):
    for member in mothernets_run.ensemble.members:
        assert member.source == "hatched"
        assert member.cluster_id is not None


def test_mothernets_ledger_contains_both_phases(mothernets_run):
    phases = mothernets_run.ledger.seconds_by_phase()
    assert set(phases) == {"mothernet", "member"}
    assert all(seconds > 0 for seconds in phases.values())


def test_mothernets_members_converge_in_fewer_epochs_than_scratch(mothernets_run, full_data_run):
    """The warm start from hatching lets members converge faster (fewer epochs
    under the shared convergence criterion) than from-scratch training."""
    hatched_epochs = np.mean([r.epochs_run for r in mothernets_run.member_results.values()])
    scratch_epochs = np.mean([r.epochs_run for r in full_data_run.member_results.values()])
    assert hatched_epochs <= scratch_epochs


def test_mothernets_member_phase_cheaper_than_full_data_per_member(mothernets_run, full_data_run):
    """Compared in cost-model work units (parameters x samples x epochs run),
    which are exact and seeded; the wall-clock seconds of these sub-second
    fits follow the machine's speed of the moment."""
    mn_member_work = sum(
        record.work_units for record in mothernets_run.ledger.records if record.phase == "member"
    )
    assert mn_member_work < full_data_run.ledger.total_work_units


def test_mothernets_accuracy_close_to_full_data_and_not_worse_than_bagging(
    mothernets_run, full_data_run, bagging_run, tabular_setup
):
    dataset, _, _ = tabular_setup
    mn = mothernets_run.ensemble.error_rate(dataset.x_test, dataset.y_test, method="average")
    fd = full_data_run.ensemble.error_rate(dataset.x_test, dataset.y_test, method="average")
    bag = bagging_run.ensemble.error_rate(dataset.x_test, dataset.y_test, method="average")
    # Figure 5a shape: MotherNets ~ full-data, and no worse than bagging + margin.
    assert mn <= bag + 5.0
    assert abs(mn - fd) <= 10.0


def test_mothernets_training_time_breakdown_covers_all_networks(mothernets_run, tabular_setup):
    _, specs, _ = tabular_setup
    breakdown = mothernets_run.training_time_breakdown()
    for spec in specs:
        assert spec.name in breakdown
    assert any(name.startswith("mothernet") for name in breakdown)


def test_mothernets_cumulative_series_length_matches_members(mothernets_run, tabular_setup):
    _, specs, _ = tabular_setup
    series = mothernets_run.cumulative_training_seconds()
    assert len(series) == len(specs)
    assert all(b >= a for a, b in zip(series, series[1:]))


def test_summarize_run_fields(mothernets_run):
    summary = summarize_run(mothernets_run)
    assert summary["approach"] == "mothernets"
    assert summary["num_members"] == len(mothernets_run.ensemble)
    assert "num_clusters" in summary and "mothernet_parameters" in summary


def test_mothernets_determinism(tabular_setup):
    dataset, specs, config = tabular_setup
    small_config = TrainingConfig(max_epochs=2, min_epochs=2, batch_size=64, learning_rate=0.05)
    a = MotherNetsTrainer(small_config, tau=0.3).train(specs, dataset, seed=7)
    b = MotherNetsTrainer(small_config, tau=0.3).train(specs, dataset, seed=7)
    ea = a.ensemble.predict_proba(dataset.x_test[:16], method="average")
    eb = b.ensemble.predict_proba(dataset.x_test[:16], method="average")
    np.testing.assert_allclose(ea, eb, atol=1e-12)


def test_mothernets_validates_tau_and_epoch_fraction():
    with pytest.raises(ValueError):
        MotherNetsTrainer(tau=1.5)
    with pytest.raises(ValueError):
        MotherNetsTrainer(member_epoch_fraction=0.0)


def test_member_epoch_fraction_caps_member_budget(tabular_setup):
    dataset, specs, _ = tabular_setup
    config = TrainingConfig(max_epochs=6, min_epochs=1, batch_size=64, learning_rate=0.05,
                            convergence_patience=10)
    run = MotherNetsTrainer(config, tau=0.3, member_epoch_fraction=0.34).train(
        specs, dataset, seed=1
    )
    assert all(result.epochs_run <= 2 for result in run.member_results.values())


def _weight_hash(model):
    digest = hashlib.sha256()
    for layer, arrays in sorted(model.get_weights().items()):
        for key, value in sorted(arrays.items()):
            digest.update(f"{layer}/{key}".encode() + value.tobytes())
    return digest.hexdigest()


def test_members_equal_to_their_mothernet_stay_distinct(tabular_setup):
    """Two members that both equal their cluster's MotherNet are two networks:
    each is rebuilt from its own task record (the second hatches from the
    first one's fine-tuned weights), never one ``Model`` fine-tuned twice."""
    dataset, specs, _ = tabular_setup
    members = [specs[0], dataclasses.replace(specs[0], name=f"{specs[0].name}-twin"), specs[1]]
    hashes = {}
    for workers in (1, 2):
        config = TrainingConfig(
            max_epochs=2, min_epochs=2, batch_size=64, learning_rate=0.05, workers=workers
        )
        run = MotherNetsTrainer(config, tau=0.3).train(members, dataset, seed=0)
        first, twin = run.ensemble.members[:2]
        assert first.cluster_id == twin.cluster_id
        assert first.model is not twin.model
        assert first.model is not run.mothernet_models[first.cluster_id]
        assert first.model.spec.name == members[0].name
        assert twin.model.spec.name == members[1].name
        hashes[workers] = [_weight_hash(m.model) for m in run.ensemble.members]
        assert len(set(hashes[workers])) == len(members)
    assert hashes[1] == hashes[2]


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


def test_full_data_run_structure(full_data_run, tabular_setup):
    _, specs, _ = tabular_setup
    assert full_data_run.approach == "full_data"
    assert len(full_data_run.ensemble) == len(specs)
    assert all(member.source == "scratch" for member in full_data_run.ensemble.members)
    assert full_data_run.clusters is None


def test_bagging_members_see_fewer_unique_samples_than_full_data(tabular_setup):
    from repro.data import bootstrap_sample

    dataset, _, _ = tabular_setup
    bag = bootstrap_sample(dataset.x_train, dataset.y_train, seed=0)
    assert bag.size == dataset.train_size
    assert 0.55 < bag.unique_fraction < 0.72


def test_bagging_run_structure(bagging_run, tabular_setup):
    dataset, specs, _ = tabular_setup
    assert bagging_run.approach == "bagging"
    assert len(bagging_run.ensemble) == len(specs)
    error = bagging_run.ensemble.error_rate(dataset.x_test, dataset.y_test)
    assert 0.0 <= error <= 100.0


def test_trainers_reject_duplicate_member_names(tabular_setup):
    dataset, specs, config = tabular_setup
    duplicated = [specs[0], specs[0]]
    with pytest.raises(ValueError, match="unique"):
        FullDataTrainer(config).train(duplicated, dataset, seed=0)


def test_trainers_reject_dataset_mismatch(tabular_setup):
    from repro.data import synthetic_tabular_classification

    _, specs, config = tabular_setup
    wrong = synthetic_tabular_classification(
        train_samples=64, test_samples=32, num_classes=6, num_features=10, seed=0
    )
    with pytest.raises(ValueError, match="input shape"):
        FullDataTrainer(config).train(specs, wrong, seed=0)


def test_snapshot_trainer_produces_requested_snapshots(tabular_setup):
    dataset, specs, _ = tabular_setup
    config = TrainingConfig(max_epochs=2, batch_size=64, learning_rate=0.1)
    run = SnapshotEnsembleTrainer(config, num_snapshots=3, epochs_per_cycle=2).train(
        [specs[0]], dataset, seed=0
    )
    assert len(run.ensemble) == 3
    assert all(member.source == "snapshot" for member in run.ensemble.members)
    # Later snapshots continue training the same weights, so they differ.
    probs = run.ensemble.member_probabilities(dataset.x_test[:8])
    assert not np.allclose(probs[0], probs[-1])


def test_snapshot_trainer_rejects_diverse_architectures(tabular_setup):
    dataset, specs, config = tabular_setup
    with pytest.raises(ValueError, match="monolithic"):
        SnapshotEnsembleTrainer(config).train(specs[:2], dataset, seed=0)


# ---------------------------------------------------------------------------
# Convolutional end-to-end (kept tiny)
# ---------------------------------------------------------------------------


def test_mothernets_on_small_vgg_ensemble(tiny_image_dataset):
    dataset = tiny_image_dataset
    specs = small_vgg_ensemble(
        num_classes=dataset.num_classes, input_shape=dataset.input_shape, width_scale=0.03
    )
    config = TrainingConfig(max_epochs=2, min_epochs=1, batch_size=64, learning_rate=0.05,
                            convergence_patience=1)
    run = MotherNetsTrainer(config, tau=0.5).train(specs, dataset, seed=0)
    assert len(run.ensemble) == 5
    evaluation = run.ensemble.evaluate(dataset.x_test, dataset.y_test, methods=("average", "oracle"))
    assert evaluation["oracle"] <= evaluation["average"]

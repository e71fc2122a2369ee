"""Store back-compat against real artifacts: bare v1/v2 directories keep
loading bitwise-identically as implicit generation 0, migration preserves
the weights exactly, and a crash-torn ``CURRENT`` write resolves old."""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro.api import EnsemblePredictor, load_ensemble_run, save_ensemble_run
from repro.api.artifacts import ARTIFACT_SCHEMA_V1, MANIFEST_NAME
from repro.core.artifact_store import (
    ArtifactStore,
    CURRENT_NAME,
    format_generation,
    resolve_artifact,
)
from repro.data.datasets import load_dataset
from tests.procs import assert_serves_the_graph


@pytest.fixture(scope="module")
def bare_artifact(tiny_result, tmp_path_factory):
    path = tmp_path_factory.mktemp("backcompat") / "artifact"
    save_ensemble_run(tiny_result.run, path)
    return path


@pytest.fixture(scope="module")
def probe_batch(tiny_result):
    return tiny_result.dataset.x_test[:16]


def test_bare_v2_loads_as_generation_zero_bitwise(bare_artifact, probe_batch):
    run = load_ensemble_run(bare_artifact)
    reference = run.ensemble.predict_proba(probe_batch, method="average")
    predictor = EnsemblePredictor.load(bare_artifact)
    assert predictor.generation == 0
    assert_serves_the_graph(predictor.predict_proba(probe_batch, method="average"), reference)
    # Bare directories keep their exact pre-store info() surface: no
    # generation/store keys leak into the metadata.
    info = predictor.info()
    assert "generation" not in info
    assert "store_root" not in info


def test_bare_v1_loads_as_generation_zero_bitwise(
    bare_artifact, probe_batch, tmp_path
):
    v1 = tmp_path / "v1-artifact"
    shutil.copytree(bare_artifact, v1)
    manifest_path = v1 / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    manifest["schema"] = ARTIFACT_SCHEMA_V1
    for member in manifest["members"]:
        member.pop("training_result", None)
    manifest_path.write_text(json.dumps(manifest))

    reference = load_ensemble_run(bare_artifact).ensemble.predict_proba(
        probe_batch, method="average"
    )
    predictor = EnsemblePredictor.load(v1)
    assert predictor.generation == 0
    assert_serves_the_graph(predictor.predict_proba(probe_batch, method="average"), reference)


def test_migrated_store_serves_identical_weights(
    bare_artifact, probe_batch, tmp_path
):
    root = tmp_path / "store"
    shutil.copytree(bare_artifact, root)
    reference = EnsemblePredictor.load(bare_artifact).predict_proba(
        probe_batch, method="average"
    )
    store = ArtifactStore.open(root)
    assert store.current_generation() == 0
    predictor = EnsemblePredictor.load(root)
    assert predictor.generation == 0
    assert predictor.metadata["generation"] == 0
    assert predictor.metadata["store_root"] == str(root)
    np.testing.assert_array_equal(
        predictor.predict_proba(probe_batch, method="average"), reference
    )


def test_torn_current_serves_old_generation(
    bare_artifact, tiny_result, probe_batch, tmp_path
):
    """A crash between writing the CURRENT temp file and the rename must
    leave readers on the old generation — and reload() must agree."""
    root = tmp_path / "store"
    shutil.copytree(bare_artifact, root)
    store = ArtifactStore.open(root)
    generation = store.add_generation(tiny_result.run, parent_generation=0)
    assert generation == 1
    # The torn write: temp file present, pointer still the old one.
    (root / f"{CURRENT_NAME}.tmp.999").write_text(format_generation(1) + "\n")
    resolved = resolve_artifact(root)
    assert resolved.generation == 0

    predictor = EnsemblePredictor.load(root)
    assert predictor.generation == 0
    assert predictor.reload() == 0  # re-resolving the root stays on gen 0

    # Completing the promotion moves everyone forward.
    store.promote(1)
    assert predictor.reload() == 1
    reference = load_ensemble_run(store.generation_path(1)).ensemble.predict_proba(
        probe_batch, method="average"
    )
    assert_serves_the_graph(predictor.predict_proba(probe_batch, method="average"), reference)


def test_predictor_reload_tracks_current(bare_artifact, tmp_path, experiment_dict):
    from repro.api import run_experiment

    root = tmp_path / "store"
    shutil.copytree(bare_artifact, root)
    store = ArtifactStore.open(root)
    predictor = EnsemblePredictor.load(root)
    old = predictor.predict_proba(
        load_dataset(**experiment_dict()["dataset"]).x_test[:8]
    )

    fresh = run_experiment(
        experiment_dict(dataset=dict(experiment_dict()["dataset"], seed=6))
    )
    generation = store.add_generation(fresh.run, parent_generation=0)
    store.promote(generation)
    assert predictor.reload() == generation
    assert predictor.metadata["generation"] == generation
    new = predictor.predict_proba(
        load_dataset(**experiment_dict()["dataset"]).x_test[:8]
    )
    reference = load_ensemble_run(
        store.generation_path(generation)
    ).ensemble.predict_proba(
        load_dataset(**experiment_dict()["dataset"]).x_test[:8], method="average"
    )
    assert_serves_the_graph(new, reference)
    assert not np.array_equal(old, new)  # the weights really changed

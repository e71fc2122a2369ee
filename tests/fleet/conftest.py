"""Shared fixtures for the queue-backed serving tier tests.

One tiny tabular MLP ensemble is trained serially once per session and saved
as an artifact; broker/autoscaler tests don't need it, but the front,
chaos, and CLI tests all serve it (and compare against the single-process
``EnsemblePredictor`` for bitwise parity).
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.api import run_experiment, save_ensemble_run

# CI's fleet-smoke job runs test_broker_model.py under this profile: ten times
# the examples of a plain run (its MAX_EXAMPLES).
settings.register_profile("broker-model-10x", max_examples=3000)


def fleet_experiment_dict(**overrides):
    base = {
        "name": "fleet-tiny",
        "dataset": {
            "name": "tabular",
            "train_samples": 256,
            "test_samples": 64,
            "num_classes": 4,
            "num_features": 12,
            "class_separation": 2.0,
            "seed": 5,
        },
        "members": {
            "family": "mlp",
            "count": 4,
            "input_features": 12,
            "num_classes": 4,
            "base_width": 10,
            "seed": 1,
        },
        "approach": "mothernets",
        "training": {"max_epochs": 3, "batch_size": 64, "learning_rate": 0.1},
        "trainer": {"tau": 0.3},
        "seed": 0,
        "super_learner": True,
    }
    for key, value in overrides.items():
        base[key] = value
    return base


@pytest.fixture(scope="session")
def experiment_dict():
    return fleet_experiment_dict


@pytest.fixture(scope="session")
def serial_result():
    return run_experiment(fleet_experiment_dict())


@pytest.fixture(scope="session")
def saved_artifact(serial_result, tmp_path_factory):
    path = tmp_path_factory.mktemp("fleet-artifact") / "artifact"
    save_ensemble_run(serial_result.run, path)
    return path

"""End-to-end tests for the `python -m repro` CLI (train / predict / inspect)."""

import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.api import EnsemblePredictor


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory, experiment_dict):
    """Run `repro train` once; share the artifact across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "experiment.json"
    config.write_text(json.dumps(experiment_dict()))
    artifact = root / "artifact"
    inputs = root / "x_test.npy"
    code = main(
        [
            "train",
            "--config", str(config),
            "--output", str(artifact),
            "--dump-test-inputs", str(inputs),
        ]
    )
    assert code == 0
    return root, config, artifact, inputs


def test_train_produces_artifact(cli_workspace, capsys):
    _, _, artifact, inputs = cli_workspace
    assert (artifact / "manifest.json").is_file()
    assert inputs.is_file()


def test_predict_labels_match_served_ensemble(cli_workspace, capsys):
    root, _, artifact, inputs = cli_workspace
    out = root / "preds.npy"
    code = main(
        ["predict", "--artifact", str(artifact), "--input", str(inputs), "--output", str(out)]
    )
    assert code == 0
    capsys.readouterr()
    labels = np.load(out)
    expected = EnsemblePredictor.load(str(artifact)).predict(np.load(inputs))
    np.testing.assert_array_equal(labels, expected)


def test_predict_proba_to_stdout(cli_workspace, capsys):
    _, _, artifact, inputs = cli_workspace
    code = main(
        ["predict", "--artifact", str(artifact), "--input", str(inputs), "--proba",
         "--method", "super_learner"]
    )
    assert code == 0
    probs = np.asarray(json.loads(capsys.readouterr().out))
    assert probs.shape == (64, 4)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-5)


def test_inspect_reports_manifest_summary(cli_workspace, capsys):
    _, _, artifact, _ = cli_workspace
    code = main(["inspect", "--artifact", str(artifact)])
    assert code == 0
    info = json.loads(capsys.readouterr().out)
    assert info["approach"] == "mothernets"
    assert info["num_members"] == 3
    assert info["super_learner"] is True


def test_inspect_surfaces_makespans_and_member_histories(cli_workspace, capsys):
    """`repro inspect` must report what the v2 artifact persists: the cost
    ledger's phase makespans/totals and a per-member training-history
    summary (epochs, final loss/accuracy, mean epoch seconds)."""
    _, _, artifact, _ = cli_workspace
    code = main(["inspect", "--artifact", str(artifact)])
    assert code == 0
    info = json.loads(capsys.readouterr().out)

    training = info["training"]
    assert training["total_seconds"] > 0
    assert training["makespan_seconds"] > 0
    assert training["total_epochs"] > 0
    assert set(training["seconds_by_phase"]) == {"mothernet", "member"}
    assert isinstance(training["phase_makespans"], dict)  # {} for serial runs

    members = info["members"]
    assert len(members) == info["num_members"]
    for member in members:
        assert member["epochs"] > 0
        assert member["training_seconds"] >= 0
        assert isinstance(member["final_train_loss"], float)
        assert isinstance(member["final_train_accuracy"], float)
        assert member["mean_epoch_seconds"] > 0
        assert "converged" in member


def test_cli_reports_errors_without_traceback(cli_workspace, tmp_path, capsys):
    _, _, artifact, inputs = cli_workspace
    # Unknown combination method.
    code = main(["predict", "--artifact", str(artifact), "--input", str(inputs),
                 "--method", "oracle"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    # Not an artifact directory.
    code = main(["inspect", "--artifact", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    # An input that is not finite.
    x = np.load(inputs)[:2].copy()
    x[1].flat[0] = np.nan
    np.save(tmp_path / "nan.npy", x)
    code = main(["predict", "--artifact", str(artifact), "--input", str(tmp_path / "nan.npy")])
    assert code == 1
    assert "finite" in capsys.readouterr().err


def test_train_rejects_existing_artifact(cli_workspace, capsys):
    _, config, artifact, _ = cli_workspace
    code = main(["train", "--config", str(config), "--output", str(artifact)])
    assert code == 1
    assert "already exists" in capsys.readouterr().err


def test_version_flag_prints_package_version(capsys):
    import repro

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"

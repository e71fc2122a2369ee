"""Unit tests for the checkpoint journal (``repro.core.checkpoint``)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.arch.zoo import mlp_family
from repro.core.checkpoint import RunCheckpoint
from repro.core.trainer import TrainedNetwork
from repro.nn.model import Model

FINGERPRINT = {"name": "ckpt-test", "seed": 0}


def _network(name="m0", seed=3, cluster_id=None, aliased=False):
    spec = mlp_family(count=1, input_features=6, num_classes=3, base_width=8, seed=1)[0]
    model = Model.from_spec(spec, seed=seed)
    return TrainedNetwork(
        name=name,
        model=model,
        result=None,
        seconds=1.25,
        parameters=model.parameter_count(),
        samples_per_epoch=64,
        compute_phases={"forward": 0.5},
        cluster_id=cluster_id,
        aliased_mothernet=aliased,
    )


def _assert_same_weights(a: Model, b: Model) -> None:
    wa, wb = a.get_weights(), b.get_weights()
    assert wa.keys() == wb.keys()
    for layer in wa:
        for key in wa[layer]:
            np.testing.assert_array_equal(wa[layer][key], wb[layer][key])


def test_fresh_open_writes_fingerprint(tmp_path):
    checkpoint = RunCheckpoint.open(tmp_path, FINGERPRINT)
    state = json.loads((checkpoint.root / "checkpoint.json").read_text())
    assert state["fingerprint"] == FINGERPRINT
    assert checkpoint.members == {} and checkpoint.mothernets == {}


def test_existing_journal_refused_without_resume(tmp_path):
    RunCheckpoint.open(tmp_path, FINGERPRINT)
    with pytest.raises(FileExistsError, match="--resume"):
        RunCheckpoint.open(tmp_path, FINGERPRINT)


def test_fingerprint_mismatch_refused(tmp_path):
    RunCheckpoint.open(tmp_path, FINGERPRINT)
    with pytest.raises(ValueError, match="different experiment"):
        RunCheckpoint.open(tmp_path, {"name": "other", "seed": 1}, resume=True)


def test_resume_without_journal_starts_fresh(tmp_path):
    checkpoint = RunCheckpoint.open(tmp_path, FINGERPRINT, resume=True)
    assert checkpoint.members == {}
    assert (checkpoint.root / "checkpoint.json").is_file()


def test_record_and_reload_roundtrips_bitwise(tmp_path):
    checkpoint = RunCheckpoint.open(tmp_path, FINGERPRINT)
    member = _network("member-a", seed=7, cluster_id=2, aliased=True)
    mothernet = _network("hub", seed=9)
    checkpoint.record_member(1, member)
    checkpoint.record_mothernet(0, mothernet)

    reopened = RunCheckpoint.open(tmp_path, FINGERPRINT, resume=True)
    restored = reopened.member(1)
    assert restored is not None and reopened.member(0) is None
    assert restored.name == "member-a"
    assert restored.cluster_id == 2 and restored.aliased_mothernet
    assert restored.seconds == member.seconds
    assert restored.samples_per_epoch == 64
    assert restored.compute_phases == {"forward": 0.5}
    _assert_same_weights(member.model, restored.model)
    _assert_same_weights(mothernet.model, reopened.mothernet(0).model)


def test_marker_is_the_commit_point(tmp_path):
    """Weights without a done marker (the kill-between-writes window) are
    invisible; a marker without readable weights is skipped, not fatal."""
    checkpoint = RunCheckpoint.open(tmp_path, FINGERPRINT)
    checkpoint.record_member(0, _network("done"))
    checkpoint.record_member(1, _network("torn"))
    member_dir = checkpoint.root / "members"
    # Simulate the torn window: marker removed -> not done.
    (member_dir / "001-torn.json").unlink()
    reopened = RunCheckpoint.open(tmp_path, FINGERPRINT, resume=True)
    assert sorted(reopened.members) == [0]
    # Corrupt weights under a marker -> entry ignored with a warning.
    (member_dir / "000-done.npz").write_bytes(b"not an npz")
    reopened = RunCheckpoint.open(tmp_path, FINGERPRINT, resume=True)
    assert reopened.members == {}


def test_mark_restored_counts_and_discard_removes(tmp_path):
    checkpoint = RunCheckpoint.open(tmp_path, FINGERPRINT)
    checkpoint.record_member(0, _network())
    checkpoint.mark_restored("member", "m0")
    assert checkpoint.restored == 1
    checkpoint.discard()
    assert not checkpoint.root.exists()
    # discard is idempotent
    checkpoint.discard()

"""Unit tests for the ``REPRO_FAULTS`` injection registry (``repro.faults``)."""

from __future__ import annotations

import time

import pytest

from repro.faults import (
    FaultError,
    InjectedFault,
    active_plan,
    fire,
    parse_faults,
    reset_plan,
)
from repro.faults.injection import POINTS


@pytest.fixture(autouse=True)
def _clean_plan(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    reset_plan()
    yield
    reset_plan()


# ------------------------------------------------------------------ parsing


def test_parse_single_spec():
    (spec,) = parse_faults("train_crash:member=mlp-base:attempt=0")
    assert spec.point == "train"
    assert spec.action == "crash"
    assert spec.qualifiers == {"member": "mlp-base", "attempt": "0"}
    assert spec.after == 0 and spec.times is None


def test_parse_multiple_specs_with_meta_qualifiers():
    specs = parse_faults("serve_hang:after=2:times=1:seconds=5.5,train_error")
    assert len(specs) == 2
    hang, error = specs
    assert (hang.point, hang.action) == ("serve", "hang")
    assert hang.after == 2 and hang.times == 1 and hang.seconds == 5.5
    assert hang.qualifiers == {}  # after/times/seconds are meta, not context
    assert (error.point, error.action) == ("train", "error")


def test_parse_allows_empty_segments_and_whitespace():
    specs = parse_faults(" train_crash , ,serve_error ")
    assert [(s.point, s.action) for s in specs] == [
        ("train", "crash"),
        ("serve", "error"),
    ]


@pytest.mark.parametrize(
    "bad",
    ["crash", "train-crash", "train_explode", "_crash", "train_crash:member", "train_crash:=x"],
)
def test_parse_rejects_malformed_specs(bad):
    with pytest.raises(FaultError):
        parse_faults(bad)


@pytest.mark.parametrize("misspelt", ["serve_shm_write_crash", "fleet_consme_crash"])
def test_parse_rejects_unknown_points(misspelt):
    """A point nothing fires would give a chaos run a false pass: refused."""
    with pytest.raises(FaultError, match="unknown fault point"):
        parse_faults(f"train_error,{misspelt}:times=1")
    for point in POINTS:
        (spec,) = parse_faults(f"{point}_crash")
        assert spec.point == point


# ----------------------------------------------------------------- matching


def test_matches_filters_on_point_and_context():
    (spec,) = parse_faults("train_error:member=m1:attempt=0")
    assert spec.matches("train", {"member": "m1", "attempt": 0})
    assert not spec.matches("train", {"member": "m1", "attempt": 1})
    assert not spec.matches("train", {"member": "m2", "attempt": 0})
    assert not spec.matches("train", {"attempt": 0})  # missing context key
    assert not spec.matches("serve", {"member": "m1", "attempt": 0})


def test_should_fire_honours_after_and_times():
    (spec,) = parse_faults("train_error:after=1:times=2")
    assert [spec.should_fire() for _ in range(5)] == [False, True, True, False, False]


# -------------------------------------------------------------------- fire


def test_fire_error_action_raises(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "train_error:member=m1")
    with pytest.raises(InjectedFault, match="train_error"):
        fire("train", member="m1", attempt=0)
    # Non-matching contexts are a no-op.
    assert fire("train", member="m2", attempt=0) is None


def test_fire_hang_action_sleeps_then_reports(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "serve_hang:seconds=0.2")
    start = time.monotonic()
    outcome = fire("serve", worker=0)
    assert time.monotonic() - start >= 0.2
    assert outcome is not None and outcome[0] == "hang"


def test_no_faults_is_near_free():
    assert fire("train", member="m1", attempt=0) is None
    assert active_plan() == []


def test_plan_cache_keyed_on_env_value(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "train_error")
    first = active_plan()
    assert len(first) == 1
    # Same value: same (stateful) plan objects.
    assert active_plan() is first
    # Changed value: reparsed immediately, no reset_plan() needed.
    monkeypatch.setenv("REPRO_FAULTS", "train_error:times=1,serve_crash")
    assert len(active_plan()) == 2
    monkeypatch.delenv("REPRO_FAULTS")
    assert active_plan() == []

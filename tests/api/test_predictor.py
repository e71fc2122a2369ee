"""Tests for the EnsemblePredictor serving facade."""

import threading

import numpy as np
import pytest

from repro.api import EnsemblePredictor, save_ensemble_run


@pytest.fixture(scope="module")
def artifact(tmp_path_factory, tiny_result):
    path = tmp_path_factory.mktemp("serving") / "artifact"
    save_ensemble_run(tiny_result.run, path)
    return path


@pytest.fixture(scope="module")
def predictor(artifact):
    return EnsemblePredictor.load(artifact)


def test_loaded_predictor_matches_in_memory_ensemble(predictor, tiny_result):
    """The predictor serves the lowered plan, the ensemble is the layer graph:
    same labels, probabilities within the plan's stated tolerance
    (``tests/nn/test_lowering.py``)."""
    x = tiny_result.dataset.x_test
    for method in ("average", "vote", "super_learner"):
        np.testing.assert_allclose(
            predictor.predict_proba(x, method=method),
            tiny_result.ensemble.predict_proba(x, method=method),
            rtol=0,
            atol=1e-5,
        )
        np.testing.assert_array_equal(
            predictor.predict(x, method=method),
            tiny_result.ensemble.predict(x, method=method),
        )


def test_from_run_serves_without_disk(predictor, tiny_result):
    from_run = EnsemblePredictor.from_run(tiny_result.run)
    x = tiny_result.dataset.x_test[:8]
    np.testing.assert_array_equal(from_run.predict_proba(x), predictor.predict_proba(x))
    np.testing.assert_array_equal(
        from_run.predict(x), tiny_result.ensemble.predict(x, method="average")
    )


def test_member_probabilities_shape(predictor, tiny_result):
    x = tiny_result.dataset.x_test[:5]
    probs = predictor.member_probabilities(x)
    assert probs.shape == (3, 5, 4)


def test_single_sample_gets_batch_axis(predictor, tiny_result):
    x = tiny_result.dataset.x_test
    single = predictor.predict_proba(x[0])
    assert single.shape == (1, 4)
    np.testing.assert_array_equal(single, predictor.predict_proba(x[:1]))


def test_input_shape_validation(predictor):
    with pytest.raises(ValueError, match="input shape"):
        predictor.predict(np.zeros((4, 7)))  # 12 features expected
    with pytest.raises(ValueError, match="input shape"):
        predictor.predict(np.zeros((4, 12, 2)))
    with pytest.raises(ValueError, match="empty batch"):
        predictor.predict(np.zeros((0, 12)))


def test_input_dtype_validation(predictor):
    with pytest.raises(TypeError, match="numeric"):
        predictor.predict(np.array([["a"] * 12], dtype=object))
    with pytest.raises(TypeError, match="numeric"):
        predictor.predict(np.zeros((2, 12), dtype=bool))
    # Integer inputs are legitimate (e.g. raw pixel values) and are cast.
    labels = predictor.predict(np.zeros((2, 12), dtype=np.int64))
    assert labels.shape == (2,)


def test_method_validation(predictor, tiny_result):
    with pytest.raises(ValueError, match="unknown combination method"):
        EnsemblePredictor.from_run(tiny_result.run, method="oracle")
    # The per-call path validates through the shared resolve_combination_method
    # helper, so the wording matches the constructor's.
    with pytest.raises(ValueError, match="unknown combination method"):
        predictor.predict(tiny_result.dataset.x_test[:2], method="oracle")


def test_super_learner_requires_weights(tiny_result, experiment_dict):
    from repro.api import run_experiment

    bare = run_experiment(
        experiment_dict(approach="bagging", trainer={}, super_learner=False),
        dataset=tiny_result.dataset,
    )
    predictor = EnsemblePredictor.from_run(bare.run)
    with pytest.raises(RuntimeError, match="super-learner"):
        predictor.predict(tiny_result.dataset.x_test[:2], method="super_learner")


def test_info_is_json_friendly(predictor):
    import json

    info = predictor.info()
    assert info["num_members"] == 3
    assert info["num_classes"] == 4
    assert info["input_shape"] == [12]
    assert info["super_learner"] is True
    assert info["approach"] == "mothernets"
    assert len(info["members"]) == 3
    json.dumps(info)  # must not raise


def _rows(x, rows):
    """``rows`` samples of ``x``, repeated as often as it takes."""
    return np.resize(x, (rows,) + x.shape[1:])


def test_the_thread_count_does_not_reach_the_bits(artifact, tiny_result):
    """One shard or several, 1, 2 or 3 threads: the same bits, also after a
    reload()."""
    predictors = [EnsemblePredictor.load(artifact, threads=n) for n in (1, 2, 3)]
    assert predictors[0].lowered  # the plan's shards, not the graph
    try:
        for _ in range(2):
            for rows in (1, 128, 129, 300):
                x = _rows(tiny_result.dataset.x_test, rows)
                for batch_size in (7, 256):
                    one, *more = [p.predict_proba(x, batch_size=batch_size) for p in predictors]
                    for answer in more:
                        np.testing.assert_array_equal(answer, one)
            for predictor in predictors:
                predictor.reload()
    finally:
        for predictor in predictors:
            predictor.close()


def test_close_stops_the_helper_threads(artifact, tiny_result):
    def helpers():
        return [t.name for t in threading.enumerate() if t not in before and "infer" in t.name]

    before = threading.enumerate()
    with EnsemblePredictor.load(artifact, threads=2) as predictor:
        assert predictor.inference_threads == 2
        predictor.predict_proba(_rows(tiny_result.dataset.x_test, 1))
        assert helpers() == []
        predictor.predict_proba(_rows(tiny_result.dataset.x_test, 256))
        assert helpers() == ["repro-infer-1"]
    assert helpers() == []

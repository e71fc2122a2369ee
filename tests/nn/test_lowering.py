"""The inference plan (``repro.nn.lowering``) against the layer graph.

The plan is exact in real arithmetic and rounds differently: BatchNorm is
folded into the weights, a layer is one GEMM over the whole batch, pooling is
taken before bias and ReLU.  The contract these tests state:

* every probability is within ``TOLERANCE`` (absolute, float32) of the
  graph's, for every ``arch.zoo`` family, image sizes 1-12 and batches of 1,
  7 and 256;
* on the benchmark spec's test split the smallest top-2 margin of the served
  probabilities is at least ``MARGIN_FACTOR`` times the largest deviation, so
  no label can move and ``error_pct`` cannot either;
* what the plan does not cover (residual units, float64, the einsum engine, a
  stride) is answered by the graph, bit for bit;
* a request longer than ``batch_size`` is cut where the graph cuts it;
* a member whose stages run stacked with other members' gets the bits of a
  plan of its own;
* nothing is built per batch size, what a plan served before does not reach
  the bits of what it serves next, and stacking does not grow the scratch;
* one gather index moves a pixel's channels, and a 1-row pass makes no more
  numpy calls than the channel-major plan did, but for a stem width's own
  GEMM and epilogue;
* a predictor's batch of more than ``SHARD_ROWS`` rows answers as its shards
  do, each a batch of its own, so 1, 2 and 3 threads give the same bits, also
  after ``reload()``; a 1-row pass starts no thread, and ``close()`` leaves
  none;
* ``reload()`` leaves nothing of the old generation's folded weights behind,
  and a generation that fails to load or to warm leaves the old one serving.

Run with ``-rs``: on a numerical stack where the benchmark spec trains to
other weights the margin is another draw, and a skip says so.
"""

from __future__ import annotations

import json
import shutil
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import EnsemblePredictor, run_experiment, save_ensemble_run
from repro.arch import zoo
from repro.core.artifact_store import ArtifactStore
from repro.core.ensemble import Ensemble, EnsembleMember
from repro.nn import Model
from repro.nn.layers import BatchNorm
from repro.nn.lowering import SHARD_ROWS, InferencePlan, ShardThreads, lower_model, shard_slices
from repro.nn.stacking import Stack
from tests.nn.test_training_bits import BENCHMARK_SPEC, GOLDEN, environment_fingerprint

#: Largest absolute difference between a plan and a graph probability.
TOLERANCE = 1e-5
#: Smallest top-2 margin on the benchmark's test split, in deviations.
MARGIN_FACTOR = 100

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def build_ensemble(specs, seed: int = 0, dtype=None) -> Ensemble:
    """Freshly initialised members whose BatchNorm layers hold the statistics
    of a trained network (a fresh one folds to the identity)."""
    rng = np.random.default_rng(seed)
    members = []
    for index, spec in enumerate(specs):
        model = Model.from_spec(spec, seed=seed + index, dtype=dtype)
        for layer in model._sequence():
            if isinstance(layer, BatchNorm):
                size, dt = layer.num_features, layer.dtype
                layer.params["gamma"] = rng.uniform(0.5, 1.5, size).astype(dt)
                layer.params["beta"] = rng.normal(0.0, 0.3, size).astype(dt)
                layer.state["running_mean"] = rng.normal(0.0, 0.5, size).astype(dt)
                layer.state["running_var"] = rng.uniform(0.3, 2.0, size).astype(dt)
        members.append(EnsembleMember(spec.name, model))
    return Ensemble(members, specs[0].num_classes)


def plan_probabilities(ensemble: Ensemble, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
    plan = InferencePlan([member.model for member in ensemble.members])
    assert plan.lowered == tuple(range(len(ensemble)))
    out = np.empty((len(ensemble), x.shape[0], ensemble.num_classes), dtype=np.float32)
    plan.probabilities(x, batch_size, out)
    return out


# --------------------------------------------------------------------------
# Plan vs graph over the zoo
# --------------------------------------------------------------------------


@st.composite
def zoo_families(draw):
    """``(specs, per-sample input shape)`` of a lowerable zoo family."""
    family = draw(st.sampled_from(["small_vgg", "vgg", "v16_variants", "mlp"]))
    if family == "mlp":
        features = draw(st.integers(1, 24))
        specs = zoo.mlp_family(
            draw(st.integers(1, 4)),
            input_features=features,
            num_classes=draw(st.integers(2, 6)),
            base_width=draw(st.integers(4, 12)),
            seed=draw(st.integers(0, 5)),
            use_batchnorm=draw(st.booleans()),
        )
        return specs, (features,)
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    scale = draw(st.sampled_from([0.03125, 0.0625]))
    if family == "small_vgg":
        specs = zoo.small_vgg_ensemble(10, shape, scale)
    elif family == "vgg":
        specs = [zoo.vgg(draw(st.sampled_from(zoo.VGG_VARIANT_NAMES)), 7, shape, scale)]
    else:
        specs = zoo.v16_variant_family(3, 10, shape, scale, seed=draw(st.integers(0, 20)))
    return specs, shape


@SETTINGS
@given(family=zoo_families(), batch=st.sampled_from([1, 7, 256]), seed=st.integers(0, 1000))
def test_plan_matches_graph_within_tolerance(family, batch, seed):
    specs, shape = family
    ensemble = build_ensemble(specs, seed)
    x = np.random.default_rng(seed).normal(size=(batch,) + shape).astype(np.float32)
    graph = ensemble.predict_proba_all(x)
    plan = plan_probabilities(ensemble, x)
    assert plan.dtype == graph.dtype and plan.shape == graph.shape
    assert np.abs(plan - graph).max() <= TOLERANCE


@SETTINGS
@given(family=zoo_families(), batch=st.sampled_from([1, 7, 256]), seed=st.integers(0, 1000))
def test_stacking_changes_no_bit(family, batch, seed):
    """A member whose stages run stacked with other members' gets the bits
    it gets from a plan of its own, also from a plan that has served a
    larger batch before."""
    specs, shape = family
    ensemble = build_ensemble(specs, seed)
    models = [member.model for member in ensemble.members]
    x = np.random.default_rng(seed).normal(size=(300,) + shape).astype(np.float32)
    out = np.empty((len(models), x.shape[0], ensemble.num_classes), dtype=np.float32)
    plan = InferencePlan(models)
    plan.probabilities(x, 256, out)
    plan.probabilities(x[:batch], 256, out[:, :batch])
    for index, model in enumerate(models):
        alone = np.empty((1, batch, ensemble.num_classes), dtype=np.float32)
        InferencePlan([model]).probabilities(x[:batch], 256, alone)
        np.testing.assert_array_equal(out[index, :batch], alone[0])


@pytest.mark.parametrize("dtype", [np.float64, np.int64, np.uint8])
def test_input_is_cast_like_the_graph_casts_it(dtype):
    ensemble = build_ensemble(zoo.small_vgg_ensemble(10, (3, 8, 8), 0.0625))
    x = np.random.default_rng(0).integers(0, 200, size=(5, 3, 8, 8)).astype(dtype)
    graph = ensemble.predict_proba_all(x)
    assert np.abs(plan_probabilities(ensemble, x) - graph).max() <= TOLERANCE


# --------------------------------------------------------------------------
# The benchmark spec: no label can move
# --------------------------------------------------------------------------


def test_benchmark_spec_margin_dwarfs_the_deviation():
    result = run_experiment(BENCHMARK_SPEC)
    x, y = result.dataset.x_test, result.dataset.y_test
    graph = result.ensemble.predict_proba(x, method="average")
    served = EnsemblePredictor.from_run(result.run).predict_proba(x, method="average")
    deviation = float(np.abs(served - graph).max())
    top2 = np.sort(graph, axis=1)[:, -2:]
    margin = float((top2[:, 1] - top2[:, 0]).min())
    assert deviation <= TOLERANCE
    golden = json.loads(GOLDEN.read_text())
    if margin < MARGIN_FACTOR * deviation and environment_fingerprint() != golden["environment"]:
        pytest.skip(
            f"on this numerical stack the spec trains to other weights: margin {margin:.3g} "
            f"vs deviation {deviation:.3g}"
        )
    assert margin >= MARGIN_FACTOR * deviation, (margin, deviation)
    np.testing.assert_array_equal(served.argmax(axis=1), graph.argmax(axis=1))
    assert 100.0 * np.mean(served.argmax(axis=1) != y) == result.evaluate(methods=["average"])[
        "average"
    ]


# --------------------------------------------------------------------------
# What the plan does not cover is the graph's, bit for bit
# --------------------------------------------------------------------------


def _break_engine(model):
    model.conv_blocks[0].units[0].conv.engine = "einsum"


def _break_stride(model):
    model.conv_blocks[-1].units[-1].conv.stride = 2


@pytest.mark.parametrize("break_model", [_break_engine, _break_stride])
def test_uncovered_conv_is_not_lowered(break_model):
    model = Model.from_spec(zoo.vgg("V13", 10, (3, 8, 8), 0.0625), seed=0)
    assert lower_model(model) is not None
    break_model(model)
    assert lower_model(model) is None


def test_uncovered_ensembles_get_the_graphs_bits():
    x = np.random.default_rng(3).normal(size=(9, 3, 8, 8)).astype(np.float32)
    resnets = build_ensemble(
        [zoo.resnet(18, 10, (3, 8, 8), 0.0625), zoo.resnet(34, 10, (3, 8, 8), 0.0625)]
    )
    wide = build_ensemble(zoo.small_vgg_ensemble(10, (3, 8, 8), 0.0625)[:2], dtype="float64")
    for ensemble in (resnets, wide):
        predictor = EnsemblePredictor(ensemble)
        assert predictor.lowered == ()
        served = predictor.member_probabilities(x, batch_size=4)
        graph = ensemble.predict_proba_all(x, batch_size=4)
        assert served.dtype == graph.dtype
        np.testing.assert_array_equal(served, graph)


def test_mixed_ensemble_lowers_what_it_can():
    specs = [
        zoo.vgg("V13", 10, (3, 8, 8), 0.0625),
        zoo.resnet(18, 10, (3, 8, 8), 0.0625),
        zoo.vgg("V16", 10, (3, 8, 8), 0.0625),
    ]
    ensemble = build_ensemble(specs)
    predictor = EnsemblePredictor(ensemble)
    assert predictor.lowered == (0, 2)
    x = np.random.default_rng(4).normal(size=(6, 3, 8, 8)).astype(np.float32)
    served = predictor.member_probabilities(x)
    graph = ensemble.predict_proba_all(x)
    np.testing.assert_array_equal(served[1], graph[1])
    assert np.abs(served - graph).max() <= TOLERANCE
    np.testing.assert_array_equal(
        predictor.predict_proba(x, method="vote"), ensemble.combine(served, "vote")
    )


# --------------------------------------------------------------------------
# Chunking, scratch
# --------------------------------------------------------------------------


def test_long_request_is_chunked_at_batch_size():
    ensemble = build_ensemble(zoo.small_vgg_ensemble(10, (3, 8, 8), 0.0625))
    predictor = EnsemblePredictor(ensemble, batch_size=4)
    x = np.random.default_rng(5).normal(size=(10, 3, 8, 8)).astype(np.float32)
    whole = predictor.member_probabilities(x)
    chunks = [predictor.member_probabilities(x[start : start + 4]) for start in (0, 4, 8)]
    np.testing.assert_array_equal(whole, np.concatenate(chunks, axis=1))
    # Other boundaries are another GEMM shape, the same values within tolerance.
    assert np.abs(predictor.member_probabilities(x, batch_size=256) - whole).max() <= TOLERANCE


def test_nothing_is_built_per_batch_size():
    ensemble = build_ensemble(zoo.small_vgg_ensemble(10, (3, 4, 4), 0.0625))
    models = [member.model for member in ensemble.members]
    x = np.random.default_rng(6).normal(size=(64, 3, 4, 4)).astype(np.float32)
    out = np.empty((len(models), x.shape[0], 10), dtype=np.float32)
    plan = InferencePlan(models)
    for n in range(1, 49):
        plan.probabilities(x[:n], 256, out[:, :n])
    # What is held is what the largest batch needs (rounded up to a power of
    # two), not something per size seen ...
    assert plan.capacity == 64
    bound, held = plan._bound, plan.scratch.nbytes
    fresh = InferencePlan(models)
    fresh.probabilities(x[:48], 256, out[:, :48])
    assert fresh.scratch.nbytes == held
    # ... and a client cycling through the sizes binds nothing again: a size
    # builds its call list in place of the last size's, and gets the bits of
    # a cold plan.
    for n in range(1, 65):
        plan.probabilities(x[:n], 256, out[:, :n])
        cold = np.empty_like(out[:, :n])
        InferencePlan(models).probabilities(x[:n], 256, cold)
        np.testing.assert_array_equal(out[:, :n], cold)
        assert plan._run[0] == n and plan._bound is bound and plan.scratch.nbytes == held


#: ``plan.scratch.nbytes`` of the benchmark-shaped ensemble below, measured
#: on the plan that stacked the stems only (before deeper stages of several
#: members were stacked), at capacities 128 and 256.
STEM_ONLY_SCRATCH = {128: 4_138_828, 256: 8_276_812}


@pytest.mark.parametrize("capacity", sorted(STEM_ONLY_SCRATCH))
def test_stacking_does_not_grow_the_scratch(capacity):
    ensemble = build_ensemble(zoo.small_vgg_ensemble(10, (3, 8, 8), 0.0625))
    plan = InferencePlan([member.model for member in ensemble.members])
    out = np.empty((len(ensemble), capacity, 10), dtype=np.float32)
    plan.probabilities(np.zeros((capacity, 3, 8, 8), dtype=np.float32), 256, out)
    assert plan.capacity == capacity
    assert plan.scratch.nbytes <= STEM_ONLY_SCRATCH[capacity]


#: Numpy calls of a 1-row pass of the benchmark-shaped ensemble below,
#: measured on the channel-major plan, whose stem was one GEMM for every
#: member.
CHANNEL_MAJOR_CALLS = 142
#: What a stem width of its own adds: its GEMM, bias and ReLU.
STEM_GROUP_CALLS = 3


def test_a_one_row_pass_makes_no_more_calls_than_the_channel_major_plan():
    ensemble = build_ensemble(zoo.small_vgg_ensemble(10, (3, 8, 8), 0.0625))
    plan = InferencePlan([member.model for member in ensemble.members])
    out = np.empty((len(ensemble), 1, 10), dtype=np.float32)
    plan.probabilities(np.zeros((1, 3, 8, 8), dtype=np.float32), 256, out)
    stem = plan._ops[0]
    assert [weight.shape[2] for weight, _ in stem.parts] == [4, 8]  # two stem widths
    assert len(plan._run[2]) <= CHANNEL_MAJOR_CALLS + STEM_GROUP_CALLS * (len(stem.parts) - 1)


@pytest.mark.parametrize("batch", [256, 7])
def test_one_gather_index_moves_a_pixels_channels(batch):
    """A gathering stack's table holds one index per (window, image, pixel,
    tap), plus each window's zero row, and ``take`` moves a pixel's
    channels per index: ``cols.size / channels`` of them per block read."""
    ensemble = build_ensemble(zoo.small_vgg_ensemble(10, (3, 8, 8), 0.0625))
    plan = InferencePlan([member.model for member in ensemble.members])
    out = np.empty((len(ensemble), 256, 10), dtype=np.float32)
    x = np.zeros((256, 3, 8, 8), dtype=np.float32)
    plan.probabilities(x, 256, out)
    plan.probabilities(x[:batch], 256, out[:, :batch])
    gathering = [op for op in plan._ops if isinstance(op, Stack) and op.stage.gathers]
    takes = [call for call in plan._run[2] if getattr(call[0], "__name__", "") == "take"]
    assert len(takes) == len(gathering) > 0
    for op, (take, (indices, axis), kwargs) in zip(gathering, takes):
        stage, source, cols = op.stage, take.__self__, kwargs["out"]
        windows = stage.pool * stage.pool
        assert axis == 1 and source.shape[1:] == (1 + 256 * stage.pixels, stage.channels)
        assert indices.size == (windows + batch * stage.pixels) * stage.kernel**2
        assert cols.size / stage.channels == len(source) * indices.size
        assert cols.shape[-1] == stage.channels


def test_zero_rows_survive_stacks_of_other_widths():
    """Stacks of 4- and 8-channel members write one buffer with other block
    boundaries; each stage that gathers still reads zeros on the padding,
    also on a second full batch."""
    ensemble = build_ensemble(zoo.small_vgg_ensemble(10, (3, 8, 8), 0.0625), seed=11)
    x = np.random.default_rng(11).normal(size=(256, 3, 8, 8)).astype(np.float32)
    graph = ensemble.predict_proba_all(x)
    plan = InferencePlan([member.model for member in ensemble.members])
    out = np.empty_like(graph)
    for _ in range(2):
        plan.probabilities(x, 256, out)
        assert np.abs(out - graph).max() <= TOLERANCE


@pytest.mark.parametrize("shape", [(3, 8, 8), (2, 5, 7), (3, 1, 1), (13,)])
def test_the_bits_do_not_depend_on_what_was_served_before(shape):
    """"Pool == single process, bitwise, on the same rows" compares a worker
    that has served other sizes with a cold predictor: the capacity the
    buffers were bound at (their row pitch) must not reach the arithmetic."""
    if len(shape) == 1:
        specs = zoo.mlp_family(3, input_features=shape[0], num_classes=5, base_width=8, seed=0)
    else:
        specs = zoo.small_vgg_ensemble(10, shape, 0.0625)
    ensemble = build_ensemble(specs, seed=7)
    x = np.random.default_rng(7).normal(size=(64,) + shape).astype(np.float32)
    warm = EnsemblePredictor(ensemble)
    warm.member_probabilities(x)
    for n in (1, 2, 7, 8, 9, 17, 33, 64):
        cold = EnsemblePredictor(ensemble).member_probabilities(x[:n])
        np.testing.assert_array_equal(warm.member_probabilities(x[:n]), cold)


# --------------------------------------------------------------------------
# Shards and threads: the bits depend on the row count alone
# --------------------------------------------------------------------------

#: Around one and two shards' worth, and a request of many.
SHARD_TEST_ROWS = (1, 127, 128, 129, 255, 256, 300, 1000)


def helper_threads(before=()):
    """The live ``repro-infer-*`` threads that were not in ``before``."""
    return [
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("repro-infer-") and thread not in before
    ]


def test_shards_are_near_equal_contiguous_runs():
    assert shard_slices(1, 128) == [slice(0, 1)]
    assert shard_slices(128, 128) == [slice(0, 128)]
    assert shard_slices(129, 128) == [slice(0, 65), slice(65, 129)]
    assert shard_slices(256, 128) == [slice(0, 128), slice(128, 256)]
    for rows in SHARD_TEST_ROWS:
        shards = shard_slices(rows, SHARD_ROWS)
        sizes = [part.stop - part.start for part in shards]
        assert len(shards) == -(-rows // SHARD_ROWS) and max(sizes) <= SHARD_ROWS
        assert max(sizes) - min(sizes) <= 1 and sizes == sorted(sizes, reverse=True)
        assert shards[0].start == 0 and shards[-1].stop == rows
        assert all(a.stop == b.start for a, b in zip(shards, shards[1:]))


@pytest.mark.parametrize("batch_size", [7, 256])
def test_the_bits_do_not_depend_on_the_thread_count(batch_size):
    ensemble = build_ensemble(zoo.small_vgg_ensemble(10, (3, 8, 8), 0.0625), seed=3)
    x = np.random.default_rng(3).normal(size=(1000, 3, 8, 8)).astype(np.float32)
    predictors = [EnsemblePredictor(ensemble, batch_size=batch_size, threads=n) for n in (1, 2, 3)]
    try:
        for rows in SHARD_TEST_ROWS:
            one, *more = [p.member_probabilities(x[:rows]) for p in predictors]
            for answer in more:
                np.testing.assert_array_equal(answer, one)
            assert np.abs(one - ensemble.predict_proba_all(x[:rows])).max() <= TOLERANCE
    finally:
        for predictor in predictors:
            predictor.close()


def test_a_batch_answers_as_its_shards_do():
    """Two threads on a 256-row batch give the bits of its two 128-row
    halves, each served as a request of its own."""
    ensemble = build_ensemble(zoo.small_vgg_ensemble(10, (3, 8, 8), 0.0625), seed=5)
    x = np.random.default_rng(5).normal(size=(256, 3, 8, 8)).astype(np.float32)
    with EnsemblePredictor(ensemble, threads=2) as predictor:
        halves = [predictor.member_probabilities(x[rows]) for rows in shard_slices(256, 128)]
        np.testing.assert_array_equal(
            predictor.member_probabilities(x), np.concatenate(halves, axis=1)
        )


def test_a_one_row_pass_starts_no_thread_and_keeps_its_call_list():
    ensemble = build_ensemble(zoo.small_vgg_ensemble(10, (3, 8, 8), 0.0625))
    x = np.zeros((1, 3, 8, 8), dtype=np.float32)
    bare = InferencePlan([member.model for member in ensemble.members])
    bare.probabilities(x, 256, np.empty((len(ensemble), 1, 10), dtype=np.float32))
    before = threading.enumerate()
    with EnsemblePredictor(ensemble, threads=3) as predictor:
        predictor.predict_proba(x)
        assert helper_threads(before) == []
        assert len(predictor._served.plan._run[2]) == len(bare._run[2])


def test_close_leaves_no_helper_thread():
    ensemble = build_ensemble(zoo.small_vgg_ensemble(10, (3, 8, 8), 0.0625))
    x = np.random.default_rng(8).normal(size=(300, 3, 8, 8)).astype(np.float32)
    before = threading.enumerate()
    # One batch of three shards.
    predictor = EnsemblePredictor(ensemble, batch_size=300, threads=3)
    answer = predictor.member_probabilities(x)
    assert sorted(t.name for t in helper_threads(before)) == ["repro-infer-1", "repro-infer-2"]
    predictor.close()
    assert helper_threads(before) == []
    # A closed predictor still answers, every shard on the calling thread.
    np.testing.assert_array_equal(predictor.member_probabilities(x), answer)
    assert helper_threads(before) == []


def test_a_shard_that_raises_fails_its_request_not_the_threads():
    threads = ShardThreads(2)
    ran = []

    def fail():
        raise RuntimeError("shard 1")

    try:
        with pytest.raises(RuntimeError, match="shard 1"):
            threads.run([lambda: ran.append(0), fail])
        threads.run([lambda: ran.append(0), lambda: ran.append(1)])
        assert sorted(ran) == [0, 0, 1]
    finally:
        threads.close()


# --------------------------------------------------------------------------
# reload(): the new generation whole, or the old one untouched
# --------------------------------------------------------------------------


def _conv_run(seed: int):
    spec = dict(BENCHMARK_SPEC, approach="bagging", trainer={}, seed=seed)
    spec["dataset"] = dict(BENCHMARK_SPEC["dataset"], train_samples=64, test_samples=16)
    spec["training"] = dict(BENCHMARK_SPEC["training"], max_epochs=1, min_epochs=1)
    return run_experiment(spec)


@pytest.fixture(scope="module")
def two_generations(tmp_path_factory):
    """A store whose generation 0 is promoted and whose generation 1 (other
    weights) is written but not promoted, plus a probe batch."""
    first, second = _conv_run(seed=1), _conv_run(seed=2)
    bare = tmp_path_factory.mktemp("lowering") / "bare"
    save_ensemble_run(first.run, bare)
    return bare, second.run, first.dataset.x_test


@pytest.fixture
def store(two_generations, tmp_path):
    bare, second_run, probe = two_generations
    root = tmp_path / "store"
    shutil.copytree(bare, root)
    store = ArtifactStore.open(root)
    assert store.add_generation(second_run, parent_generation=0) == 1
    return store, probe


def test_reload_equals_a_fresh_load(store):
    store, probe = store
    predictor = EnsemblePredictor.load(store.root)
    before = predictor.predict_proba(probe)
    store.promote(1)
    assert predictor.reload() == 1
    fresh = EnsemblePredictor.load(store.root)
    after = predictor.predict_proba(probe)
    np.testing.assert_array_equal(after, fresh.predict_proba(probe))
    assert np.abs(after - before).max() > 100 * TOLERANCE  # other weights, really
    assert predictor.info() == fresh.info()
    graph = fresh.ensemble.predict_proba(probe)
    assert np.abs(after - graph).max() <= TOLERANCE


@pytest.mark.parametrize("failure", ["weights", "warmup"])
def test_failed_reload_leaves_the_old_generation_serving(store, failure, monkeypatch):
    store, probe = store
    predictor = EnsemblePredictor.load(store.root)
    ensemble, before, info = predictor.ensemble, predictor.predict_proba(probe), predictor.info()
    if failure == "weights":
        # A member file whose arrays do not fit the member's architecture.
        member = sorted((store.generation_path(1) / "members").glob("*.npz"))[0]
        with np.load(member) as arrays:
            broken = {name: arrays[name][..., :1] for name in arrays.files}
        np.savez(member, **broken)
        expected = (ValueError, KeyError)
    else:
        monkeypatch.setattr(
            EnsemblePredictor, "warmup", lambda self: (_ for _ in ()).throw(MemoryError("warm"))
        )
        expected = MemoryError
    store.promote(1)
    with pytest.raises(expected):
        predictor.reload()
    assert predictor.generation == 0 and predictor.ensemble is ensemble
    assert predictor.info() == info
    np.testing.assert_array_equal(predictor.predict_proba(probe), before)


def test_after_reload_the_bits_still_do_not_depend_on_the_thread_count(store):
    store, probe = store
    x = np.resize(probe, (300,) + probe.shape[1:])
    predictors = [EnsemblePredictor.load(store.root, threads=n) for n in (1, 2, 3)]
    try:
        for predictor in predictors:
            predictor.predict_proba(x)  # the helpers start on generation 0
        store.promote(1)
        for predictor in predictors:
            assert predictor.reload() == 1
        for batch_size in (7, 256):
            one, *more = [p.predict_proba(x, batch_size=batch_size) for p in predictors]
            for answer in more:
                np.testing.assert_array_equal(answer, one)
    finally:
        for predictor in predictors:
            predictor.close()

"""Unit tests for the Model builder and its forward/backward/weight APIs."""

import numpy as np
import pytest

from repro.arch import ArchitectureSpec, count_parameters, mlp, resnet, vgg
from repro.nn import Model, SoftmaxCrossEntropy


def test_dense_model_shapes(small_mlp_spec):
    model = Model.from_spec(small_mlp_spec, seed=0)
    x = np.random.default_rng(0).normal(size=(7, 24))
    logits = model.forward(x)
    assert logits.shape == (7, 5)


def test_conv_model_shapes(tiny_vgg_spec):
    model = Model.from_spec(tiny_vgg_spec, seed=0)
    x = np.random.default_rng(0).normal(size=(3, *tiny_vgg_spec.input_shape))
    assert model.forward(x).shape == (3, 10)


def test_residual_model_shapes(tiny_resnet_spec):
    model = Model.from_spec(tiny_resnet_spec, seed=0)
    x = np.random.default_rng(0).normal(size=(2, *tiny_resnet_spec.input_shape))
    assert model.forward(x).shape == (2, 10)


@pytest.mark.parametrize("factory", [
    lambda: mlp("m", 16, [8, 8], 4),
    lambda: vgg("V13", input_shape=(3, 8, 8), width_scale=0.05),
    lambda: vgg("V16", input_shape=(3, 8, 8), width_scale=0.05),
    lambda: resnet(18, input_shape=(3, 8, 8), width_scale=0.05),
])
def test_model_parameter_count_matches_spec_count(factory):
    spec = factory()
    model = Model.from_spec(spec, seed=0)
    assert model.parameter_count() == count_parameters(spec)


def test_pooling_stops_when_spatial_size_is_odd_or_one():
    # 8x8 input with 5 blocks: only the first three blocks can pool (8->4->2->1).
    spec = vgg("V13", input_shape=(3, 8, 8), width_scale=0.05)
    model = Model.from_spec(spec, seed=0)
    pools = [block.pool is not None for block in model.conv_blocks]
    assert pools == [True, True, True, False, False]


def test_same_seed_gives_identical_models(tiny_vgg_spec):
    a = Model.from_spec(tiny_vgg_spec, seed=7)
    b = Model.from_spec(tiny_vgg_spec, seed=7)
    x = np.random.default_rng(0).normal(size=(2, *tiny_vgg_spec.input_shape))
    np.testing.assert_array_equal(a.forward(x), b.forward(x))


def test_different_seeds_give_different_models(tiny_vgg_spec):
    a = Model.from_spec(tiny_vgg_spec, seed=1)
    b = Model.from_spec(tiny_vgg_spec, seed=2)
    x = np.random.default_rng(0).normal(size=(2, *tiny_vgg_spec.input_shape))
    assert not np.allclose(a.forward(x), b.forward(x))


def test_predict_proba_rows_sum_to_one(small_mlp_spec):
    model = Model.from_spec(small_mlp_spec, seed=0)
    x = np.random.default_rng(1).normal(size=(9, 24))
    probs = model.predict_proba(x)
    # float32 softmax rows sum to one up to a few ulps.
    np.testing.assert_allclose(probs.sum(axis=1), np.ones(9), atol=1e-6)


def test_predict_returns_argmax(small_mlp_spec):
    model = Model.from_spec(small_mlp_spec, seed=0)
    x = np.random.default_rng(2).normal(size=(5, 24))
    np.testing.assert_array_equal(model.predict(x), model.predict_logits(x).argmax(axis=1))


def test_batched_prediction_matches_full_batch(small_mlp_spec):
    model = Model.from_spec(small_mlp_spec, seed=0)
    x = np.random.default_rng(3).normal(size=(23, 24))
    np.testing.assert_allclose(
        model.predict_logits(x), model.predict_logits(x, batch_size=5), atol=1e-12
    )


def test_get_set_weights_roundtrip(tiny_vgg_spec):
    model = Model.from_spec(tiny_vgg_spec, seed=0)
    x = np.random.default_rng(4).normal(size=(2, *tiny_vgg_spec.input_shape))
    reference = model.forward(x)
    snapshot = model.get_weights()

    other = Model.from_spec(tiny_vgg_spec, seed=99)
    assert not np.allclose(other.forward(x), reference)
    other.set_weights(snapshot)
    np.testing.assert_allclose(other.forward(x), reference, atol=1e-12)


def test_set_weights_unknown_layer_raises(small_mlp_spec):
    model = Model.from_spec(small_mlp_spec, seed=0)
    with pytest.raises(KeyError):
        model.set_weights({"nonexistent": {}})


def test_copy_is_independent(small_mlp_spec):
    model = Model.from_spec(small_mlp_spec, seed=0)
    clone = model.copy()
    x = np.random.default_rng(5).normal(size=(4, 24))
    np.testing.assert_allclose(model.forward(x), clone.forward(x))
    clone.classifier.params["W"][:] = 0.0
    assert not np.allclose(model.forward(x), clone.forward(x))


def test_training_step_reduces_loss(small_mlp_spec):
    """A few manual SGD steps on one batch must reduce the loss."""
    rng = np.random.default_rng(6)
    model = Model.from_spec(small_mlp_spec, seed=0)
    x = rng.normal(size=(32, 24))
    y = rng.integers(0, 5, size=32)
    loss_fn = SoftmaxCrossEntropy()

    def loss_value():
        return loss_fn.forward(model.forward(x), y)

    initial = loss_value()
    for _ in range(20):
        logits = model.forward(x, training=True)
        grad = loss_fn.backward(logits, y)
        model.zero_grads()
        model.backward(grad)
        for _, param, param_grad in model.iter_parameters():
            param -= 0.5 * param_grad
    assert loss_value() < initial


@pytest.mark.parametrize("spec_fixture", ["small_mlp_spec", "tiny_vgg_spec", "tiny_resnet_spec"])
def test_backward_fills_every_parameter_gradient_and_returns_nothing(spec_fixture, request):
    """``Model.backward`` stops at the first layer's parameters — nobody reads
    dL/d(batch) — and must leave exactly the gradients that driving every
    layer's own ``backward`` (which does return its input gradient) leaves."""
    spec = request.getfixturevalue(spec_fixture)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(6, *spec.input_shape)).astype(np.float32)
    y = rng.integers(0, spec.num_classes, size=6)
    model, layerwise = Model.from_spec(spec, seed=0), Model.from_spec(spec, seed=0)

    grad = SoftmaxCrossEntropy().backward(model.forward(x, training=True), y)
    assert model.backward(grad) is None

    layerwise.forward(x, training=True)
    for layer in reversed(layerwise._sequence()):
        grad = layer.backward(grad)
    assert grad.shape == x.shape
    got = {name: g for name, _, g in model.iter_parameters()}
    want = {name: g for name, _, g in layerwise.iter_parameters()}
    assert got.keys() == want.keys()
    for name in want:
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)


def test_dropout_spec_included_between_head_and_classifier():
    spec = ArchitectureSpec.dense("d", 10, [8], 4, dropout_rate=0.5)
    model = Model.from_spec(spec, seed=0)
    assert model.dropout is not None
    x = np.random.default_rng(7).normal(size=(6, 10))
    # Inference must be deterministic even with dropout configured.
    np.testing.assert_array_equal(model.forward(x), model.forward(x))

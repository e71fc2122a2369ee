"""Differential tests of the engine's numerics contract: ``MaxPool2D``,
``BatchNorm`` and the GEMM engine's ``Conv2D`` forward gather and ``backward``
against the kernels they replaced (``reference_kernels.py``, the parent
commit's bodies verbatim).

"Equal" means equal bits: same dtype, shape and **strides** (downstream
reductions follow the memory layout), ``np.array_equal`` and equal
``np.signbit`` (``-0.0 == +0.0``, but a ReLU mask times a negative gradient
is ``-0.0`` and stays one) — on outputs, input gradients, parameter gradients
and running statistics.  No tolerance anywhere, with one stated exception:
the wide-row convolution backward relies on the BLAS computing a dot product
to the same bits wherever its column sits, which was measured for one
numerical stack; on another stack (fingerprint differs from the golden
file's) those comparisons fall back to a few ulp.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.nn.layers import BatchNorm, Conv2D, MaxPool2D
from repro.nn.layers.conv import _patch_table
from tests.nn.reference_kernels import ReferenceBatchNorm, ReferenceConv2D, ReferenceMaxPool2D
from tests.nn.test_training_bits import GOLDEN, environment_fingerprint

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

MEASURED_STACK = environment_fingerprint() == json.loads(GOLDEN.read_text())["environment"]

dtypes = st.sampled_from(["float32", "float64"])
seeds = st.integers(0, 2**31 - 1)


def assert_same_bits(new: np.ndarray, old: np.ndarray, what: str, exact: bool = True) -> None:
    assert new.dtype == old.dtype, what
    assert new.shape == old.shape, what
    assert new.strides == old.strides, what
    if exact:
        assert np.array_equal(new, old, equal_nan=True), what
        assert np.array_equal(np.signbit(new), np.signbit(old)), what
    else:
        scale = float(np.abs(old).max()) or 1.0
        np.testing.assert_allclose(new, old, rtol=0, atol=16 * np.finfo(old.dtype).eps * scale)


def tied_values(rng: np.random.Generator, shape: tuple, dtype: str) -> np.ndarray:
    """Few distinct values, so most windows tie, with both zeros among them."""
    values = np.array([-1.0, -0.0, 0.0, 1.0], dtype=dtype)
    return values[rng.integers(0, len(values), size=shape)]


def signed_zero_gradient(rng: np.random.Generator, shape: tuple, dtype: str) -> np.ndarray:
    grad = rng.normal(size=shape).astype(dtype)
    grad[rng.random(shape) < 0.2] = 0.0
    grad[rng.random(shape) < 0.2] = -0.0
    return grad


# ---------------------------------------------------------------------------
# MaxPool2D
# ---------------------------------------------------------------------------


@SETTINGS
@given(
    dtype=dtypes,
    pool=st.sampled_from([2, 3]),
    windows_per_side=st.sampled_from([1, 2, 4, 8, 16]),
    batch=st.sampled_from([1, 3, 8]),
    channels=st.sampled_from([1, 4, 5]),
    ties=st.booleans(),
    seed=seeds,
)
def test_maxpool_matches_the_argmax_kernel(dtype, pool, windows_per_side, batch, channels, ties, seed):
    rng = np.random.default_rng(seed)
    side = pool * windows_per_side  # covers H = W in {2, 4, 8, 16, 32} for 2x2 pooling
    shape = (batch, channels, side, side)
    x = tied_values(rng, shape, dtype) if ties else rng.normal(size=shape).astype(dtype)
    grad = signed_zero_gradient(rng, (batch, channels, windows_per_side, windows_per_side), dtype)
    new, old = MaxPool2D(pool), ReferenceMaxPool2D(pool)

    for training in (False, True):
        out_new, out_old = new.forward(x, training), old.forward(x, training)
        if windows_per_side == 1:
            # One window spans the whole (contiguous) image, so the old
            # kernel's ``max`` ran numpy's SIMD reduction, which picks the
            # sign of a maximum that is a tie of +0.0 and -0.0 by lane
            # rather than by position; only the value is defined there.
            assert out_new.strides == out_old.strides
            out_new, out_old = out_new + 0.0, out_old + 0.0
        assert_same_bits(out_new, out_old, f"forward(training={training})")
    assert_same_bits(new.backward(grad), old.backward(grad), "input gradient")


def test_maxpool_sends_the_gradient_of_a_nan_window_to_its_first_nan():
    """``argmax`` treats NaN as the maximum and returns the first one; the
    view-wise mask keeps that rule, and the windows beside it are untouched."""
    x = np.array(
        [[[[1.0, np.nan, 5.0, 6.0], [np.nan, 9.0, 7.0, 8.0]]]], dtype=np.float32
    )  # windows: [1, nan / nan, 9] and [5, 6 / 7, 8]
    grad = np.array([[[[2.0, 3.0]]]], dtype=np.float32)
    new, old = MaxPool2D(2), ReferenceMaxPool2D(2)
    out = new.forward(x, training=True)
    assert_same_bits(out, old.forward(x, training=True), "forward")
    assert np.isnan(out[0, 0, 0, 0]) and out[0, 0, 0, 1] == 8.0
    grad_in = new.backward(grad)
    assert_same_bits(grad_in, old.backward(grad), "input gradient")
    np.testing.assert_array_equal(grad_in[0, 0], [[0.0, 2.0, 0.0, 0.0], [0.0, 0.0, 0.0, 3.0]])


# ---------------------------------------------------------------------------
# BatchNorm
# ---------------------------------------------------------------------------


@SETTINGS
@given(
    dtype=dtypes,
    features=st.sampled_from([1, 3, 8]),
    side=st.sampled_from([None, 1, 2, 4, 8, 32]),  # None: dense (N, F) activations
    batches=st.sampled_from([(6, 2, 6), (1, 5, 1), (16, 16, 3)]),
    seed=seeds,
)
def test_batchnorm_matches_the_mean_then_var_kernel(dtype, features, side, batches, seed):
    rng = np.random.default_rng(seed)
    new, old = BatchNorm(features, dtype=dtype), ReferenceBatchNorm(features, dtype=dtype)
    gamma = rng.uniform(0.5, 1.5, size=features).astype(dtype)
    beta = rng.normal(size=features).astype(dtype)
    for layer in (new, old):
        layer.params["gamma"], layer.params["beta"] = gamma.copy(), beta.copy()

    for batch in batches:  # running statistics carry over from step to step
        shape = (batch, features) if side is None else (batch, features, side, side)
        x = (3.0 * rng.normal(size=shape) + 1.0).astype(dtype)
        x[rng.random(shape) < 0.1] = -0.0
        grad = signed_zero_gradient(rng, shape, dtype)
        assert_same_bits(new.forward(x, True), old.forward(x, True), "training forward")
        assert_same_bits(new.backward(grad), old.backward(grad), "input gradient")
        for key in ("gamma", "beta"):
            assert_same_bits(new.grads[key], old.grads[key], f"grad {key}")
        for key in ("running_mean", "running_var"):
            assert_same_bits(new.state[key], old.state[key], key)
        assert_same_bits(new.forward(x, False), old.forward(x, False), "inference forward")


def test_batchnorm_backward_leaves_its_cache_intact():
    """The in-place backward works on its own buffers: a second call on the
    same forward gives the same bits (``x_hat`` was not scribbled on)."""
    rng = np.random.default_rng(0)
    layer = BatchNorm(4)
    layer.forward(rng.normal(size=(8, 4, 4, 4)).astype(np.float32), training=True)
    grad = rng.normal(size=(8, 4, 4, 4)).astype(np.float32)
    first = layer.backward(grad).copy()
    assert_same_bits(layer.backward(grad), first, "second backward")


def test_batchnorm_wider_than_its_input_still_promotes():
    """A float64 layer fed float32 directly (``Model`` never does this) must
    not round into a reused float32 buffer."""
    rng = np.random.default_rng(1)
    new, old = BatchNorm(3, dtype="float64"), ReferenceBatchNorm(3, dtype="float64")
    x = rng.normal(size=(5, 3, 2, 2)).astype(np.float32)
    grad = rng.normal(size=x.shape).astype(np.float32)
    assert_same_bits(new.forward(x, True), old.forward(x, True), "training forward")
    assert_same_bits(new.backward(grad), old.backward(grad), "input gradient")
    assert_same_bits(new.forward(x, False), old.forward(x, False), "inference forward")


# ---------------------------------------------------------------------------
# Conv2D forward gather (GEMM engine)
# ---------------------------------------------------------------------------


@settings(SETTINGS, max_examples=120)
@given(
    dtype=dtypes,
    kernel=st.sampled_from([1, 3, 5]),
    padding=st.sampled_from(["same", 0, 1, 2]),
    stride=st.sampled_from([1, 2]),
    side=st.integers(1, 32),  # rows on both sides of TABLE_GATHER_MAX_RUN
    channels=st.sampled_from([(1, 1), (3, 4), (5, 3), (16, 16)]),
    contiguous=st.booleans(),
    seed=seeds,
)
def test_conv_gather_matches_the_strided_copy(
    dtype, kernel, padding, stride, side, channels, contiguous, seed
):
    pad = (kernel - 1) // 2 if padding == "same" else padding
    if side + 2 * pad < kernel:
        return  # no output pixel
    rng = np.random.default_rng(seed)
    in_channels, out_channels = channels
    make = dict(stride=stride, padding=padding, seed=seed % 1000, dtype=dtype)
    new = Conv2D(in_channels, out_channels, kernel, **make)
    old = ReferenceConv2D(in_channels, out_channels, kernel, **make)
    out_side = new.output_spatial(side, side)[0]

    # Large batch, the trailing small batch of an epoch, large again: the
    # arena hands back the first ``pad_fwd`` and ``cols``.
    for batch in (6, 2, 6):
        if contiguous:
            x = rng.normal(size=(batch, in_channels, side, side)).astype(dtype)
        else:  # channels-last memory behind an (N, C, H, W) view
            x = rng.normal(size=(batch, side, side, in_channels)).astype(dtype).transpose(0, 3, 1, 2)
        x[rng.random(x.shape) < 0.1] = -0.0
        assert_same_bits(
            new._gather_cols(x, out_side, out_side), old._gather_cols(x, out_side, out_side), "cols"
        )
        for training in (False, True):
            assert_same_bits(new.forward(x, training), old.forward(x, training), "forward")
        assert_same_bits(new._cache[1], old._cache[1], "cached cols")

    padded = [buf for (key, _, _), buf in new._arena._buffers.items() if key == "pad_fwd"]
    assert len(padded) == (2 if pad else 0)
    for buf in padded:
        border = np.ones(buf.shape[2:], dtype=bool)
        border[pad:-pad, pad:-pad] = False
        assert not buf[:, :, border].any()


def test_patch_table_is_shared_read_only_and_absent_when_the_gather_is_a_copy():
    table = _patch_table(10, 10, 3, 1)
    assert table is _patch_table(10, 10, 3, 1)
    assert table.dtype == np.intp and table.shape == (3 * 3 * 8 * 8,)
    assert not table.flags.writeable
    image = np.arange(100.0)
    windows = np.lib.stride_tricks.sliding_window_view(image.reshape(10, 10), (3, 3))
    np.testing.assert_array_equal(image[table].reshape(3, 3, 8, 8), windows.transpose(2, 3, 0, 1))
    # 1x1 at stride 1, and a kernel the size of the image: patches in image order.
    assert _patch_table(8, 8, 1, 1) is None and _patch_table(3, 3, 3, 1) is None
    assert _patch_table(8, 8, 1, 2) is not None


# ---------------------------------------------------------------------------
# Conv2D.backward (GEMM engine)
# ---------------------------------------------------------------------------


@SETTINGS
@given(
    dtype=dtypes,
    kernel=st.sampled_from([1, 3, 5]),
    padding=st.sampled_from(["same", 0, 1, 2]),
    stride=st.sampled_from([1, 1, 2]),  # stride 2 takes the generic col2im path
    side=st.sampled_from([1, 2, 4, 8, 32]),
    channels=st.sampled_from([(1, 1), (3, 4), (4, 8), (5, 3), (16, 16)]),
    seed=seeds,
)
def test_conv_backward_matches_the_col2im_kernel(dtype, kernel, padding, stride, side, channels, seed):
    pad = (kernel - 1) // 2 if padding == "same" else padding
    if side + 2 * pad < kernel:
        return  # no output pixel
    rng = np.random.default_rng(seed)
    in_channels, out_channels = channels
    make = dict(stride=stride, padding=padding, seed=seed % 1000, dtype=dtype)
    new = Conv2D(in_channels, out_channels, kernel, **make)
    old = ReferenceConv2D(in_channels, out_channels, kernel, **make)
    # float32 at stride 1 with a kernel > 1 is the wide-row path; the rest is
    # the old code path and exact on any stack.
    exact = MEASURED_STACK or dtype == "float64" or stride != 1 or kernel == 1

    # Large batch, the trailing small batch of an epoch, large again: the
    # arena hands back the first buffers, junk columns and all.
    for batch in (6, 2, 6):
        x = rng.normal(size=(batch, in_channels, side, side)).astype(dtype)
        out = new.forward(x, training=True)
        assert_same_bits(out, old.forward(x, training=True), "forward")
        grad = signed_zero_gradient(rng, out.shape, dtype)
        assert_same_bits(new.backward(grad), old.backward(grad), "input gradient", exact)
        for key in ("W", "b"):
            assert_same_bits(new.grads[key], old.grads[key], f"grad {key}")


def test_wide_row_junk_columns_stay_zero_across_batch_sizes():
    """The invariant the wide-row GEMM stands on: the columns between two
    output rows are zeroed when the arena allocates the buffer and are never
    written, whatever sequence of batch sizes reuses it."""
    rng = np.random.default_rng(2)
    conv = Conv2D(3, 4, 3, seed=0)  # 8x8 "same": rows of 8 on a pitch of 10
    for batch in (6, 2, 6, 2):
        out = conv.forward(rng.normal(size=(batch, 3, 8, 8)).astype(np.float32), training=True)
        conv.backward(rng.normal(size=out.shape).astype(np.float32))
    wide = [buf for (key, _, _), buf in conv._arena._buffers.items() if key == "grad_wide"]
    assert sorted(buf.shape for buf in wide) == [(2, 4, 8, 10), (6, 4, 8, 10)]
    for buf in wide:
        assert not buf[:, :, :, 8:].any()
        assert buf[:, :, :, :8].all()


def test_backward_params_is_backward_without_the_input_gradient():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 3, 8, 8)).astype(np.float32)
    full, params_only = Conv2D(3, 5, 3, seed=1), Conv2D(3, 5, 3, seed=1)
    grad = rng.normal(size=full.forward(x, training=True).shape).astype(np.float32)
    params_only.forward(x, training=True)
    full.backward(grad)
    assert params_only.backward_params(grad) is None
    for key in ("W", "b"):
        assert_same_bits(params_only.grads[key], full.grads[key], f"grad {key}")
    with pytest.raises(RuntimeError, match="before a training forward"):
        Conv2D(3, 5, 3, seed=1).backward_params(grad)

"""Function-preserving network transformations (Figure 3 of the paper).

These are the transformations that hatching composes to expand a trained
MotherNet into each ensemble member while *exactly* preserving the function
it computes (in inference mode):

* :func:`deepen_conv_block` / :func:`deepen_dense` / :func:`deepen_residual_block`
  — insert identity layers / identity residual units (Figure 3a);
* :func:`widen_conv_layer` / :func:`widen_dense_layer` / :func:`widen_residual_block`
  — widen a layer by replicating units and splitting their outgoing weights
  (Figure 3b);
* :func:`expand_conv_filter` — grow a convolution's filter size by
  zero-padding its kernels (Figure 3c).

The paper adopts Network-Morphism-style transformations because they provide
a better starting point for continued training than Net2Net's pure
replication.  This implementation uses exact unit replication with
outgoing-weight splitting (which is function preserving *including* BatchNorm
statistics) and exposes a ``noise_std`` knob that perturbs the newly created
weights to break symmetry, which is the practical ingredient Network Morphism
adds for continued training; with ``noise_std=0`` every transformation is
exact and the test-suite verifies ``f_child(x) == f_parent(x)`` numerically.

Every function takes a :class:`~repro.nn.model.Model` and returns a *new*
model built from the transformed spec; the input model is never mutated.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.arch.spec import ArchitectureSpec, ConvBlockSpec, ConvLayerSpec, DenseLayerSpec
from repro.nn.layers import BatchNorm, Conv2D, Dense, ResidualUnit
from repro.nn.layers.residual import identity_projection_kernel
from repro.nn.model import ConvUnit, DenseUnit, Model
from repro.utils.rng import SeedLike, as_rng


# ---------------------------------------------------------------------------
# Generic helpers
# ---------------------------------------------------------------------------


def transfer_matching_weights(source: Model, target: Model) -> List[str]:
    """Copy weights from ``source`` into ``target`` for every structurally
    identical layer (same name, same shapes).  Returns the names of target
    layers that could *not* be copied (they are the ones a morphism must
    fill in explicitly)."""
    source_layers = dict(source._named_stateful_layers())
    skipped: List[str] = []
    for name, layer in target._named_stateful_layers():
        src = source_layers.get(name)
        if src is None:
            skipped.append(name)
            continue
        src_weights = src.get_weights()
        dst_weights = layer.get_weights()
        if set(src_weights) != set(dst_weights) or any(
            np.shape(src_weights[k]) != np.shape(dst_weights[k]) for k in src_weights
        ):
            skipped.append(name)
            continue
        layer.set_weights(src_weights)
    return skipped


def _replication_mapping(
    old_size: int, new_size: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Choose which existing unit each new unit replicates.

    Returns ``(mapping, counts)`` where ``mapping[i]`` is the source unit of
    output unit ``i`` (the first ``old_size`` units map to themselves) and
    ``counts[j]`` is how many output units replicate source unit ``j`` —
    the divisor applied to the consumer's incoming weights so the function is
    preserved.
    """
    if new_size < old_size:
        raise ValueError(f"cannot widen from {old_size} to smaller size {new_size}")
    extra = rng.integers(0, old_size, size=new_size - old_size)
    mapping = np.concatenate([np.arange(old_size), extra]).astype(int)
    counts = np.bincount(mapping, minlength=old_size)
    return mapping, counts


def _widen_outgoing_dense(
    old_dense: Dense, new_dense: Dense, mapping: np.ndarray, counts: np.ndarray
) -> None:
    """Adjust a dense consumer whose *input* units were replicated."""
    old_w = old_dense.params["W"]
    scale = counts[mapping].astype(old_w.dtype)
    new_dense.params["W"] = old_w[mapping, :] / scale[:, None]
    new_dense.params["b"] = old_dense.params["b"].copy()


def _widen_outgoing_conv(
    old_conv: Conv2D, new_conv: Conv2D, mapping: np.ndarray, counts: np.ndarray
) -> None:
    """Adjust a convolutional consumer whose *input* channels were replicated."""
    old_w = old_conv.params["W"]
    scale = counts[mapping].astype(old_w.dtype)
    new_conv.params["W"] = old_w[:, mapping, :, :] / scale[None, :, None, None]
    if old_conv.use_bias:
        new_conv.params["b"] = old_conv.params["b"].copy()


def _widen_conv_outputs(
    old_conv: Conv2D,
    new_conv: Conv2D,
    mapping: np.ndarray,
    rng: np.random.Generator,
    noise_std: float,
) -> None:
    """Replicate the *output* channels of a convolution according to ``mapping``."""
    old_w = old_conv.params["W"]
    new_w = old_w[mapping, :, :, :].copy()
    if noise_std > 0:
        new_w[len(old_w) :] += rng.normal(0.0, noise_std, size=new_w[len(old_w) :].shape)
    new_conv.params["W"] = new_w
    if old_conv.use_bias:
        new_conv.params["b"] = old_conv.params["b"][mapping].copy()


def _widen_dense_outputs(
    old_dense: Dense,
    new_dense: Dense,
    mapping: np.ndarray,
    rng: np.random.Generator,
    noise_std: float,
) -> None:
    """Replicate the *output* units of a dense layer according to ``mapping``."""
    old_w = old_dense.params["W"]
    new_w = old_w[:, mapping].copy()
    if noise_std > 0:
        new_w[:, old_w.shape[1] :] += rng.normal(
            0.0, noise_std, size=new_w[:, old_w.shape[1] :].shape
        )
    new_dense.params["W"] = new_w
    new_dense.params["b"] = old_dense.params["b"][mapping].copy()


def _widen_batchnorm(old_bn: Optional[BatchNorm], new_bn: Optional[BatchNorm], mapping: np.ndarray) -> None:
    """Replicate BatchNorm parameters and running statistics per ``mapping``."""
    if old_bn is None or new_bn is None:
        return
    new_bn.params["gamma"] = old_bn.params["gamma"][mapping].copy()
    new_bn.params["beta"] = old_bn.params["beta"][mapping].copy()
    new_bn.state["running_mean"] = old_bn.state["running_mean"][mapping].copy()
    new_bn.state["running_var"] = old_bn.state["running_var"][mapping].copy()


def _pad_kernel(kernel: np.ndarray, new_size: int) -> np.ndarray:
    """Zero-pad a ``(out, in, k, k)`` kernel to spatial size ``new_size``."""
    old_size = kernel.shape[-1]
    if new_size < old_size:
        raise ValueError(f"cannot shrink a filter from {old_size} to {new_size}")
    if (new_size - old_size) % 2 != 0:
        raise ValueError("filter growth must keep the kernel centred (same parity)")
    pad = (new_size - old_size) // 2
    return np.pad(kernel, ((0, 0), (0, 0), (pad, pad), (pad, pad)))


def _identity_conv_kernel(channels: int, kernel_size: int, dtype=np.float64) -> np.ndarray:
    """A ``channels x channels`` convolution kernel that implements the identity."""
    kernel = np.zeros((channels, channels, kernel_size, kernel_size), dtype=dtype)
    center = kernel_size // 2
    for c in range(channels):
        kernel[c, c, center, center] = 1.0
    return kernel


# ---------------------------------------------------------------------------
# Spec surgery helpers
# ---------------------------------------------------------------------------


def _replace_conv_layer(
    spec: ArchitectureSpec, block_idx: int, layer_idx: int, new_layer: ConvLayerSpec
) -> ArchitectureSpec:
    blocks = list(spec.conv_blocks)
    layers = list(blocks[block_idx].layers)
    layers[layer_idx] = new_layer
    blocks[block_idx] = ConvBlockSpec(tuple(layers), residual=blocks[block_idx].residual)
    return dataclasses.replace(spec, conv_blocks=tuple(blocks))


def _append_conv_layers(
    spec: ArchitectureSpec, block_idx: int, new_layers: List[ConvLayerSpec]
) -> ArchitectureSpec:
    blocks = list(spec.conv_blocks)
    layers = list(blocks[block_idx].layers) + list(new_layers)
    blocks[block_idx] = ConvBlockSpec(tuple(layers), residual=blocks[block_idx].residual)
    return dataclasses.replace(spec, conv_blocks=tuple(blocks))


def _replace_dense_layer(
    spec: ArchitectureSpec, layer_idx: int, new_layer: DenseLayerSpec
) -> ArchitectureSpec:
    layers = list(spec.dense_layers)
    layers[layer_idx] = new_layer
    return dataclasses.replace(spec, dense_layers=tuple(layers))


def _append_dense_layers(spec: ArchitectureSpec, new_layers: List[DenseLayerSpec]) -> ArchitectureSpec:
    return dataclasses.replace(spec, dense_layers=tuple(list(spec.dense_layers) + list(new_layers)))


# ---------------------------------------------------------------------------
# Consumer lookup
# ---------------------------------------------------------------------------


def _channel_consumers(model: Model, block_idx: int, layer_idx: int) -> List[Tuple[str, object]]:
    """The layers that consume the output channels of conv unit
    ``(block_idx, layer_idx)``.  Returns ``(kind, layer_or_unit)`` pairs where
    kind is ``"conv"``, ``"res"``, ``"dense"``, or ``"classifier"``."""
    block = model.conv_blocks[block_idx]
    if layer_idx + 1 < len(block.units):
        unit = block.units[layer_idx + 1]
        return [("res", unit)] if isinstance(unit, ResidualUnit) else [("conv", unit)]
    for next_block in model.conv_blocks[block_idx + 1 :]:
        if next_block.units:
            unit = next_block.units[0]
            return [("res", unit)] if isinstance(unit, ResidualUnit) else [("conv", unit)]
    if model.dense_units:
        return [("dense", model.dense_units[0])]
    return [("classifier", model.classifier)]


def _apply_input_widening(
    kind: str, old_unit, new_unit, mapping: np.ndarray, counts: np.ndarray
) -> None:
    """Rescale the incoming weights of a consumer after its input channels /
    units were replicated."""
    if kind == "conv":
        _widen_outgoing_conv(old_unit.conv, new_unit.conv, mapping, counts)
    elif kind == "res":
        _widen_outgoing_conv(old_unit.conv1, new_unit.conv1, mapping, counts)
        _widen_outgoing_conv(old_unit.projection, new_unit.projection, mapping, counts)
        # The consumer residual unit is skipped as a whole by the structural
        # weight copy (its conv1/projection shapes changed), so the untouched
        # sub-layers must be copied over explicitly.
        new_unit.conv2.set_weights(old_unit.conv2.get_weights())
        if old_unit.bn1 is not None and new_unit.bn1 is not None:
            new_unit.bn1.set_weights(old_unit.bn1.get_weights())
        if old_unit.bn2 is not None and new_unit.bn2 is not None:
            new_unit.bn2.set_weights(old_unit.bn2.get_weights())
    elif kind == "dense":
        _widen_outgoing_dense(old_unit.dense, new_unit.dense, mapping, counts)
    elif kind == "classifier":
        _widen_outgoing_dense(old_unit, new_unit, mapping, counts)
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown consumer kind {kind!r}")


# ---------------------------------------------------------------------------
# Widening
# ---------------------------------------------------------------------------


def widen_conv_layer(
    model: Model,
    block_idx: int,
    layer_idx: int,
    new_filters: int,
    seed: SeedLike = 0,
    noise_std: float = 0.0,
) -> Model:
    """Widen one plain convolutional layer to ``new_filters`` output channels.

    New channels replicate randomly chosen existing channels (together with
    their BatchNorm parameters and statistics); the consumer's incoming
    weights are divided by the replication counts so the overall function is
    unchanged.
    """
    spec = model.spec
    block_spec = spec.conv_blocks[block_idx]
    if block_spec.residual:
        raise ValueError("use widen_residual_block for residual blocks")
    old_layer = block_spec.layers[layer_idx]
    if new_filters == old_layer.filters:
        return model.copy()
    rng = as_rng(seed)
    new_spec = _replace_conv_layer(
        spec, block_idx, layer_idx, dataclasses.replace(old_layer, filters=new_filters)
    )
    new_model = Model.from_spec(new_spec, seed=0, dtype=model.dtype)
    transfer_matching_weights(model, new_model)

    mapping, counts = _replication_mapping(old_layer.filters, new_filters, rng)
    old_unit: ConvUnit = model.conv_blocks[block_idx].units[layer_idx]
    new_unit: ConvUnit = new_model.conv_blocks[block_idx].units[layer_idx]
    _widen_conv_outputs(old_unit.conv, new_unit.conv, mapping, rng, noise_std)
    _widen_batchnorm(old_unit.bn, new_unit.bn, mapping)

    (old_kind, old_consumer), = _channel_consumers(model, block_idx, layer_idx)
    (new_kind, new_consumer), = _channel_consumers(new_model, block_idx, layer_idx)
    assert old_kind == new_kind
    _apply_input_widening(old_kind, old_consumer, new_consumer, mapping, counts)
    return new_model


def widen_dense_layer(
    model: Model,
    layer_idx: int,
    new_units: int,
    seed: SeedLike = 0,
    noise_std: float = 0.0,
) -> Model:
    """Widen one hidden dense layer to ``new_units`` units (Figure 3b for
    fully-connected networks)."""
    spec = model.spec
    old_layer = spec.dense_layers[layer_idx]
    if new_units == old_layer.units:
        return model.copy()
    rng = as_rng(seed)
    new_spec = _replace_dense_layer(spec, layer_idx, DenseLayerSpec(units=new_units))
    new_model = Model.from_spec(new_spec, seed=0, dtype=model.dtype)
    transfer_matching_weights(model, new_model)

    mapping, counts = _replication_mapping(old_layer.units, new_units, rng)
    old_unit = model.dense_units[layer_idx]
    new_unit = new_model.dense_units[layer_idx]
    _widen_dense_outputs(old_unit.dense, new_unit.dense, mapping, rng, noise_std)
    _widen_batchnorm(old_unit.bn, new_unit.bn, mapping)

    if layer_idx + 1 < len(model.dense_units):
        _widen_outgoing_dense(
            model.dense_units[layer_idx + 1].dense,
            new_model.dense_units[layer_idx + 1].dense,
            mapping,
            counts,
        )
    else:
        _widen_outgoing_dense(model.classifier, new_model.classifier, mapping, counts)
    return new_model


def widen_residual_block(
    model: Model,
    block_idx: int,
    new_filters: int,
    seed: SeedLike = 0,
    noise_std: float = 0.0,
) -> Model:
    """Widen every unit of a residual block to ``new_filters`` channels.

    Residual blocks are widened block-wide with a single channel-replication
    mapping so that the skip connections and the residual branches stay
    consistent (both branches of every unit replicate identically and the
    next consumer rescales once).
    """
    spec = model.spec
    block_spec = spec.conv_blocks[block_idx]
    if not block_spec.residual:
        raise ValueError("widen_residual_block requires a residual block")
    widths = {layer.filters for layer in block_spec.layers}
    if len(widths) != 1:
        raise ValueError("residual blocks must have a uniform width to be widened")
    old_filters = widths.pop()
    if new_filters == old_filters:
        return model.copy()
    rng = as_rng(seed)
    new_spec = spec
    for i, layer in enumerate(block_spec.layers):
        new_spec = _replace_conv_layer(
            new_spec, block_idx, i, dataclasses.replace(layer, filters=new_filters)
        )
    new_model = Model.from_spec(new_spec, seed=0, dtype=model.dtype)
    transfer_matching_weights(model, new_model)

    mapping, counts = _replication_mapping(old_filters, new_filters, rng)
    old_units = model.conv_blocks[block_idx].units
    new_units = new_model.conv_blocks[block_idx].units
    for i, (old_unit, new_unit) in enumerate(zip(old_units, new_units)):
        # conv1: replicate outputs; for units after the first, also rescale
        # inputs (their input is the previous unit's replicated output).
        old_conv1_w = old_unit.conv1.params["W"]
        new_w = old_conv1_w[mapping, :, :, :].copy()
        if i > 0:
            scale = counts[mapping].astype(new_w.dtype)
            new_w = new_w[:, mapping, :, :] / scale[None, :, None, None]
        if noise_std > 0:
            new_w[old_filters:] += rng.normal(0.0, noise_std, size=new_w[old_filters:].shape)
        new_unit.conv1.params["W"] = new_w
        new_unit.conv1.params["b"] = old_unit.conv1.params["b"][mapping].copy()
        _widen_batchnorm(old_unit.bn1, new_unit.bn1, mapping)

        # conv2: outputs and inputs both live in the widened space.
        old_conv2_w = old_unit.conv2.params["W"]
        scale = counts[mapping].astype(old_conv2_w.dtype)
        new_conv2_w = old_conv2_w[mapping, :, :, :][:, mapping, :, :] / scale[None, :, None, None]
        new_unit.conv2.params["W"] = new_conv2_w
        new_unit.conv2.params["b"] = old_unit.conv2.params["b"][mapping].copy()
        _widen_batchnorm(old_unit.bn2, new_unit.bn2, mapping)

        # projection: replicate outputs; rescale inputs for units after the first.
        old_proj_w = old_unit.projection.params["W"]
        new_proj_w = old_proj_w[mapping, :, :, :].copy()
        if i > 0:
            new_proj_w = new_proj_w[:, mapping, :, :] / scale[None, :, None, None]
        new_unit.projection.params["W"] = new_proj_w

    last_idx = len(old_units) - 1
    (old_kind, old_consumer), = _channel_consumers(model, block_idx, last_idx)
    (new_kind, new_consumer), = _channel_consumers(new_model, block_idx, last_idx)
    assert old_kind == new_kind
    _apply_input_widening(old_kind, old_consumer, new_consumer, mapping, counts)
    return new_model


# ---------------------------------------------------------------------------
# Deepening
# ---------------------------------------------------------------------------


def deepen_conv_block(
    model: Model,
    block_idx: int,
    extra_layers: int,
    filter_size: Optional[int] = None,
) -> Model:
    """Append ``extra_layers`` identity convolutional layers to a plain block
    (Figure 3a).  The new layers keep the channel count of the block's last
    layer; their kernels are identity kernels and their BatchNorm layers are
    configured as exact identities, so the network function is unchanged
    (ReLU is idempotent on the non-negative activations that reach the new
    layers)."""
    if extra_layers < 1:
        return model.copy()
    spec = model.spec
    block_spec = spec.conv_blocks[block_idx]
    if block_spec.residual:
        return deepen_residual_block(model, block_idx, extra_layers, filter_size)
    last_layer = block_spec.layers[-1]
    size = filter_size if filter_size is not None else last_layer.filter_size
    new_layers = [ConvLayerSpec(filter_size=size, filters=last_layer.filters)] * extra_layers
    new_spec = _append_conv_layers(spec, block_idx, new_layers)
    new_model = Model.from_spec(new_spec, seed=0, dtype=model.dtype)
    transfer_matching_weights(model, new_model)

    depth = len(block_spec.layers)
    for offset in range(extra_layers):
        unit: ConvUnit = new_model.conv_blocks[block_idx].units[depth + offset]
        unit.conv.params["W"] = _identity_conv_kernel(
            last_layer.filters, size, dtype=unit.conv.params["W"].dtype
        )
        if unit.conv.use_bias:
            unit.conv.params["b"] = np.zeros_like(unit.conv.params["b"])
        if unit.bn is not None:
            unit.bn.set_identity()
    return new_model


def deepen_residual_block(
    model: Model,
    block_idx: int,
    extra_units: int,
    filter_size: Optional[int] = None,
) -> Model:
    """Append ``extra_units`` identity residual units to a residual block.

    The appended units use a zero-initialised second convolution (so their
    residual branch contributes nothing) and an identity projection shortcut,
    making them exact identities at hatch time."""
    if extra_units < 1:
        return model.copy()
    spec = model.spec
    block_spec = spec.conv_blocks[block_idx]
    if not block_spec.residual:
        raise ValueError("deepen_residual_block requires a residual block")
    last_layer = block_spec.layers[-1]
    size = filter_size if filter_size is not None else last_layer.filter_size
    new_layers = [ConvLayerSpec(filter_size=size, filters=last_layer.filters)] * extra_units
    new_spec = _append_conv_layers(spec, block_idx, new_layers)
    new_model = Model.from_spec(new_spec, seed=0, dtype=model.dtype)
    transfer_matching_weights(model, new_model)

    depth = len(block_spec.layers)
    for offset in range(extra_units):
        unit: ResidualUnit = new_model.conv_blocks[block_idx].units[depth + offset]
        unit.set_identity()
    return new_model


def deepen_dense(model: Model, extra_layers: int) -> Model:
    """Append ``extra_layers`` identity hidden dense layers before the
    classifier.  The new layers are square identity matrices (width equal to
    the classifier's current input width) with identity BatchNorm."""
    if extra_layers < 1:
        return model.copy()
    spec = model.spec
    if spec.dense_layers:
        width = spec.dense_layers[-1].units
    elif spec.kind == "conv":
        width = spec.conv_blocks[-1].layers[-1].filters
    else:  # pragma: no cover - unreachable (dense specs need >= 1 hidden layer)
        width = spec.input_shape[0]
    new_spec = _append_dense_layers(spec, [DenseLayerSpec(units=width)] * extra_layers)
    new_model = Model.from_spec(new_spec, seed=0, dtype=model.dtype)
    transfer_matching_weights(model, new_model)

    start = len(spec.dense_layers)
    for offset in range(extra_layers):
        unit: DenseUnit = new_model.dense_units[start + offset]
        unit.dense.params["W"] = np.eye(width, dtype=unit.dense.params["W"].dtype)
        unit.dense.params["b"] = np.zeros_like(unit.dense.params["b"])
        if unit.bn is not None:
            unit.bn.set_identity()
    return new_model


# ---------------------------------------------------------------------------
# Filter growth
# ---------------------------------------------------------------------------


def expand_conv_filter(
    model: Model, block_idx: int, layer_idx: int, new_filter_size: int
) -> Model:
    """Grow the filter size of a convolutional layer (or of both convolutions
    of a residual unit) by zero-padding its kernels (Figure 3c).  With 'same'
    padding the padded kernel computes exactly the same function."""
    spec = model.spec
    block_spec = spec.conv_blocks[block_idx]
    old_layer = block_spec.layers[layer_idx]
    if new_filter_size == old_layer.filter_size:
        return model.copy()
    new_spec = _replace_conv_layer(
        spec,
        block_idx,
        layer_idx,
        dataclasses.replace(old_layer, filter_size=new_filter_size),
    )
    new_model = Model.from_spec(new_spec, seed=0, dtype=model.dtype)
    transfer_matching_weights(model, new_model)

    old_unit = model.conv_blocks[block_idx].units[layer_idx]
    new_unit = new_model.conv_blocks[block_idx].units[layer_idx]
    if block_spec.residual:
        for conv_name in ("conv1", "conv2"):
            old_conv = getattr(old_unit, conv_name)
            new_conv = getattr(new_unit, conv_name)
            new_conv.params["W"] = _pad_kernel(old_conv.params["W"], new_filter_size)
            new_conv.params["b"] = old_conv.params["b"].copy()
        for bn_name in ("bn1", "bn2"):
            old_bn = getattr(old_unit, bn_name)
            new_bn = getattr(new_unit, bn_name)
            if old_bn is not None and new_bn is not None:
                new_bn.set_weights(old_bn.get_weights())
        new_unit.projection.set_weights(old_unit.projection.get_weights())
    else:
        new_unit.conv.params["W"] = _pad_kernel(old_unit.conv.params["W"], new_filter_size)
        if old_unit.conv.use_bias:
            new_unit.conv.params["b"] = old_unit.conv.params["b"].copy()
        if old_unit.bn is not None and new_unit.bn is not None:
            new_unit.bn.set_weights(old_unit.bn.get_weights())
    return new_model

"""Model: a trainable network materialised from an ``ArchitectureSpec``.

The model keeps a *structured* view of its layers (per-block convolutional
units, the classifier head) in addition to the flat execution sequence.  The
structured view is what the function-preserving transformations in
``repro.core.morphism`` manipulate: they need to know which convolution in
which block corresponds to which position of the spec.

Layout produced by :meth:`Model.from_spec`:

* For convolutional specs: for every block, one :class:`ConvUnit` (conv ->
  optional BatchNorm -> ReLU) per ``ConvLayerSpec`` — or one
  :class:`~repro.nn.layers.residual.ResidualUnit` per spec layer when the
  block is residual — followed by 2x2 max pooling whenever the spatial size is
  still even and larger than one pixel.  The convolutional stage is closed by
  global average pooling.
* Hidden dense layers (dense -> optional BatchNorm -> ReLU), optional dropout,
  and a final linear classifier producing logits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.arch.spec import ArchitectureSpec
from repro.nn.dtypes import DTypeLike, resolve_dtype
from repro.nn.layers import (
    BatchNorm,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    GlobalAveragePool2D,
    Layer,
    MaxPool2D,
    ReLU,
    ResidualUnit,
)
from repro.nn.layers.activations import softmax
from repro.utils.rng import RngManager, SeedLike


@dataclass
class ConvUnit:
    """A plain convolutional unit: conv -> (BatchNorm) -> ReLU."""

    conv: Conv2D
    bn: Optional[BatchNorm]
    relu: ReLU

    def layers(self) -> List[Layer]:
        out: List[Layer] = [self.conv]
        if self.bn is not None:
            out.append(self.bn)
        out.append(self.relu)
        return out


@dataclass
class DenseUnit:
    """A hidden dense unit: dense -> (BatchNorm) -> ReLU."""

    dense: Dense
    bn: Optional[BatchNorm]
    relu: ReLU

    def layers(self) -> List[Layer]:
        out: List[Layer] = [self.dense]
        if self.bn is not None:
            out.append(self.bn)
        out.append(self.relu)
        return out


@dataclass
class ConvBlock:
    """All units of one spec block plus the optional trailing pooling layer."""

    units: List[object] = field(default_factory=list)  # ConvUnit or ResidualUnit
    pool: Optional[MaxPool2D] = None


class Model:
    """A feed-forward classifier built from an :class:`ArchitectureSpec`."""

    def __init__(self, spec: ArchitectureSpec, dtype: DTypeLike | None = None):
        self.spec = spec
        self.dtype = resolve_dtype(dtype)
        self.conv_blocks: List[ConvBlock] = []
        self.global_pool: Optional[GlobalAveragePool2D] = None
        self.flatten: Optional[Flatten] = None
        self.dense_units: List[DenseUnit] = []
        self.dropout: Optional[Dropout] = None
        self.classifier: Optional[Dense] = None

    # ------------------------------------------------------------ factories
    @classmethod
    def from_spec(
        cls,
        spec: ArchitectureSpec,
        seed: SeedLike = 0,
        weight_init="he_normal",
        dtype: DTypeLike | None = None,
    ) -> "Model":
        """Materialise ``spec`` with freshly initialised weights.

        ``dtype`` fixes the compute dtype of every layer (default: the global
        compute dtype, ``float32`` unless reconfigured).
        """
        rngs = RngManager(seed if isinstance(seed, int) else None)
        if not isinstance(seed, int) and seed is not None:
            # A generator was passed: draw a base seed from it for determinism.
            rngs = RngManager(int(np.random.default_rng().integers(2**31)) if seed is None else int(seed.integers(2**31)))
        model = cls(spec, dtype=dtype)
        dt = model.dtype

        if spec.kind == "conv":
            channels, height, width = spec.input_shape
            for b, block_spec in enumerate(spec.conv_blocks):
                block = ConvBlock()
                for i, layer_spec in enumerate(block_spec.layers):
                    layer_seed = rngs.seed("conv", b, i)
                    if block_spec.residual:
                        unit: object = ResidualUnit(
                            in_channels=channels,
                            channels=layer_spec.filters,
                            kernel_size=layer_spec.filter_size,
                            use_batchnorm=spec.use_batchnorm,
                            seed=layer_seed,
                            name=f"block{b}.unit{i}",
                            dtype=dt,
                        )
                    else:
                        conv = Conv2D(
                            channels,
                            layer_spec.filters,
                            layer_spec.filter_size,
                            weight_init=weight_init,
                            seed=layer_seed,
                            name=f"block{b}.conv{i}",
                            dtype=dt,
                        )
                        bn = (
                            BatchNorm(layer_spec.filters, name=f"block{b}.bn{i}", dtype=dt)
                            if spec.use_batchnorm
                            else None
                        )
                        unit = ConvUnit(conv=conv, bn=bn, relu=ReLU(name=f"block{b}.relu{i}"))
                    block.units.append(unit)
                    channels = layer_spec.filters
                if height % 2 == 0 and width % 2 == 0 and min(height, width) >= 2:
                    block.pool = MaxPool2D(2, name=f"block{b}.pool")
                    height //= 2
                    width //= 2
                model.conv_blocks.append(block)
            model.global_pool = GlobalAveragePool2D()
            features = channels
        else:
            features = spec.input_shape[0]

        for i, layer_spec in enumerate(spec.dense_layers):
            dense = Dense(
                features,
                layer_spec.units,
                weight_init=weight_init,
                seed=rngs.seed("dense", i),
                name=f"hidden{i}.dense",
                dtype=dt,
            )
            bn = (
                BatchNorm(layer_spec.units, name=f"hidden{i}.bn", dtype=dt)
                if spec.use_batchnorm
                else None
            )
            model.dense_units.append(DenseUnit(dense=dense, bn=bn, relu=ReLU(name=f"hidden{i}.relu")))
            features = layer_spec.units

        if spec.dropout_rate > 0:
            model.dropout = Dropout(spec.dropout_rate, seed=rngs.seed("dropout"))
        model.classifier = Dense(
            features,
            spec.num_classes,
            weight_init=weight_init,
            seed=rngs.seed("classifier"),
            name="classifier",
            dtype=dt,
        )
        return model

    # --------------------------------------------------------------- layers
    def _sequence(self) -> List[Layer]:
        """The flat execution order of all layers."""
        layers: List[Layer] = []
        for block in self.conv_blocks:
            for unit in block.units:
                if isinstance(unit, ResidualUnit):
                    layers.append(unit)
                else:
                    layers.extend(unit.layers())
            if block.pool is not None:
                layers.append(block.pool)
        if self.global_pool is not None:
            layers.append(self.global_pool)
        if self.flatten is not None:
            layers.append(self.flatten)
        for unit in self.dense_units:
            layers.extend(unit.layers())
        if self.dropout is not None:
            layers.append(self.dropout)
        if self.classifier is not None:
            layers.append(self.classifier)
        return layers

    def parameter_layers(self) -> List[Layer]:
        """Layers that own trainable parameters."""
        return [layer for layer in self._sequence() if layer.parameter_count() > 0]

    # ------------------------------------------------------------------ API
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute logits for a batch of inputs."""
        # Cast only when needed: inputs already in the compute dtype (the
        # common case — the trainer casts once per fit) pass through untouched.
        if isinstance(x, np.ndarray) and x.dtype == self.dtype:
            out = x
        else:
            out = np.asarray(x, dtype=self.dtype)
        for layer in self._sequence():
            out = layer.forward(out, training=training)
        return out

    def backward(self, grad_logits: np.ndarray) -> None:
        """Back-propagate a gradient with respect to the logits into every
        layer's parameter gradients.

        The gradient with respect to the input batch is not produced: no
        caller reads it, and for a convolutional first layer it costs a GEMM
        and a scatter per step.  Drive the layers' own ``backward`` (which
        always return their input gradient) where it is needed.
        """
        first, *rest = self._sequence()
        grad = grad_logits
        for layer in reversed(rest):
            grad = layer.backward(grad)
        first.backward_params(grad)

    def predict_logits(self, x: np.ndarray, batch_size: Optional[int] = None) -> np.ndarray:
        """Inference-mode logits, optionally mini-batched to bound memory."""
        # One cast for the whole call; the per-batch forward then sees the
        # compute dtype already and does not cast again.
        if not isinstance(x, np.ndarray) or x.dtype != self.dtype:
            x = np.asarray(x, dtype=self.dtype)
        if batch_size is None or x.shape[0] <= batch_size:
            return self.forward(x, training=False)
        chunks = [
            self.forward(x[start : start + batch_size], training=False)
            for start in range(0, x.shape[0], batch_size)
        ]
        return np.concatenate(chunks, axis=0)

    def predict_proba(self, x: np.ndarray, batch_size: Optional[int] = None) -> np.ndarray:
        """Inference-mode class probabilities."""
        return softmax(self.predict_logits(x, batch_size=batch_size), axis=-1)

    def predict(self, x: np.ndarray, batch_size: Optional[int] = None) -> np.ndarray:
        """Inference-mode class labels."""
        return self.predict_logits(x, batch_size=batch_size).argmax(axis=1)

    # ------------------------------------------------------------ parameters
    def iter_parameters(self) -> Iterator[Tuple[str, np.ndarray, np.ndarray]]:
        for layer in self.parameter_layers():
            yield from layer.iter_parameters()

    def zero_grads(self) -> None:
        for layer in self.parameter_layers():
            layer.zero_grads()

    def clear_workspaces(self) -> None:
        """Release every layer's reusable scratch buffers (they rebuild
        lazily); call between fits to return training-sized scratch memory."""
        for layer in self._sequence():
            layer.clear_workspaces()

    def parameter_count(self) -> int:
        return int(sum(layer.parameter_count() for layer in self.parameter_layers()))

    # -------------------------------------------------------------- weights
    def _named_stateful_layers(self) -> List[Tuple[str, Layer]]:
        named: List[Tuple[str, Layer]] = []
        for b, block in enumerate(self.conv_blocks):
            for i, unit in enumerate(block.units):
                if isinstance(unit, ResidualUnit):
                    named.append((f"conv.{b}.{i}.res", unit))
                else:
                    named.append((f"conv.{b}.{i}.conv", unit.conv))
                    if unit.bn is not None:
                        named.append((f"conv.{b}.{i}.bn", unit.bn))
        for i, unit in enumerate(self.dense_units):
            named.append((f"dense.{i}.dense", unit.dense))
            if unit.bn is not None:
                named.append((f"dense.{i}.bn", unit.bn))
        if self.classifier is not None:
            named.append(("classifier", self.classifier))
        return named

    def get_weights(self) -> Dict[str, Dict[str, np.ndarray]]:
        """Structured snapshot of all parameters and state (deep copies)."""
        return {name: layer.get_weights() for name, layer in self._named_stateful_layers()}

    def set_weights(self, weights: Dict[str, Dict[str, np.ndarray]]) -> None:
        """Restore a snapshot produced by :meth:`get_weights`."""
        layers = dict(self._named_stateful_layers())
        for name, layer_weights in weights.items():
            if name not in layers:
                raise KeyError(f"unknown layer {name!r} in weight snapshot")
            layers[name].set_weights(layer_weights)

    def copy(self) -> "Model":
        """A structurally identical model with copied weights."""
        clone = Model.from_spec(self.spec, seed=0, dtype=self.dtype)
        clone.set_weights(self.get_weights())
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Model(spec={self.spec.name!r}, parameters={self.parameter_count()})"

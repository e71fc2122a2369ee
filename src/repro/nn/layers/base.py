"""Layer abstraction for the numpy neural-network substrate.

Every layer implements ``forward`` and ``backward`` and exposes its trainable
parameters and their gradients through dictionaries keyed by parameter name.
Models are compositions of layers; there is no global autograd tape — the
backward pass is driven layer-by-layer by :class:`repro.nn.model.Model`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np


class Layer:
    """Base class for all layers.

    Subclasses populate ``self.params`` (name -> ndarray) and, after a
    backward pass, ``self.grads`` (same keys).  Layers that keep
    non-trainable state (e.g. BatchNorm running statistics) expose it via
    ``self.state``.
    """

    def __init__(self, name: str = ""):
        self.name = name or self.__class__.__name__
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}
        self.state: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------ API
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Given dL/d(output), accumulate parameter gradients and return
        dL/d(input).

        Ownership contract: the returned gradient is only guaranteed valid
        until this layer's *next* forward/backward call — layers with
        workspace arenas (e.g. the GEMM conv engine) hand out views into
        reused scratch buffers.  Callers that retain gradients across steps
        must copy.
        """
        raise NotImplementedError

    def backward_params(self, grad_output: np.ndarray) -> None:
        """Accumulate parameter gradients only.

        :meth:`repro.nn.model.Model.backward` calls this on its first layer,
        whose input gradient (dL/d(batch)) nobody reads; layers where that
        gradient is real work (``Conv2D``, ``Dense``) override it to skip it.
        """
        self.backward(grad_output)

    # ------------------------------------------------------------ utilities
    def clear_workspaces(self) -> None:
        """Release any reusable scratch buffers (no-op for most layers).

        Layers with workspace arenas free them here; arenas rebuild lazily on
        the next forward/backward, so this is safe to call between fits to
        return training-batch-sized scratch memory."""

    def zero_grads(self) -> None:
        self.grads = {key: np.zeros_like(value) for key, value in self.params.items()}

    def parameter_count(self) -> int:
        """Number of trainable scalars in this layer."""
        return int(sum(p.size for p in self.params.values()))

    def iter_parameters(self) -> Iterator[Tuple[str, np.ndarray, np.ndarray]]:
        """Yield ``(qualified_name, param, grad)`` triples."""
        for key, value in self.params.items():
            grad = self.grads.get(key)
            if grad is None:
                grad = np.zeros_like(value)
                self.grads[key] = grad
            yield f"{self.name}.{key}", value, grad

    def copy_weights_from(self, other: "Layer") -> None:
        """Copy parameter and state tensors from another layer of identical shape."""
        for key, value in other.params.items():
            if key not in self.params or self.params[key].shape != value.shape:
                raise ValueError(
                    f"Cannot copy weights for {self.name}.{key}: "
                    f"shape mismatch or missing parameter"
                )
            self.params[key] = value.copy()
        for key, value in other.state.items():
            self.state[key] = np.array(value, copy=True)

    def get_weights(self) -> Dict[str, np.ndarray]:
        """Return copies of all parameters and state tensors."""
        weights = {f"param:{k}": v.copy() for k, v in self.params.items()}
        weights.update({f"state:{k}": np.array(v, copy=True) for k, v in self.state.items()})
        return weights

    def set_weights(self, weights: Dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`get_weights`."""
        for key, value in weights.items():
            kind, name = key.split(":", 1)
            target = self.params if kind == "param" else self.state
            if name not in target:
                raise KeyError(f"{self.name}: unknown weight {key}")
            if np.shape(target[name]) != np.shape(value):
                raise ValueError(f"{self.name}: shape mismatch for {key}")
            target[name] = np.array(value, copy=True)

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}(name={self.name!r}, params={self.parameter_count()})"


class CompositeLayer(Layer):
    """A layer that is itself composed of sub-layers (e.g. a residual unit)."""

    def sublayers(self) -> List[Layer]:
        raise NotImplementedError

    def clear_workspaces(self) -> None:
        for layer in self.sublayers():
            layer.clear_workspaces()

    def parameter_count(self) -> int:
        return int(sum(layer.parameter_count() for layer in self.sublayers()))

    def zero_grads(self) -> None:
        for layer in self.sublayers():
            layer.zero_grads()

    def iter_parameters(self):
        for layer in self.sublayers():
            for name, param, grad in layer.iter_parameters():
                yield f"{self.name}.{name}", param, grad

    def get_weights(self) -> Dict[str, np.ndarray]:
        weights: Dict[str, np.ndarray] = {}
        for idx, layer in enumerate(self.sublayers()):
            for key, value in layer.get_weights().items():
                weights[f"{idx}:{key}"] = value
        return weights

    def set_weights(self, weights: Dict[str, np.ndarray]) -> None:
        by_index: Dict[int, Dict[str, np.ndarray]] = {}
        for key, value in weights.items():
            idx, rest = key.split(":", 1)
            by_index.setdefault(int(idx), {})[rest] = value
        for idx, layer in enumerate(self.sublayers()):
            if idx in by_index:
                layer.set_weights(by_index[idx])

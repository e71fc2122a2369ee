"""Model persistence.

Saves a :class:`~repro.nn.model.Model` (its architecture spec plus every
parameter and state tensor) into a single compressed ``.npz`` file, and loads
it back.  Used to checkpoint trained MotherNets so that additional ensemble
members can be hatched later without retraining (one of the practical
benefits the paper highlights: the training cost of growing an ensemble is
just the member fine-tuning).

For *in-memory* transport between processes (a training worker ships every
model it trained back over its result pipe), :func:`pack_model_state` /
:func:`unpack_model_state` provide a picklable plain-data form — spec JSON,
compute dtype, and the weight/state snapshot — without touching the disk
format.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Union

import numpy as np

from repro.arch.serialization import spec_from_json, spec_to_json
from repro.nn.model import Model

_SPEC_KEY = "__spec_json__"


def pack_model_state(model: Model) -> Dict[str, Any]:
    """A picklable snapshot of ``model``: spec JSON + dtype + weights/state.

    The snapshot is plain data (strings and numpy arrays), pickled in a
    frame on a worker's result pipe (:mod:`repro.parallel.supervision`).
    """
    return {
        "spec_json": spec_to_json(model.spec),
        "dtype": str(np.dtype(model.dtype)),
        "weights": model.get_weights(),
    }


def unpack_model_state(state: Dict[str, Any]) -> Model:
    """Rebuild the model captured by :func:`pack_model_state`.

    The model is re-materialised with ``seed=0`` (matching how the hatching
    morphisms construct their results) and every parameter and state tensor
    is then overwritten from the snapshot, so the returned model computes
    bitwise the same function as the packed one.
    """
    spec = spec_from_json(state["spec_json"])
    model = Model.from_spec(spec, seed=0, dtype=state["dtype"])
    model.set_weights(state["weights"])
    return model


def _named_arrays(model: Model) -> Dict[str, np.ndarray]:
    """Every parameter and state tensor under its ``.npz`` entry name."""
    return {
        f"{layer_name}|{key}": value
        for layer_name, layer_weights in model.get_weights().items()
        for key, value in layer_weights.items()
    }


def model_content_hash(model: Model) -> str:
    """sha256 over every array's name, dtype, shape and bytes, in name order.

    Unlike a hash of the ``.npz`` file this does not depend on zlib or the
    archive's timestamps, so it compares trained weights across machines and
    commits: two models hash equal exactly when every parameter and state
    tensor is bitwise equal.  ``tests/nn/test_training_bits.py`` pins the
    benchmark spec's members with it.
    """
    digest = hashlib.sha256()
    for name, value in sorted(_named_arrays(model).items()):
        digest.update(f"{name}|{value.dtype.str}|{value.shape}|".encode("utf-8"))
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


def save_model(model: Model, path: Union[str, Path]) -> Path:
    """Save ``model`` (spec + weights + state) to ``path`` as an ``.npz`` file.

    The write is crash-safe: the archive is built in a temp file next to the
    target and renamed over it (``repro.utils.atomic``), so a kill at any
    instant leaves either the old checkpoint or the new one, never a torn
    ``.npz``.
    """
    from repro.utils.atomic import atomic_writer

    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    arrays = _named_arrays(model)
    arrays[_SPEC_KEY] = np.frombuffer(spec_to_json(model.spec).encode("utf-8"), dtype=np.uint8)
    with atomic_writer(path, "wb") as handle:
        np.savez_compressed(handle, **arrays)
    return path


def load_model(path: Union[str, Path]) -> Model:
    """Load a model previously stored with :func:`save_model`."""
    path = Path(path)
    with np.load(path, allow_pickle=False) as archive:
        if _SPEC_KEY not in archive:
            raise ValueError(f"{path} does not look like a saved repro model (missing spec)")
        spec_json = bytes(archive[_SPEC_KEY].tobytes()).decode("utf-8")
        spec = spec_from_json(spec_json)
        weights: dict = {}
        for key in archive.files:
            if key == _SPEC_KEY:
                continue
            layer_name, weight_key = key.split("|", 1)
            weights.setdefault(layer_name, {})[weight_key] = archive[key]
    # Rebuild in the checkpoint's dtype so compute and weights agree even when
    # the global compute dtype changed since the model was saved.
    dtype = None
    for layer_weights in weights.values():
        for value in layer_weights.values():
            if value.dtype in (np.float32, np.float64):
                dtype = value.dtype
                break
        if dtype is not None:
            break
    model = Model.from_spec(spec, seed=0, dtype=dtype)
    model.set_weights(weights)
    return model

"""Ensemble container and the four inference methods used in the paper's
evaluation: Ensemble Averaging (EA), Voting, Super Learner (SL), and Oracle.

* **EA** averages the members' predicted class probabilities.
* **Voting** takes the majority over the members' hard predictions (ties are
  broken by average probability).
* **Super Learner** learns a convex combination of the members' probability
  outputs on held-out data (van der Laan et al.); here the combination
  weights are optimised by gradient descent on a softmax parameterisation,
  which keeps them non-negative and summing to one.
* **Oracle** picks, for every test item, the prediction of the member that is
  correct if any member is correct — the "collection of specialists" measure
  reported in Figure 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.nn.layers.activations import softmax
from repro.nn.metrics import error_rate
from repro.nn.model import Model
from repro.nn.training import TrainingResult
from repro.utils.rng import SeedLike, as_rng

INFERENCE_METHODS = ("average", "vote", "super_learner", "oracle")
# Methods that combine member probabilities into a single prediction (the
# oracle is evaluation-only: it peeks at labels and cannot serve predictions).
COMBINATION_METHODS = ("average", "vote", "super_learner")
# Paper abbreviations used in figures/tables.
METHOD_ABBREVIATIONS = {
    "average": "EA",
    "vote": "Vote",
    "super_learner": "SL",
    "oracle": "O",
}


def resolve_combination_method(
    method: Optional[str],
    *,
    has_super_learner: bool,
    default: Optional[str] = None,
    subject: str = "artifact",
) -> str:
    """Validate a serving-time combination method in one place.

    Shared by every layer that accepts a per-call or configured method —
    :class:`~repro.api.predictor.EnsemblePredictor`, the multi-process
    :class:`~repro.parallel.serving.PoolPredictor` (constructor and
    dispatch path), and the queue-mode :class:`~repro.fleet.front.
    FleetFront` — so the validation rules and error wording cannot drift
    between the single-process reference and the serving tiers.

    ``method=None`` falls back to ``default``; an unknown method raises
    ``ValueError`` naming the valid choices, and ``super_learner`` without
    fitted weights raises ``RuntimeError`` (the ``subject`` names what is
    missing them in the message).
    """
    resolved = default if method is None else method
    if resolved not in COMBINATION_METHODS:
        raise ValueError(
            f"unknown combination method {resolved!r}; valid choices: "
            + ", ".join(repr(m) for m in COMBINATION_METHODS)
        )
    if resolved == "super_learner" and not has_super_learner:
        raise RuntimeError(
            f"this {subject} has no fitted super-learner weights; pick "
            "method='average'/'vote'"
        )
    return resolved


@dataclass
class EnsembleMember:
    """One trained network of an ensemble plus its training bookkeeping."""

    name: str
    model: Model
    training_result: Optional[TrainingResult] = None
    source: str = "scratch"  # "scratch" | "hatched" | "mothernet"
    cluster_id: Optional[int] = None
    training_seconds: float = 0.0

    @property
    def parameter_count(self) -> int:
        return self.model.parameter_count()


class Ensemble:
    """A collection of trained members with the paper's inference methods."""

    def __init__(self, members: Sequence[EnsembleMember], num_classes: int):
        if not members:
            raise ValueError("an ensemble needs at least one member")
        if num_classes < 2:
            raise ValueError("num_classes must be at least 2")
        self.members: List[EnsembleMember] = list(members)
        self.num_classes = int(num_classes)
        self._super_learner_weights: Optional[np.ndarray] = None

    # ------------------------------------------------------------- plumbing
    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def add_member(self, member: EnsembleMember) -> None:
        self.members.append(member)
        # Super-learner weights are invalidated when membership changes.
        self._super_learner_weights = None

    def subset(self, count: int) -> "Ensemble":
        """The ensemble formed by the first ``count`` members (used to report
        error-rate-vs-ensemble-size curves)."""
        if not 1 <= count <= len(self.members):
            raise ValueError(f"count must be in [1, {len(self.members)}]")
        return Ensemble(self.members[:count], self.num_classes)

    def predict_proba_all(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Per-member class probabilities, shape ``(members, samples, classes)``,
        computed in a *single* pass over the input.

        Instead of M independent sweeps (each re-slicing and re-casting the
        data), every input batch is prepared once — one cast per distinct
        member compute dtype — and evaluated by all members while it is hot in
        cache.  The stacked ``(M, N, K)`` tensor is what every downstream
        inference method (EA / Vote / SL / Oracle) consumes.

        Numerically identical to the per-member loop: each member sees exactly
        the same batch boundaries and inference-mode forward pass.  Members
        whose models do not expose ``forward`` (e.g. test stubs) fall back to
        their ``predict_proba``.
        """
        x = np.asarray(x)
        n = int(x.shape[0])
        # Stack in the members' compute dtype (mixed ensembles and fallback
        # stubs promote to float64) — exactly the dtype np.stack over the
        # per-member results would produce, at half the memory for uniform
        # float32 ensembles.
        out_dtype = np.result_type(
            *(getattr(member.model, "dtype", None) or np.float64 for member in self.members)
        )
        out = np.empty((len(self.members), n, self.num_classes), dtype=out_dtype)
        fast_members = [
            (idx, member) for idx, member in enumerate(self.members)
            if hasattr(member.model, "forward")
        ]
        for idx, member in enumerate(self.members):
            if not hasattr(member.model, "forward"):
                out[idx] = member.model.predict_proba(x, batch_size=batch_size)
        for start in range(0, n, batch_size):
            stop = min(start + batch_size, n)
            xb = x[start:stop]
            cast_cache: Dict[object, np.ndarray] = {}
            for idx, member in fast_members:
                dtype = getattr(member.model, "dtype", None)
                if dtype is None or xb.dtype == dtype:
                    xb_cast = xb
                else:
                    xb_cast = cast_cache.get(dtype)
                    if xb_cast is None:
                        xb_cast = np.asarray(xb, dtype=dtype)
                        cast_cache[dtype] = xb_cast
                logits = member.model.forward(xb_cast, training=False)
                out[idx, start:stop] = softmax(logits, axis=-1)
        return out

    def member_probabilities(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Per-member class probabilities, shape ``(members, samples, classes)``.

        Alias of :meth:`predict_proba_all` (kept for the original API name).
        """
        return self.predict_proba_all(x, batch_size=batch_size)

    # ---------------------------------------------------------- predictions
    def predict_proba(
        self, x: np.ndarray, method: str = "average", batch_size: int = 256
    ) -> np.ndarray:
        """Ensemble class probabilities under the requested inference method.

        ``method`` is validated eagerly — an unknown method raises
        ``ValueError`` listing the valid choices *before* any member inference
        runs.
        """
        self._check_method(method)
        return self.combine(self.member_probabilities(x, batch_size=batch_size), method)

    def _check_method(self, method: str) -> None:
        if method not in COMBINATION_METHODS:
            raise ValueError(
                f"unknown inference method {method!r}; valid choices: "
                + ", ".join(repr(m) for m in COMBINATION_METHODS)
            )
        if method == "super_learner" and self._super_learner_weights is None:
            raise RuntimeError(
                "fit_super_learner must be called before super_learner inference"
            )

    def combine(self, probs: np.ndarray, method: str = "average") -> np.ndarray:
        """Ensemble class probabilities from per-member ones, ``(members,
        samples, classes)`` — wherever those were computed."""
        self._check_method(method)
        if method == "average":
            return probs.mean(axis=0)
        if method == "vote":
            return self._vote_proba(probs)
        # Both weight-setting paths guarantee one weight per member, summing
        # to one (membership changes reset the weights to None).
        return np.tensordot(self._super_learner_weights, probs, axes=(0, 0))

    def predict(self, x: np.ndarray, method: str = "average", batch_size: int = 256) -> np.ndarray:
        return self.predict_proba(x, method=method, batch_size=batch_size).argmax(axis=1)

    def _vote_proba(self, probs: np.ndarray) -> np.ndarray:
        votes = probs.argmax(axis=2)  # (members, samples)
        counts = np.zeros((votes.shape[1], self.num_classes), dtype=np.float64)
        for member_votes in votes:
            counts[np.arange(votes.shape[1]), member_votes] += 1.0
        # Break ties with the mean probability so the result is deterministic.
        return counts + 1e-6 * probs.mean(axis=0)

    # --------------------------------------------------------- super learner
    def fit_super_learner(
        self,
        x_val: np.ndarray,
        y_val: np.ndarray,
        iterations: int = 300,
        learning_rate: float = 0.5,
        seed: SeedLike = 0,
        batch_size: int = 256,
    ) -> np.ndarray:
        """Learn the convex combination weights of the Super Learner on a
        held-out split; returns the weights (one per member)."""
        probs = self.member_probabilities(x_val, batch_size=batch_size)
        y_val = np.asarray(y_val).astype(int)
        onehot = np.zeros((y_val.shape[0], self.num_classes))
        onehot[np.arange(y_val.shape[0]), y_val] = 1.0

        rng = as_rng(seed)
        logits = rng.normal(0.0, 0.01, size=len(self.members))
        for _ in range(int(iterations)):
            weights = softmax(logits[None, :], axis=1)[0]
            mixture = np.tensordot(weights, probs, axes=(0, 0))
            mixture = np.clip(mixture, 1e-12, None)
            # Gradient of NLL w.r.t. the member weights, chained through softmax.
            grad_weights = -np.einsum("nc,mnc->m", onehot / mixture, probs) / y_val.shape[0]
            grad_logits = weights * (grad_weights - np.dot(weights, grad_weights))
            logits -= learning_rate * grad_logits
        self._super_learner_weights = softmax(logits[None, :], axis=1)[0]
        return self._super_learner_weights

    @property
    def super_learner_weights(self) -> Optional[np.ndarray]:
        return None if self._super_learner_weights is None else self._super_learner_weights.copy()

    def set_super_learner_weights(self, weights: Sequence[float]) -> None:
        """Install previously fitted Super Learner weights (e.g. restored from
        a saved ensemble artifact) instead of re-fitting them."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (len(self.members),):
            raise ValueError(
                f"expected {len(self.members)} super-learner weights, got {weights.shape}"
            )
        if np.any(weights < 0) or not np.isclose(weights.sum(), 1.0):
            raise ValueError("super-learner weights must be non-negative and sum to 1")
        self._super_learner_weights = weights

    # -------------------------------------------------------------- metrics
    def error_rate(
        self, x: np.ndarray, y: np.ndarray, method: str = "average", batch_size: int = 256
    ) -> float:
        """Test error rate in percent under an inference method (including
        ``"oracle"``)."""
        if method == "oracle":
            return self.oracle_error_rate(x, y, batch_size=batch_size)
        predictions = self.predict(x, method=method, batch_size=batch_size)
        return error_rate(predictions, y)

    def oracle_error_rate(self, x: np.ndarray, y: np.ndarray, batch_size: int = 256) -> float:
        """Error rate of an oracle that, per test item, selects the most
        accurate member's prediction (Figure 10)."""
        probs = self.member_probabilities(x, batch_size=batch_size)
        predictions = probs.argmax(axis=2)  # (members, samples)
        y = np.asarray(y).astype(int)
        any_correct = (predictions == y[None, :]).any(axis=0)
        return 100.0 * (1.0 - float(any_correct.mean()))

    def evaluate(
        self,
        x: np.ndarray,
        y: np.ndarray,
        methods: Sequence[str] = ("average", "vote", "super_learner", "oracle"),
        batch_size: int = 256,
    ) -> Dict[str, float]:
        """Error rate under every requested inference method."""
        results: Dict[str, float] = {}
        for method in methods:
            if method == "super_learner" and self._super_learner_weights is None:
                continue
            results[method] = self.error_rate(x, y, method=method, batch_size=batch_size)
        return results

    def member_error_rates(self, x: np.ndarray, y: np.ndarray, batch_size: int = 256) -> Dict[str, float]:
        """Individual test error of every member (quality-consistency check)."""
        return {
            member.name: error_rate(member.model.predict(x, batch_size=batch_size), y)
            for member in self.members
        }

    def disagreement(self, x: np.ndarray, batch_size: int = 256) -> float:
        """Mean pairwise disagreement between member predictions — the
        structural-diversity measure discussed alongside the oracle results."""
        if len(self.members) < 2:
            return 0.0
        predictions = self.predict_proba_all(x, batch_size=batch_size).argmax(axis=2)
        total = 0.0
        pairs = 0
        for i in range(len(self.members)):
            for j in range(i + 1, len(self.members)):
                total += float(np.mean(predictions[i] != predictions[j]))
                pairs += 1
        return total / pairs

"""Generation-versioned artifact store with an atomic ``CURRENT`` pointer.

The bare artifact directories written by :func:`repro.api.artifacts.
save_ensemble_run` are immutable snapshots: every serving layer loads one at
construction and is frozen to it.  The :class:`ArtifactStore` stacks a
*lifecycle* on top without changing the snapshot format::

    store/
      CURRENT                       # "gen-0001\\n" — the promoted generation
      gen-0000/
        manifest.json               # an ordinary ensemble artifact, unchanged
        members/...
        lineage.json                # provenance: parent gen, member origins
      gen-0001/
        ...

Every generation directory is a complete, self-describing artifact (it loads
with :func:`~repro.api.artifacts.load_ensemble_run` exactly like a bare
directory), so the store adds bookkeeping, never a new weight format.  The
``CURRENT`` file names the promoted generation and is replaced through
:func:`repro.utils.atomic.atomic_write_text`: a crash mid-promotion leaves
either the old pointer or the new one — a stray ``CURRENT.tmp.<pid>`` beside
an intact ``CURRENT`` is the torn-write signature and resolves to the *old*
generation by construction.

Back-compat is total: :func:`resolve_artifact` maps a bare v1/v2 directory
(``manifest.json`` at the top level, no ``CURRENT``) to implicit generation
0, so every consumer that learned to call it — ``EnsemblePredictor``,
``PoolPredictor``, ``FleetFront``, the CLI — keeps accepting the directories
it always accepted, bitwise.

``lineage.json`` records where a generation came from: its parent
generation, per-member provenance (``hatched`` members came out of a trained
MotherNet — the paper's cheap-refresh economics — versus ``retrained`` /
``initial`` members), and the promotion verdict of the shadow-evaluation
gate (see :mod:`repro.api.retrain`).

Hot-swap has one routine, :meth:`ServingTier.swap`, shared by the serving pool
and the fleet front: every serving lane (a pool worker, a fleet consumer)
reloads its predictor in place between two answers, and a tier only says how
its lanes are told (``_roll``).  It lives here rather than in
``repro.parallel`` because ``repro fleet-worker`` must not import that.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.ensemble import resolve_combination_method
from repro.obs.events import log_event
from repro.obs.metrics import get_registry
from repro.utils.atomic import atomic_write_text, fsync_dir
from repro.utils.logging import get_logger

logger = get_logger("core.artifact_store")

_metrics = get_registry()
#: The generation currently *promoted* in the store this process touched
#: last; a serving tier sets the same gauge to the generation it serves
#: after a swap, so in either process the gauge answers "which generation".
ARTIFACT_GENERATION = _metrics.gauge(
    "repro_artifact_generation",
    "Artifact generation: promoted by retrain, served by a pool after swap.",
)
_SWAPS = _metrics.counter(
    "repro_swap_total", "Artifact hot-swaps attempted by a serving tier.", ("status",)
)
_SWAP_WORKERS = _metrics.counter(
    "repro_swap_workers_respawned_total",
    "Serving lanes rolled onto a new artifact generation during swaps.",
)
_SWAP_SECONDS = _metrics.histogram(
    "repro_swap_seconds",
    "Swap makespan: target published to the last lane serving it.",
)

GEN_PREFIX = "gen-"
CURRENT_NAME = "CURRENT"
LINEAGE_NAME = "lineage.json"
LINEAGE_SCHEMA = "repro.artifact_lineage/v1"

#: Mirrors ``repro.api.artifacts.MANIFEST_NAME``.  The api layer imports
#: this module's package, so importing artifacts here at module level would
#: cycle; the name is a stable on-disk contract, duplicated knowingly.
_MANIFEST_NAME = "manifest.json"

_GEN_RE = re.compile(r"^gen-(\d{4,})$")

__all__ = [
    "ArtifactStore",
    "CURRENT_NAME",
    "GEN_PREFIX",
    "LINEAGE_NAME",
    "LINEAGE_SCHEMA",
    "ResolvedArtifact",
    "ServedArtifact",
    "ServingTier",
    "resolve_artifact",
    "served_artifact",
]


def format_generation(generation: int) -> str:
    """Directory name for a generation number: ``7 -> "gen-0007"``."""
    if generation < 0:
        raise ValueError("generation must be non-negative")
    return f"{GEN_PREFIX}{int(generation):04d}"


def parse_generation(name: str) -> Optional[int]:
    """Inverse of :func:`format_generation`; ``None`` for non-generation names."""
    match = _GEN_RE.match(name)
    return int(match.group(1)) if match else None


@dataclass(frozen=True)
class ResolvedArtifact:
    """Where an artifact path actually points after store resolution.

    ``path`` is the concrete artifact directory (``manifest.json`` inside);
    ``generation`` is 0 for bare directories; ``store`` is ``None`` unless
    the path is (or sits inside) a store layout.
    """

    path: Path
    generation: int
    store: Optional["ArtifactStore"]


def resolve_artifact(
    path: Union[str, Path], generation: Optional[int] = None
) -> ResolvedArtifact:
    """Map ``path`` to the concrete artifact directory to load.

    Accepts, in order of detection:

    * a **store root** (``CURRENT`` present) — resolves the promoted
      generation, or the explicitly requested ``generation``;
    * a **generation directory** inside a store (``store/gen-0003``) —
      pinned to that generation;
    * a **bare artifact directory** (``manifest.json`` at the top level) —
      implicit generation 0, ``store=None``; requesting any other
      generation of a bare directory is an error.

    A directory holding ``gen-*`` children but no ``CURRENT`` pointer is a
    half-migrated store and is refused with a recovery hint rather than
    guessed at.
    """
    path = Path(path)
    current_file = path / CURRENT_NAME
    if current_file.is_file():
        store = ArtifactStore(path)
        resolved_generation = (
            store.current_generation() if generation is None else int(generation)
        )
        generation_dir = store.generation_path(resolved_generation)
        if not (generation_dir / _MANIFEST_NAME).is_file():
            raise FileNotFoundError(
                f"store {path} has no complete generation "
                f"{format_generation(resolved_generation)} (no {_MANIFEST_NAME})"
            )
        return ResolvedArtifact(generation_dir, resolved_generation, store)
    if (path / _MANIFEST_NAME).is_file():
        own_generation = parse_generation(path.name)
        if own_generation is not None and (path.parent / CURRENT_NAME).is_file():
            # A generation directory addressed directly: pinned.
            if generation is not None and int(generation) != own_generation:
                raise ValueError(
                    f"{path} is generation {own_generation}; ask the store root "
                    f"for generation {generation}"
                )
            return ResolvedArtifact(path, own_generation, ArtifactStore(path.parent))
        if generation not in (None, 0):
            raise ValueError(
                f"{path} is a bare artifact directory (implicit generation 0); "
                f"it has no generation {generation}"
            )
        return ResolvedArtifact(path, 0, None)
    if path.is_dir() and any(
        parse_generation(child.name) is not None for child in path.iterdir()
    ):
        raise FileNotFoundError(
            f"{path} holds generation directories but no {CURRENT_NAME} pointer "
            "(interrupted migration?); re-run ArtifactStore.open to finish it"
        )
    raise FileNotFoundError(
        f"{path} is not an ensemble artifact (no {_MANIFEST_NAME}) "
        f"nor an artifact store (no {CURRENT_NAME})"
    )


@dataclass(frozen=True)
class ServedArtifact:
    """What a serving tier keeps about the artifact generation it serves."""

    path: Path  # the concrete artifact directory workers load
    generation: int
    input_shape: Tuple[int, ...]
    num_classes: int
    num_members: int
    approach: str
    has_super_learner: bool


def served_artifact(
    path: Union[str, Path],
    generation: Optional[int] = None,
    serving: Optional[ServedArtifact] = None,
) -> ServedArtifact:
    """Resolve ``path`` (see :func:`resolve_artifact`) and read the serving
    facts off its manifest.

    ``serving`` is what a live pool or fleet serves now: a hot-swap target
    whose input shape or class count differ from it is refused — clients and
    request validation expect the serving shapes.
    """
    from repro.api.artifacts import read_manifest

    resolved = resolve_artifact(path, generation=generation)
    manifest = read_manifest(resolved.path)
    served = ServedArtifact(
        path=resolved.path,
        generation=resolved.generation,
        input_shape=tuple(int(d) for d in manifest["input_shape"]),
        num_classes=int(manifest["num_classes"]),
        num_members=len(manifest["members"]),
        approach=manifest["approach"],
        has_super_learner=manifest.get("super_learner_weights") is not None,
    )
    if serving is not None and (served.input_shape, served.num_classes) != (
        serving.input_shape,
        serving.num_classes,
    ):
        raise ValueError(
            f"cannot hot-swap to generation {served.generation}: its "
            f"input_shape={served.input_shape} / num_classes={served.num_classes} "
            f"differ from the serving {serving.input_shape} / {serving.num_classes}"
        )
    return served


class ServingTier:
    """What the serving pool and the fleet front share: the artifact
    generation they serve and the one routine that swaps it.

    A tier calls ``__init__`` once it has validated its own parameters,
    implements ``predict_proba`` and ``close`` (which sets ``_closed``), and
    supplies ``_roll(target, timeout)``: move every serving lane onto
    ``target`` and return how many lanes it moved, or raise
    ``RuntimeError``.  ``lanes`` names that count in the swap summary.
    """

    lanes = "workers_respawned"
    #: How long ``predict_proba`` waits when the caller names no ``timeout``.
    REQUEST_TIMEOUT = 300.0

    def __init__(self, path: Union[str, Path], method: str):
        # Resolved once: lanes load the concrete generation directory, while
        # self.path keeps the caller's root so swap() can re-resolve CURRENT.
        self.path = Path(path)
        self._artifact = served_artifact(path)
        resolve_combination_method(method, has_super_learner=self._artifact.has_super_learner)
        self.method = method
        self._closed = False
        self._swap_lock = threading.Lock()  # admits one swap() at a time
        self._swaps_total = 0

    generation = property(lambda self: self._artifact.generation)
    input_shape = property(lambda self: self._artifact.input_shape)
    num_classes = property(lambda self: self._artifact.num_classes)
    num_members = property(lambda self: self._artifact.num_members)
    approach = property(lambda self: self._artifact.approach)

    def _resolve_method(self, method: Optional[str]) -> str:
        return resolve_combination_method(
            method, default=self.method, has_super_learner=self._artifact.has_super_learner
        )

    def predict(self, x, method: Optional[str] = None, timeout: Optional[float] = None):
        """Predicted class labels, shape ``(samples,)``."""
        return self.predict_proba(x, method=method, timeout=timeout).argmax(axis=1)

    def swap(
        self, generation: Optional[int] = None, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Move every serving lane onto another artifact generation, with no
        downtime.

        Re-resolves the path the tier was built with — for a store root
        whatever ``CURRENT`` now points at, or the explicit ``generation`` —
        publishes it (a lane that starts from here on loads it) and has each
        lane reload its predictor in place between two answers: every
        response comes entirely from one generation, never a mix.  A swap
        onto what is already served is a ``noop``.

        Raises ``RuntimeError`` if another swap is in progress, if a lane
        fails to load the target, on timeout (the tier's default when
        ``None``) or when the tier is closed meanwhile; the lanes already
        moved are then rolled back, so the old generation keeps serving.
        Generations whose input shape or class count differ from the served
        one are refused (``ValueError``).
        """
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")
        if not self._swap_lock.acquire(blocking=False):
            raise RuntimeError("swap already in progress")
        try:
            return self._swap_locked(generation, timeout)
        finally:
            self._swap_lock.release()

    def _swap_locked(self, generation: Optional[int], timeout: Optional[float]) -> Dict[str, Any]:
        previous = self._artifact
        target = served_artifact(self.path, generation, serving=previous)
        summary = {
            "status": "noop",
            "generation": previous.generation,
            "previous_generation": previous.generation,
            self.lanes: 0,
            "swap_seconds": 0.0,
        }
        if target.path == previous.path:
            # CURRENT did not move (or the tier serves a bare directory).
            return summary
        start = time.monotonic()
        moves = {"from_generation": previous.generation, "to_generation": target.generation}
        log_event("swap.started", artifact=str(self.path), **moves)
        self._artifact = target
        try:
            rolled = self._roll(target, timeout)
        except RuntimeError as exc:
            error = str(exc)
            self._artifact = previous
            if not self._closed:
                try:
                    self._roll(previous, timeout)
                except RuntimeError as undo:
                    error += (
                        f"; rolling back to generation {previous.generation} "
                        f"failed too: {undo}"
                    )
            _SWAPS.labels("error").inc()
            log_event("swap.failed", error=error, **moves)
            raise RuntimeError(error) from exc
        elapsed = time.monotonic() - start
        self._swaps_total += 1
        _SWAPS.labels("ok").inc()
        _SWAP_WORKERS.inc(rolled)
        _SWAP_SECONDS.observe(elapsed)
        ARTIFACT_GENERATION.set(target.generation)
        log_event("swap.completed", lanes=rolled, seconds=elapsed, **moves)
        logger.info(
            "hot-swapped %s: generation %d -> %d (%d lanes rolled in %.2fs)",
            self.path,
            previous.generation,
            target.generation,
            rolled,
            elapsed,
        )
        summary.update(status="ok", generation=target.generation, swap_seconds=elapsed)
        summary[self.lanes] = rolled
        return summary

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _member_origins(manifest: Dict[str, Any], default: str) -> List[Dict[str, Any]]:
    """Per-member provenance rows for ``lineage.json`` from a manifest."""
    rows = []
    for meta in manifest.get("members", []):
        source = meta.get("source", "scratch")
        rows.append(
            {
                "name": meta.get("name"),
                "source": source,
                "origin": "hatched" if source == "hatched" else default,
            }
        )
    return rows


class ArtifactStore:
    """A directory of generation-versioned ensemble artifacts.

    Construct on an existing store root, or use :meth:`open` to also accept
    (and migrate, in place) a bare artifact directory.  All pointer updates
    go through the atomic-rename machinery, so concurrent readers — a
    serving pool resolving ``CURRENT`` mid-promotion — always see a complete
    generation.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)

    # ------------------------------------------------------------- factories
    @classmethod
    def is_store(cls, path: Union[str, Path]) -> bool:
        return (Path(path) / CURRENT_NAME).is_file()

    @classmethod
    def open(cls, path: Union[str, Path]) -> "ArtifactStore":
        """Open a store root; a bare artifact directory is migrated in place
        (its contents become ``gen-0000`` and ``CURRENT`` commits the
        layout).  Also resumes a migration interrupted before its commit
        point."""
        path = Path(path)
        if cls.is_store(path):
            return cls(path)
        store = cls(path)
        if (path / _MANIFEST_NAME).is_file() or store._partial_migration():
            store._migrate_bare()
            return store
        raise FileNotFoundError(
            f"{path} is neither an artifact store nor a bare ensemble artifact"
        )

    def _partial_migration(self) -> bool:
        """True when a previous migration moved the manifest but crashed
        before writing ``CURRENT`` (the commit point)."""
        gen0 = self.root / format_generation(0)
        return (gen0 / _MANIFEST_NAME).is_file() and not self.is_store(self.root)

    def _migrate_bare(self) -> None:
        """Convert a bare artifact into generation 0 of this store.

        Pieces move with ``os.replace`` (same directory, atomic each), the
        manifest first so a crash at any instant leaves either a loadable
        bare artifact or a half-migrated store :func:`resolve_artifact`
        refuses with a resume hint — never a directory that loads wrong.
        ``CURRENT`` is written last and is the commit point; re-running
        ``open`` finishes an interrupted migration.
        """
        gen0 = self.root / format_generation(0)
        gen0.mkdir(parents=True, exist_ok=True)
        for name in (_MANIFEST_NAME, "members"):
            source = self.root / name
            if source.exists():
                os.replace(source, gen0 / name)
        fsync_dir(self.root)
        manifest = json.loads((gen0 / _MANIFEST_NAME).read_text(encoding="utf-8"))
        if not (gen0 / LINEAGE_NAME).is_file():
            self._write_lineage(
                0,
                {
                    "schema": LINEAGE_SCHEMA,
                    "generation": 0,
                    "parent_generation": None,
                    "created_unix": manifest.get("created_unix", time.time()),
                    "members": _member_origins(manifest, default="initial"),
                    "promotion": {"status": "promoted", "promoted_unix": time.time()},
                    "gate": None,
                },
            )
        atomic_write_text(self.root / CURRENT_NAME, format_generation(0) + "\n")
        log_event("artifact.store_migrated", store=str(self.root))
        logger.info("migrated bare artifact %s to store layout (gen-0000)", self.root)

    # ------------------------------------------------------------ generations
    def generation_path(self, generation: int) -> Path:
        return self.root / format_generation(generation)

    def generations(self) -> List[int]:
        """Complete generations (manifest present), ascending."""
        if not self.root.is_dir():
            return []
        found = []
        for child in self.root.iterdir():
            generation = parse_generation(child.name)
            if generation is not None and (child / _MANIFEST_NAME).is_file():
                found.append(generation)
        return sorted(found)

    def current_generation(self) -> int:
        """The promoted generation named by ``CURRENT``."""
        pointer = (self.root / CURRENT_NAME).read_text(encoding="utf-8").strip()
        generation = parse_generation(pointer)
        if generation is None:
            raise ValueError(
                f"corrupt {CURRENT_NAME} pointer in {self.root}: {pointer!r}"
            )
        return generation

    # --------------------------------------------------------------- lineage
    def lineage(self, generation: int) -> Optional[Dict[str, Any]]:
        lineage_path = self.generation_path(generation) / LINEAGE_NAME
        if not lineage_path.is_file():
            return None
        return json.loads(lineage_path.read_text(encoding="utf-8"))

    def _write_lineage(self, generation: int, data: Dict[str, Any]) -> None:
        atomic_write_text(
            self.generation_path(generation) / LINEAGE_NAME,
            json.dumps(data, indent=2, sort_keys=True) + "\n",
        )

    def _update_promotion(self, generation: int, promotion: Dict[str, Any]) -> None:
        lineage = self.lineage(generation)
        if lineage is None:  # pragma: no cover - gen written without lineage
            lineage = {
                "schema": LINEAGE_SCHEMA,
                "generation": generation,
                "parent_generation": None,
                "members": [],
                "gate": None,
            }
        lineage["promotion"] = promotion
        self._write_lineage(generation, lineage)

    # ------------------------------------------------------------- lifecycle
    def add_generation(
        self,
        run,
        parent_generation: Optional[int] = None,
        gate: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Persist ``run`` as the next generation (written, *not* promoted).

        The generation directory is an ordinary ``save_ensemble_run``
        artifact plus a ``lineage.json`` recording the parent generation and
        per-member provenance (``hatched`` from the run's member sources,
        ``retrained`` otherwise).  ``CURRENT`` is untouched until
        :meth:`promote`.
        """
        from repro.api.artifacts import save_ensemble_run

        existing = self.generations()
        generation = (existing[-1] + 1) if existing else 0
        generation_dir = self.generation_path(generation)
        save_ensemble_run(run, generation_dir)
        members = [
            {
                "name": member.name,
                "source": member.source,
                "origin": "hatched" if member.source == "hatched" else "retrained",
            }
            for member in run.ensemble.members
        ]
        self._write_lineage(
            generation,
            {
                "schema": LINEAGE_SCHEMA,
                "generation": generation,
                "parent_generation": parent_generation,
                "created_unix": time.time(),
                "members": members,
                "promotion": {"status": "pending"},
                "gate": gate,
            },
        )
        log_event(
            "artifact.generation_written",
            store=str(self.root),
            generation=generation,
            parent_generation=parent_generation,
        )
        logger.info(
            "wrote generation %s to store %s (parent %s)",
            format_generation(generation),
            self.root,
            parent_generation,
        )
        return generation

    def promote(self, generation: int) -> None:
        """Point ``CURRENT`` at ``generation`` (atomic; the swap trigger)."""
        generation = int(generation)
        if not (self.generation_path(generation) / _MANIFEST_NAME).is_file():
            raise FileNotFoundError(
                f"cannot promote incomplete generation "
                f"{format_generation(generation)} in {self.root}"
            )
        atomic_write_text(
            self.root / CURRENT_NAME, format_generation(generation) + "\n"
        )
        self._update_promotion(
            generation, {"status": "promoted", "promoted_unix": time.time()}
        )
        ARTIFACT_GENERATION.set(generation)
        log_event("artifact.promoted", store=str(self.root), generation=generation)
        logger.info(
            "promoted %s in store %s", format_generation(generation), self.root
        )

    def reject(self, generation: int, reason: str) -> None:
        """Mark a written-but-unpromoted generation as rejected (kept on
        disk for forensics; ``CURRENT`` is untouched)."""
        self._update_promotion(
            int(generation),
            {"status": "rejected", "reason": reason, "rejected_unix": time.time()},
        )
        log_event(
            "artifact.rejected",
            store=str(self.root),
            generation=int(generation),
            reason=reason,
        )

    # ---------------------------------------------------------- introspection
    def describe(self) -> Dict[str, Any]:
        """JSON-friendly store summary (CLI ``inspect``)."""
        current = self.current_generation()
        rows = []
        for generation in self.generations():
            lineage = self.lineage(generation) or {}
            promotion = lineage.get("promotion") or {}
            rows.append(
                {
                    "generation": generation,
                    "current": generation == current,
                    "parent_generation": lineage.get("parent_generation"),
                    "promotion": promotion.get("status", "unknown"),
                    "created_unix": lineage.get("created_unix"),
                    "members": lineage.get("members", []),
                    "gate": lineage.get("gate"),
                }
            )
        return {
            "root": str(self.root),
            "current_generation": current,
            "generations": rows,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactStore(root={str(self.root)!r})"

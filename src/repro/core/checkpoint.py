"""Incremental training checkpoints: journal finished networks, resume runs.

Training an ensemble is a sequence of independent (or mostly independent)
network fits, so a crash at member 7 of 8 should not throw away members 1-6.
:class:`RunCheckpoint` gives every ensemble trainer a durable journal:

* as each network finishes training, the trainer records it — weights first
  (atomic ``.npz``), then a small ``.json`` *done marker* (atomic as well),
  so the marker's existence guarantees a complete, loadable snapshot;
* on resume (``repro train --resume``), the trainer asks the journal which
  networks are already done, restores them bitwise (model serialisation
  round-trips exactly), and trains only the remainder — every seed is derived
  statelessly from the experiment seed, so the completed run is identical to
  an uninterrupted one;
* a ``kill -9`` of the training process at any instant loses at most the
  networks that were in flight.

Layout (inside the run/artifact directory)::

    checkpoint/
      checkpoint.json               # schema + experiment fingerprint (first)
      mothernets/
        c0000-<name>.npz            # full model snapshot
        c0000-<name>.json           # done marker (written after the .npz)
      members/
        000-<name>.npz
        000-<name>.json

The fingerprint (normally the experiment-spec dictionary) is compared on
resume so a journal can never silently leak into a *different* experiment.
The journal is self-contained and deleted (:meth:`discard`) once the final
artifact manifest is safely on disk.

The journaled record is the trainers' own
:class:`~repro.core.trainer.TrainedNetwork`; entries loaded back carry
``restored=True``.  MotherNets subtlety: a member whose hatching plan is
empty *aliases* its cluster's MotherNet — it fine-tunes a copy of it, and
later members of the cluster hatch from the fine-tuned weights.  Such
members are journaled with ``aliased_mothernet=True``; on resume the later
members hatch from the restored weights, preserving the bitwise guarantee.
"""

from __future__ import annotations

import json
import re
import shutil
from pathlib import Path
from typing import Dict, Optional, Union

from repro.core.trainer import TrainedNetwork
from repro.nn.model import Model
from repro.nn.serialization import load_model, save_model
from repro.nn.training import TrainingResult
from repro.obs.events import log_event
from repro.obs.metrics import get_registry
from repro.utils.atomic import atomic_write_text
from repro.utils.logging import get_logger

logger = get_logger("core.checkpoint")

CHECKPOINT_SCHEMA = "repro.checkpoint/v1"
CHECKPOINT_DIR_NAME = "checkpoint"
_STATE_NAME = "checkpoint.json"
_MEMBER_DIR = "members"
_MOTHERNET_DIR = "mothernets"

_metrics = get_registry()
_RESUME_RESTORED = _metrics.gauge(
    "repro_training_resume_restored_networks",
    "Networks restored from the checkpoint journal (not retrained) in the "
    "latest resumed run.",
)

__all__ = ["RunCheckpoint", "CHECKPOINT_DIR_NAME"]


def _meta(net: TrainedNetwork, index: int) -> Dict[str, object]:
    """The done-marker JSON of one journaled network."""
    return {
        "schema": CHECKPOINT_SCHEMA,
        "index": index,
        "name": net.name,
        "seconds": net.seconds,
        "parameters": net.parameters,
        "samples_per_epoch": net.samples_per_epoch,
        "compute_phases": dict(net.compute_phases),
        "cluster_id": net.cluster_id,
        "aliased_mothernet": net.aliased_mothernet,
        "result": None if net.result is None else net.result.to_dict(),
    }


def _from_meta(meta: Dict[str, object], model: Model) -> TrainedNetwork:
    result = meta.get("result")
    return TrainedNetwork(
        name=str(meta["name"]),
        model=model,
        result=None if result is None else TrainingResult.from_dict(result),
        seconds=float(meta.get("seconds", 0.0)),
        parameters=int(meta.get("parameters", 0)),
        samples_per_epoch=int(meta.get("samples_per_epoch", 0)),
        compute_phases=dict(meta.get("compute_phases") or {}),
        cluster_id=meta.get("cluster_id"),
        aliased_mothernet=bool(meta.get("aliased_mothernet", False)),
        restored=True,
    )


def _safe_filename(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", name)


class RunCheckpoint:
    """The journal of one training run (see module docstring).

    Use :meth:`open` — it creates a fresh journal, or validates and loads an
    existing one when ``resume`` is true.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.members: Dict[int, TrainedNetwork] = {}
        self.mothernets: Dict[int, TrainedNetwork] = {}
        self.restored = 0  # networks handed back to a trainer this run

    # ----------------------------------------------------------------- open
    @classmethod
    def open(
        cls,
        run_dir: Union[str, Path],
        fingerprint: Dict[str, object],
        resume: bool = False,
    ) -> "RunCheckpoint":
        """Open the journal under ``run_dir`` (at ``run_dir/checkpoint``).

        Fresh runs create the directory and write the fingerprint first; an
        existing journal is refused unless ``resume`` is true (you either
        continue an interrupted run deliberately or clean up the directory),
        and a resumed journal must carry the *same* fingerprint — resuming a
        different experiment into it would mix incompatible members.
        """
        checkpoint = cls(Path(run_dir) / CHECKPOINT_DIR_NAME)
        state_path = checkpoint.root / _STATE_NAME
        if state_path.is_file():
            if not resume:
                raise FileExistsError(
                    f"a checkpoint journal from an interrupted run exists at "
                    f"{checkpoint.root}; pass --resume to continue it, or delete "
                    "the directory to start over"
                )
            state = json.loads(state_path.read_text(encoding="utf-8"))
            if state.get("schema") != CHECKPOINT_SCHEMA:
                raise ValueError(
                    f"unsupported checkpoint schema {state.get('schema')!r} at "
                    f"{checkpoint.root} (expected {CHECKPOINT_SCHEMA!r})"
                )
            if state.get("fingerprint") != fingerprint:
                raise ValueError(
                    f"the checkpoint at {checkpoint.root} belongs to a different "
                    "experiment (spec fingerprint mismatch); refusing to resume"
                )
            checkpoint._load()
            logger.info(
                "resuming from %s: %d member(s) and %d mothernet(s) already done",
                checkpoint.root,
                len(checkpoint.members),
                len(checkpoint.mothernets),
            )
            log_event(
                "train.checkpoint_resumed",
                path=str(checkpoint.root),
                members_done=len(checkpoint.members),
                mothernets_done=len(checkpoint.mothernets),
            )
        else:
            if resume:
                logger.warning(
                    "--resume given but no checkpoint journal at %s; starting fresh",
                    checkpoint.root,
                )
            (checkpoint.root / _MEMBER_DIR).mkdir(parents=True, exist_ok=True)
            (checkpoint.root / _MOTHERNET_DIR).mkdir(parents=True, exist_ok=True)
            atomic_write_text(
                state_path,
                json.dumps(
                    {"schema": CHECKPOINT_SCHEMA, "fingerprint": fingerprint},
                    indent=2,
                    sort_keys=True,
                )
                + "\n",
            )
        if _metrics.enabled:
            _RESUME_RESTORED.set(0)
        return checkpoint

    def _load(self) -> None:
        for directory, into in (
            (self.root / _MEMBER_DIR, self.members),
            (self.root / _MOTHERNET_DIR, self.mothernets),
        ):
            if not directory.is_dir():
                continue
            for marker in sorted(directory.glob("*.json")):
                weights = marker.with_suffix(".npz")
                try:
                    meta = json.loads(marker.read_text(encoding="utf-8"))
                    network = _from_meta(meta, load_model(weights))
                except (OSError, ValueError, KeyError) as exc:
                    # The done marker is written after the weights, so this is
                    # a journal someone tampered with (or a torn filesystem);
                    # treat the network as not-done and retrain it.
                    logger.warning(
                        "ignoring unreadable checkpoint entry %s (%s)", marker, exc
                    )
                    continue
                into[int(meta["index"])] = network

    # -------------------------------------------------------------- journal
    def _record(self, directory: Path, stem: str, index: int, net: TrainedNetwork) -> None:
        # Weights first, marker last: the marker's existence is the commit
        # point (both writes are individually atomic).
        save_model(net.model, directory / f"{stem}.npz")
        atomic_write_text(
            directory / f"{stem}.json",
            json.dumps(_meta(net, index), indent=2, sort_keys=True) + "\n",
        )

    def record_member(self, index: int, net: TrainedNetwork) -> None:
        """Journal member ``index`` as done (atomic; safe against kill -9)."""
        self._record(
            self.root / _MEMBER_DIR, f"{index:03d}-{_safe_filename(net.name)}", index, net
        )
        self.members[index] = net
        log_event("train.member_journaled", member=net.name, index=index)

    def record_mothernet(self, cluster_id: int, net: TrainedNetwork) -> None:
        """Journal the MotherNet of ``cluster_id`` as done."""
        self._record(
            self.root / _MOTHERNET_DIR,
            f"c{cluster_id:04d}-{_safe_filename(net.name)}",
            cluster_id,
            net,
        )
        self.mothernets[cluster_id] = net
        log_event("train.mothernet_journaled", mothernet=net.name, cluster=cluster_id)

    # -------------------------------------------------------------- restore
    def member(self, index: int) -> Optional[TrainedNetwork]:
        return self.members.get(index)

    def mothernet(self, cluster_id: int) -> Optional[TrainedNetwork]:
        return self.mothernets.get(cluster_id)

    def mark_restored(self, kind: str, name: str) -> None:
        """Book one journaled network a trainer reused instead of retraining."""
        self.restored += 1
        if _metrics.enabled:
            _RESUME_RESTORED.set(self.restored)
        logger.info("restored %s %r from checkpoint (not retrained)", kind, name)
        log_event("train.network_restored", kind=kind, name=name)

    # -------------------------------------------------------------- cleanup
    def discard(self) -> None:
        """Delete the journal (call once the final artifact is safely saved)."""
        shutil.rmtree(self.root, ignore_errors=True)

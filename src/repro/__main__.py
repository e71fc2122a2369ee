"""Command-line interface: ``python -m repro`` (installed as ``repro``).

Sub-commands drive the full train -> save -> serve workflow from JSON
configs and ``.npy`` tensors, with no Python required:

* ``repro train --config exp.json --output artifact/`` — execute a declarative
  :class:`~repro.api.ExperimentSpec` and save the trained ensemble artifact;
* ``repro predict --artifact artifact/ --input x.npy`` — one-shot predictions
  from a saved artifact;
* ``repro serve --artifact artifact/ --workers 4`` — long-running HTTP server
  (``POST /predict``, ``GET /info``, ``GET /healthz``, Prometheus
  ``GET /metrics``; structured JSON event logs on stderr; stops cleanly on
  SIGINT/SIGTERM).  ``--mode pool`` (default) answers from a local
  self-healing multi-process worker pool; ``--mode queue`` publishes jobs on
  a one-queue broker answered by an autoscaled fleet of consumers, the first
  of which is a thread of the front itself;
* ``repro fleet-worker --broker host:port --artifact artifact/`` — one fleet
  consumer: attaches to a queue-mode front's broker and answers its leased
  jobs one at a time with an in-process predictor (the front spawns these
  itself beyond its own consumer 0; run them by hand to add capacity from
  other terminals or hosts);
* ``repro inspect --artifact artifact/`` — summarise an artifact, including
  training phase makespans and per-member training-history summaries; for a
  generation-versioned store, also the lineage and promotion ledger;
* ``repro retrain --store store/ --config exp.json`` — background retraining
  loop: train on fresh data, shadow-evaluate against the promoted baseline,
  and promote the new generation into the store (the serving tier picks it
  up via ``POST /admin/swap`` with zero downtime).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MotherNets reproduction: train, persist, and serve deep ensembles.",
    )
    import repro

    parser.add_argument("--version", action="version", version=f"repro {repro.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run a declarative experiment and save the artifact")
    train.add_argument("--config", required=True, type=Path, help="ExperimentSpec JSON file")
    train.add_argument("--output", required=True, type=Path, help="artifact directory to create")
    train.add_argument(
        "--dump-test-inputs",
        type=Path,
        default=None,
        help="also save the dataset's test inputs to this .npy file (handy for "
        "smoke-testing `repro predict` against the artifact)",
    )
    train.add_argument(
        "--no-eval", action="store_true", help="skip test-set evaluation after training"
    )
    train.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted run from the checkpoint journal in --output "
        "(finished members are restored bitwise, not retrained)",
    )
    train.add_argument(
        "--log-file",
        type=Path,
        default=None,
        help="also write JSON event logs to this file (size-rotated)",
    )
    train.add_argument(
        "--metrics-file",
        type=Path,
        default=None,
        help="write a Prometheus text dump of the run's metrics here on exit",
    )

    predict = sub.add_parser("predict", help="serve predictions from a saved artifact")
    predict.add_argument("--artifact", required=True, type=Path, help="artifact directory")
    predict.add_argument("--input", required=True, type=Path, help=".npy batch of inputs")
    predict.add_argument(
        "--method",
        default="average",
        help="combination method: average | vote | super_learner (default: average)",
    )
    predict.add_argument(
        "--proba", action="store_true", help="emit class probabilities instead of labels"
    )
    predict.add_argument(
        "--output", type=Path, default=None, help="write predictions to this .npy file"
    )
    predict.add_argument("--batch-size", type=int, default=256)

    serve = sub.add_parser(
        "serve", help="serve an artifact over HTTP from a multi-process worker pool"
    )
    serve.add_argument("--artifact", required=True, type=Path, help="artifact directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8765, help="TCP port (0 picks an ephemeral port)"
    )
    serve.add_argument(
        "--workers", type=int, default=None, help="pool worker processes (default 2; queue mode: 1)"
    )
    serve.add_argument(
        "--method",
        default="average",
        help="default combination method: average | vote | super_learner",
    )
    serve.add_argument("--batch-size", type=int, default=256)
    serve.add_argument(
        "--log-format",
        choices=("json", "text"),
        default="json",
        help="stderr log format: structured JSON event lines (default) or text",
    )
    serve.add_argument(
        "--log-file",
        type=Path,
        default=None,
        help="also write JSON event logs to this file (size-rotated)",
    )
    serve.add_argument(
        "--mode",
        choices=("pool", "queue"),
        default="pool",
        help="serving backend: a local worker pool (default) or a queue-backed "
        "horizontal consumer fleet",
    )
    fleet = serve.add_argument_group("queue mode (--mode queue)")
    fleet.add_argument(
        "--min-consumers",
        type=int,
        default=1,
        help="minimum fleet consumers, counting the front's own consumer 0 "
        "(front-0): 1 runs no consumer subprocess at all",
    )
    fleet.add_argument(
        "--max-consumers",
        type=int,
        default=4,
        help="autoscaler's consumer cap (front-0 included); equal to "
        "--min-consumers pins the fleet (no autoscaler); the autoscaler's "
        "thresholds and cooldown are fixed in repro.fleet.autoscaler",
    )
    fleet.add_argument(
        "--visibility-timeout",
        type=float,
        default=30.0,
        help="seconds a leased job may stay unacked before redelivery",
    )
    fleet.add_argument(
        "--fleet-port",
        type=int,
        default=0,
        help="TCP port for the broker (0 picks an ephemeral port; printed in "
        "the serving banner for external fleet workers)",
    )
    fleet.add_argument(
        "--fleet-authkey",
        default="repro-fleet",
        help="shared secret fleet workers must present to the broker",
    )
    fleet.add_argument(
        "--no-local-consumers",
        action="store_true",
        help="run no consumer in or beside the front (no front-0, no local "
        "fleet workers); serve only externally attached ones (disables the "
        "autoscaler)",
    )

    worker = sub.add_parser(
        "fleet-worker",
        help="run one fleet consumer (one process, one job at a time, in-process "
        "predictor) against a queue-mode serve front's broker",
    )
    worker.add_argument(
        "--broker",
        required=True,
        help="broker address as host:port (see the queue-mode serving banner)",
    )
    worker.add_argument(
        "--authkey", default="repro-fleet", help="broker shared secret"
    )
    worker.add_argument("--artifact", required=True, type=Path, help="artifact directory")
    worker.add_argument(
        "--consumer-id",
        default=None,
        help="stable consumer name (default: fleet-<pid>)",
    )
    worker.add_argument(
        "--method",
        default="average",
        help="default combination method: average | vote | super_learner",
    )
    worker.add_argument("--batch-size", type=int, default=256)
    worker.add_argument(
        "--log-format",
        choices=("json", "text"),
        default="json",
        help="stderr log format: structured JSON event lines (default) or text",
    )
    worker.add_argument(
        "--log-file",
        type=Path,
        default=None,
        help="also write JSON event logs to this file (size-rotated)",
    )

    inspect = sub.add_parser("inspect", help="summarise a saved artifact")
    inspect.add_argument("--artifact", required=True, type=Path, help="artifact directory")

    retrain = sub.add_parser(
        "retrain",
        help="retrain on fresh data, shadow-evaluate, and promote into an "
        "artifact store (hot-swap source)",
    )
    retrain.add_argument(
        "--store",
        required=True,
        type=Path,
        help="artifact store root (a bare artifact directory is migrated to "
        "the store layout in place, becoming gen-0000)",
    )
    retrain.add_argument(
        "--config", required=True, type=Path, help="ExperimentSpec JSON file"
    )
    retrain.add_argument(
        "--once", action="store_true", help="run exactly one retrain cycle and exit"
    )
    retrain.add_argument(
        "--interval",
        type=float,
        default=0.0,
        help="seconds to sleep between cycles (loop mode)",
    )
    retrain.add_argument(
        "--max-cycles",
        type=int,
        default=None,
        help="stop after this many cycles (default: run until interrupted)",
    )
    retrain.add_argument(
        "--max-error-delta",
        type=float,
        default=1.0,
        help="promotion gate: candidate error may exceed the baseline's by at "
        "most this many percentage points (default: 1.0)",
    )
    retrain.add_argument(
        "--method",
        default="average",
        help="combination method for the shadow evaluation (default: average)",
    )
    retrain.add_argument(
        "--data-seed-step",
        type=int,
        default=1,
        help="dataset-seed increment per generation written (simulates fresh data)",
    )
    retrain.add_argument(
        "--log-file",
        type=Path,
        default=None,
        help="also write JSON event logs to this file (size-rotated)",
    )
    retrain.add_argument(
        "--metrics-file",
        type=Path,
        default=None,
        help="write a Prometheus text dump of the loop's metrics here on exit",
    )

    return parser


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.api import ExperimentSpec, run_experiment, save_ensemble_run
    from repro.api.artifacts import MANIFEST_NAME
    from repro.obs.events import configure_logging, enable_events

    # Surface experiment lifecycle events on stderr (JSON lines under
    # REPRO_LOG_FORMAT=json); stdout stays the machine-readable report.
    configure_logging(log_file=args.log_file)
    enable_events()

    # Fail on a taken output location *before* spending the training time.
    if (args.output / MANIFEST_NAME).exists():
        raise FileExistsError(f"an ensemble artifact already exists at {args.output}")
    spec = ExperimentSpec.from_file(args.config)
    try:
        # The output directory doubles as the checkpoint journal: every
        # finished member lands there as it completes, so an interrupted run
        # continues with `--resume` instead of retraining from zero.
        result = run_experiment(spec, checkpoint_dir=args.output, resume=args.resume)
        save_ensemble_run(result.run, args.output)
        if result.checkpoint is not None:
            result.checkpoint.discard()  # the manifest is on disk; journal done
        if args.dump_test_inputs is not None:
            args.dump_test_inputs.parent.mkdir(parents=True, exist_ok=True)
            np.save(args.dump_test_inputs, result.dataset.x_test)

        report = result.summary()
        report["artifact"] = str(args.output)
        if not args.no_eval:
            methods = ["average", "vote"]
            if result.ensemble.super_learner_weights is not None:
                methods.append("super_learner")
            report["test_error_rate"] = result.evaluate(methods=methods)
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    finally:
        if args.metrics_file is not None:
            _dump_metrics(args.metrics_file)


def _dump_metrics(path: Path) -> None:
    """Write a Prometheus text dump of this process's metrics registry."""
    from repro.obs.exposition import render_prometheus
    from repro.utils.atomic import atomic_write_text

    atomic_write_text(path, render_prometheus())


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.api import EnsemblePredictor

    predictor = EnsemblePredictor.load(
        args.artifact, method=args.method, batch_size=args.batch_size
    )
    x = np.load(args.input)
    if args.proba:
        out = predictor.predict_proba(x)
    else:
        out = predictor.predict(x)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        np.save(args.output, out)
        print(f"wrote {out.shape} predictions to {args.output}")
    else:
        print(json.dumps(out.tolist()))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs.events import configure_logging, enable_events
    from repro.parallel.server import run_server

    if args.workers is None:
        args.workers = 1 if args.mode == "queue" else 2
    if args.mode == "queue" and args.workers != 1:
        raise ValueError("queue mode runs --workers 1: scale --min-consumers / --max-consumers")
    configure_logging(fmt=args.log_format, force=True, log_file=args.log_file)
    enable_events()
    if args.mode == "queue":
        from repro.fleet.front import FleetFront

        backend = FleetFront(
            args.artifact,
            visibility_timeout=args.visibility_timeout,
            method=args.method,
            min_consumers=args.min_consumers,
            max_consumers=args.max_consumers,
            batch_size=args.batch_size,
            spawn_local=not args.no_local_consumers,
            host=args.host,
            fleet_port=args.fleet_port,
            fleet_authkey=args.fleet_authkey,
            log_format=args.log_format,
            log_file=args.log_file,
        )
    else:
        from repro.parallel.serving import PoolPredictor

        backend = PoolPredictor(
            args.artifact, workers=args.workers, method=args.method, batch_size=args.batch_size
        )
    # run_server closes the backend, however it ends.
    return run_server(
        backend,
        args.artifact,
        mode=args.mode,
        host=args.host,
        port=args.port,
        workers=args.workers,
        method=args.method,
    )


def _cmd_fleet_worker(args: argparse.Namespace) -> int:
    import os
    import signal
    import threading

    from repro.fleet.consumer import connect_consumer
    from repro.obs.events import configure_logging, enable_events

    configure_logging(fmt=args.log_format, force=True, log_file=args.log_file)
    enable_events()
    host, _, port = args.broker.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(
            f"--broker must look like host:port, got {args.broker!r}"
        )
    consumer_id = args.consumer_id or f"fleet-{os.getpid()}"
    consumer = connect_consumer(
        (host, int(port)),
        args.authkey,
        args.artifact,
        consumer_id,
        method=args.method,
        batch_size=args.batch_size,
    )

    stop = threading.Event()

    def _shutdown(*_args):
        stop.set()

    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, _shutdown)

    print(
        json.dumps(
            {
                "event": "fleet-worker",
                "consumer": consumer_id,
                "broker": f"{host}:{port}",
                "pid": os.getpid(),
                "artifact": str(args.artifact),
            }
        ),
        flush=True,
    )
    # Serve until signalled — or until the lease loop loses the broker
    # (front gone), at which point there is nothing left to drain.
    while not stop.wait(0.5):
        if not consumer.alive():
            break
    consumer.close()
    print(json.dumps({"event": "stopped", "consumer": consumer_id}), flush=True)
    return 0


def _member_history_summary(meta: dict) -> dict:
    """Collapse one member's persisted training history to headline figures."""
    summary = {
        "name": meta["name"],
        "source": meta.get("source"),
        "parameters": meta.get("parameters"),
        "training_seconds": meta.get("training_seconds"),
    }
    result = meta.get("training_result")
    if result:
        history = result.get("history", [])
        summary["epochs"] = len(history)
        summary["converged"] = result.get("converged")
        if history:
            last = history[-1]
            summary["final_train_loss"] = last.get("train_loss")
            summary["final_train_accuracy"] = last.get("train_accuracy")
            summary["mean_epoch_seconds"] = sum(
                record.get("seconds", 0.0) for record in history
            ) / len(history)
    return summary


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.api import EnsemblePredictor
    from repro.api.artifacts import read_manifest
    from repro.core.artifact_store import resolve_artifact

    predictor = EnsemblePredictor.load(args.artifact, warm=False)
    report = predictor.info()

    # Surface what the v2 artifact schema persists but info() does not:
    # parallel-phase makespans from the cost ledger and the per-member
    # training histories.  For store layouts, also report the generation
    # ledger — lineage (parent generation, hatched-vs-retrained members) and
    # promotion status per generation; bare directories are untouched.
    resolved = resolve_artifact(args.artifact)
    if resolved.store is not None:
        report["store"] = resolved.store.describe()
    manifest = read_manifest(resolved.path)
    ledger = manifest.get("ledger", {})
    summary = manifest.get("ledger_summary", {})
    report["training"] = {
        "total_seconds": summary.get("total_seconds"),
        "makespan_seconds": summary.get("makespan_seconds"),
        "total_epochs": summary.get("total_epochs"),
        "seconds_by_phase": summary.get("seconds_by_phase"),
        "phase_makespans": ledger.get("phase_makespans", {}),
    }
    report["members"] = [
        _member_history_summary(meta) for meta in manifest.get("members", [])
    ]
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_retrain(args: argparse.Namespace) -> int:
    from repro.api import ExperimentSpec
    from repro.api.retrain import retrain_loop
    from repro.core.artifact_store import ArtifactStore
    from repro.obs.events import configure_logging, enable_events

    configure_logging(log_file=args.log_file)
    enable_events()
    spec = ExperimentSpec.from_file(args.config)
    store = ArtifactStore.open(args.store)
    max_cycles = 1 if args.once else args.max_cycles
    try:
        reports = retrain_loop(
            store,
            spec,
            interval=args.interval,
            max_cycles=max_cycles,
            max_error_delta=args.max_error_delta,
            method=args.method,
            data_seed_step=args.data_seed_step,
        )
        print(
            json.dumps(
                {
                    "store": str(store.root),
                    "current_generation": store.current_generation(),
                    "cycles": [report.to_dict() for report in reports],
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    except KeyboardInterrupt:
        return 130
    finally:
        if args.metrics_file is not None:
            _dump_metrics(args.metrics_file)


_COMMANDS = {
    "train": _cmd_train,
    "predict": _cmd_predict,
    "serve": _cmd_serve,
    "fleet-worker": _cmd_fleet_worker,
    "inspect": _cmd_inspect,
    "retrain": _cmd_retrain,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, TypeError, KeyError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

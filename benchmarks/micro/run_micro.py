"""Micro-benchmarks that no end-to-end probe covers yet.

The kernel, ensemble-inference and pool benchmarks that used to live here are
``nn.*`` / ``parallel.*`` probes of ``benchmarks/e2e`` now.  What is left:
``dense`` — a wide dense layer's training step, float32 (fast) against the
float64 seed path (reference), the sub-second case the harness smoke test
runs; ``metrics_overhead`` — the observability tax: the same VGG fit with the
``repro.obs`` registry disabled versus enabled (must stay under 2%);
``hot_swap`` — client-observed p99 inside a generation swap against steady
state, with the machine's usable ``cpu_count`` next to it.  Results are
written as machine-readable JSON; the committed ``BENCH_micro.json`` entries
of the last two are guarded by the tier-1 suite.

Usage::

    PYTHONPATH=src python benchmarks/micro/run_micro.py \
        [--benchmarks all|dense,hot_swap,...] [--repeats 5] \
        [--output benchmarks/micro/BENCH_micro.json]

Each benchmark reports the median over ``--repeats`` timed runs (after one
untimed warm-up, which also pre-populates the workspace arenas — steady-state
behaviour is what training loops see).
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from repro.arch import vgg
from repro.nn import Model
from repro.nn.layers import Dense
from repro.utils.parallel import cpu_count

SCHEMA = "repro.bench.micro/v1"
DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_micro.json"


# ---------------------------------------------------------------------------
# Harness plumbing
# ---------------------------------------------------------------------------

def _median_seconds(fn: Callable[[], None], repeats: int) -> float:
    fn()  # warm-up: JIT-free but fills caches and workspace arenas
    samples: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(statistics.median(samples))


# ---------------------------------------------------------------------------
# Benchmarks
# ---------------------------------------------------------------------------

def bench_dense(repeats: int) -> Dict:
    """Training-mode forward + backward of a wide dense layer."""
    params = {"batch": 256, "in_features": 512, "out_features": 512}
    rng = np.random.default_rng(0)
    x64 = rng.normal(size=(params["batch"], params["in_features"]))
    x32 = x64.astype(np.float32)
    g64 = rng.normal(size=(params["batch"], params["out_features"]))
    g32 = g64.astype(np.float32)
    ref = Dense(512, 512, seed=1, dtype="float64")
    fast = Dense(512, 512, seed=1, dtype="float32")

    def run_ref():
        ref.forward(x64, training=True)
        ref.backward(g64)

    def run_fast():
        fast.forward(x32, training=True)
        fast.backward(g32)

    return {
        "params": params,
        "reference_seconds": _median_seconds(run_ref, repeats),
        "fast_seconds": _median_seconds(run_fast, repeats),
    }


def bench_metrics_overhead(repeats: int) -> Dict:
    """Observability tax on the training loop: a short VGG fit with the
    process-wide metrics registry *disabled* (reference) versus *enabled*
    (fast).  The per-epoch gauge/counter updates must stay under 2% of the
    step time — ``speedup`` here is expected to sit at ~1.0, and the
    committed number is guarded by the tier-1 suite via
    ``overhead_fraction`` (enabled/disabled - 1).
    """
    params = {
        "variant": "V16",
        "train_samples": 128,
        "batch": 32,
        "input_shape": [3, 16, 16],
        "width_scale": 0.25,
        "epochs": 2,
    }
    from repro.nn.training import Trainer, TrainingConfig
    from repro.obs.metrics import get_registry

    spec = vgg("V16", num_classes=10, input_shape=(3, 16, 16), width_scale=0.25)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(params["train_samples"], 3, 16, 16)).astype(np.float32)
    y = rng.integers(0, 10, size=params["train_samples"])
    config = TrainingConfig(
        max_epochs=params["epochs"],
        min_epochs=params["epochs"],
        convergence_patience=params["epochs"],
        batch_size=params["batch"],
        learning_rate=0.05,
    )
    registry = get_registry()

    def fit():
        model = Model.from_spec(spec, seed=1, dtype="float32")
        Trainer(config).fit(model, x, y, seed=0)

    def run_disabled():
        registry.disable()
        try:
            fit()
        finally:
            registry.enable()

    entry = {
        "params": params,
        "reference_seconds": _median_seconds(run_disabled, repeats),
        "fast_seconds": _median_seconds(fit, repeats),
    }
    entry["overhead_fraction"] = (
        entry["fast_seconds"] / entry["reference_seconds"] - 1.0
    )
    return entry


def bench_hot_swap(repeats: int) -> Dict:
    """Serving-latency cost of a zero-downtime generation hot-swap.

    A two-worker shm pool serves a steady client loop while
    ``PoolPredictor.swap()`` rolls both workers onto a freshly-promoted
    generation.  Reports client-observed p50/p99 in steady state
    (``fast_seconds`` = steady p99) and inside the swap window
    (``reference_seconds`` = swap-window p99), so the harness's ``speedup``
    reads as the p99 degradation factor *during* a swap (~1x means swaps
    are latency-invisible), plus the swap makespan (each worker reloading
    its predictor in place, one at a time).  A request queued behind a
    reload waits for it, and the reload shares the CPUs with the clients,
    so ``cpu_count`` is recorded with the result.
    """
    from repro.api import run_experiment, save_ensemble_run
    from repro.core.artifact_store import ArtifactStore
    from repro.parallel import PoolPredictor

    params = {
        "members": 3,
        "features": 32,
        "classes": 8,
        "batch": 64,
        "workers": 2,
        "cpu_count": cpu_count(),
    }
    result = run_experiment(
        {
            "name": "bench-hot-swap",
            "dataset": {
                "name": "tabular",
                "train_samples": 256,
                "test_samples": 256,
                "num_classes": params["classes"],
                "num_features": params["features"],
                "seed": 5,
            },
            "members": {
                "family": "mlp",
                "count": params["members"],
                "input_features": params["features"],
                "num_classes": params["classes"],
                "base_width": 64,
                "seed": 1,
            },
            "approach": "full-data",
            "training": {"max_epochs": 1, "batch_size": 64, "learning_rate": 0.1},
            "seed": 0,
        }
    )
    store_root = Path(tempfile.mkdtemp(prefix="repro-bench-hot-swap-"))
    root = store_root / "store"
    save_ensemble_run(result.run, root)
    store = ArtifactStore.open(root)
    # The candidate generation: identical weights are fine — the roll cost
    # (each worker's load, lower and warm) is what's being measured, not the
    # model delta.
    store.add_generation(result.run, parent_generation=0)
    x = result.dataset.x_test[: params["batch"]]

    iterations = max(repeats * 20, 100)  # p99 needs a real sample count
    pool = PoolPredictor(root, workers=params["workers"], max_wait_ms=0.0)
    try:
        pool.predict_proba(x)  # warm-up
        steady: List[float] = []
        for _ in range(iterations):
            start = time.perf_counter()
            pool.predict_proba(x)
            steady.append(time.perf_counter() - start)

        # Hammer from a client thread for the whole swap; keep only the
        # samples that started inside the swap window.
        samples: List[tuple] = []
        stop = False

        def hammer():
            while not stop:
                start = time.perf_counter()
                pool.predict_proba(x)
                samples.append((start, time.perf_counter() - start))

        store.promote(1)
        with ThreadPoolExecutor(max_workers=1) as client:
            future = client.submit(hammer)
            time.sleep(0.05)  # let the client reach steady fire
            swap_start = time.perf_counter()
            summary = pool.swap()
            makespan = time.perf_counter() - swap_start
            stop = True
            future.result()
        assert summary["workers_respawned"] == params["workers"], summary
        during = [
            elapsed
            for start, elapsed in samples
            if swap_start <= start <= swap_start + makespan
        ] or [elapsed for _, elapsed in samples]
    finally:
        pool.close()
        shutil.rmtree(store_root, ignore_errors=True)

    return {
        "params": params,
        "iterations": iterations,
        "steady_p50_seconds": float(np.percentile(steady, 50)),
        "steady_p99_seconds": float(np.percentile(steady, 99)),
        "swap_p50_seconds": float(np.percentile(during, 50)),
        "swap_p99_seconds": float(np.percentile(during, 99)),
        "swap_samples": len(during),
        "swap_makespan_seconds": makespan,
        "reference_seconds": float(np.percentile(during, 99)),
        "fast_seconds": float(np.percentile(steady, 99)),
    }


BENCHMARKS: Dict[str, Callable[[int], Dict]] = {
    "dense": bench_dense,
    "metrics_overhead": bench_metrics_overhead,
    "hot_swap": bench_hot_swap,
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run(names: List[str], repeats: int) -> Dict:
    results: Dict[str, Dict] = {}
    for name in names:
        entry = BENCHMARKS[name](repeats)
        entry["speedup"] = entry["reference_seconds"] / entry["fast_seconds"]
        results[name] = entry
        print(
            f"{name:>18}: reference {entry['reference_seconds'] * 1e3:8.2f} ms   "
            f"fast {entry['fast_seconds'] * 1e3:8.2f} ms   "
            f"speedup {entry['speedup']:5.2f}x"
        )
    return {
        "schema": SCHEMA,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "repeats": repeats,
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": cpu_count(),
        "reference": "dense: float64; metrics_overhead: registry disabled; "
        "hot_swap: p99 inside the swap window",
        "fast": "dense: float32; metrics_overhead: registry enabled; "
        "hot_swap: steady-state p99",
        "benchmarks": results,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--benchmarks",
        default="all",
        help="comma-separated subset of: " + ", ".join(BENCHMARKS) + " (default: all)",
    )
    parser.add_argument("--repeats", type=int, default=5, help="timed runs per benchmark")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT, help="JSON output path")
    parser.add_argument(
        "--merge",
        action="store_true",
        help="keep entries already in --output for benchmarks not run this time "
        "(re-measure one benchmark without clobbering the rest of the file)",
    )
    args = parser.parse_args()

    if args.benchmarks == "all":
        names = list(BENCHMARKS)
    else:
        names = [n.strip() for n in args.benchmarks.split(",") if n.strip()]
        unknown = sorted(set(names) - set(BENCHMARKS))
        if unknown:
            parser.error(f"unknown benchmarks: {unknown}; known: {sorted(BENCHMARKS)}")

    payload = run(names, max(1, args.repeats))
    if args.merge and args.output.exists():
        previous = json.loads(args.output.read_text()).get("benchmarks", {})
        for name, entry in previous.items():
            payload["benchmarks"].setdefault(name, entry)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()

"""Per-layer numbers (``--trace 1``): harness-side spans around the public
functions of each package, on the same spec and artifact the end-to-end
workloads use.

Serving overheads are obtained by *nested-path differencing* on identical
inputs: the same rows go through ``EnsemblePredictor`` in process, through a
``PoolPredictor``, and over HTTP, and each tier's overhead is the difference
of two medians.  ``b1`` / ``b256`` are 1-row / 256-row requests.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import time
from pathlib import Path
from typing import Callable, Dict, Tuple

import numpy as np

import harness
import serve


def timed(
    trace: harness.Trace, name: str, layer: str, call: Callable, repeat: int
) -> Tuple[float, object]:
    """Median seconds of ``repeat`` spanned calls, and the last result."""
    seconds, result = [], None
    for _ in range(repeat):
        start = time.perf_counter()
        result = call()
        end = time.perf_counter()
        trace.add(name, layer, start, end)
        seconds.append(end - start)
    return harness.median(seconds), result


def infer_flops_per_row(specs) -> int:
    """Multiply-adds x 2 of one inference pass over every member, from the
    architecture specs alone ("same" 3x3-style convs, 2x2 pooling after a
    block while the map is even, global pooling, dense head)."""
    total = 0
    for spec in specs:
        channels, height, width = spec.input_shape
        for block in spec.conv_blocks:
            for layer in block.layers:
                total += 2 * height * width * channels * layer.filter_size**2 * layer.filters
                channels = layer.filters
            if height % 2 == 0 and width % 2 == 0 and min(height, width) >= 2:
                height, width = height // 2, width // 2
        features = channels
        for dense in spec.dense_layers:
            total += 2 * features * dense.units
            features = dense.units
        total += 2 * features * spec.num_classes
    return total


def training_probes(trace: harness.Trace, work: Path, m: Dict[str, float]) -> None:
    from repro.api import ExperimentSpec, run_experiment, save_ensemble_run
    from repro.arch import count_parameters
    from repro.core import cluster_ensemble, construct_mothernet, hatch_ensemble
    from repro.core.hatching import plan_hatching
    from repro.data import load_dataset
    from repro.nn import Model, Trainer, TrainingConfig, get_loss
    from repro.parallel.executor import MemberTask, ParallelExecutor
    from repro.parallel.shared_data import SharedDataset
    from repro.arch.serialization import spec_to_json

    spec_path = harness.write_spec(work, workers=1)
    seconds, spec = timed(
        trace, "ExperimentSpec.from_file", "api", lambda: ExperimentSpec.from_file(spec_path), 20
    )
    m["api.spec_parse_ms"] = seconds * 1e3

    kwargs = dict(spec.dataset)
    dataset_name = kwargs.pop("name")
    seconds, dataset = timed(
        trace, "load_dataset", "data", lambda: load_dataset(dataset_name, **kwargs), 5
    )
    m["data.load_dataset_ms"] = seconds * 1e3

    members = spec.member_specs()
    m["arch.member_params_total"] = sum(count_parameters(s) for s in members)
    m["arch.infer_flops_per_row"] = infer_flops_per_row(members)

    tau = spec.trainer["tau"]
    seconds, clusters = timed(
        trace, "cluster_ensemble", "core", lambda: cluster_ensemble(members, tau=tau), 5
    )
    m["core.cluster_ensemble_ms"] = seconds * 1e3
    m["core.clusters"] = len(clusters)
    seconds, _ = timed(
        trace,
        "construct_mothernet",
        "core",
        lambda: [construct_mothernet(c.members, name=f"m{c.cluster_id}") for c in clusters],
        5,
    )
    m["core.construct_mothernet_ms"] = seconds * 1e3

    # --- nn: one member, one epoch; one batch forward / backward ---------
    config = spec.training
    one_epoch = TrainingConfig(
        max_epochs=1,
        min_epochs=1,
        batch_size=config.batch_size,
        learning_rate=config.learning_rate,
    )

    def fit_epoch():
        model = Model.from_spec(members[0], seed=spec.seed)
        start = time.perf_counter()
        Trainer(one_epoch).fit(model, dataset.x_train, dataset.y_train, seed=spec.seed)
        end = time.perf_counter()
        trace.add("Trainer.fit(1 epoch)", "nn", start, end, member=members[0].name)
        return end - start

    m["nn.fit_epoch_ms"] = harness.median([fit_epoch() for _ in range(3)]) * 1e3

    model = Model.from_spec(members[0], seed=spec.seed)
    loss = get_loss(config.loss)
    xb = np.asarray(dataset.x_train[: config.batch_size], dtype=model.dtype)
    yb = dataset.y_train[: config.batch_size]
    forward, backward = [], []
    for _ in range(20):
        t0 = time.perf_counter()
        logits = model.forward(xb, training=True)
        t1 = time.perf_counter()
        _, grad = loss(logits, yb)
        model.zero_grads()
        t2 = time.perf_counter()
        model.backward(grad)
        t3 = time.perf_counter()
        trace.add("Model.forward", "nn", t0, t1)
        trace.add("Model.backward", "nn", t2, t3)
        forward.append(t1 - t0)
        backward.append(t3 - t2)
    m["nn.forward_ms_per_batch"] = harness.median(forward) * 1e3
    m["nn.backward_ms_per_batch"] = harness.median(backward) * 1e3

    # --- api/core: the whole experiment, serial then two workers ----------
    with trace.span("run_experiment(workers=1)", "api"):
        start = time.perf_counter()
        result = run_experiment(spec)
        m["api.run_experiment_s"] = time.perf_counter() - start
    ledger = result.run.ledger
    compute = ledger.seconds_by_compute_phase()
    for phase in ("im2col", "gemm", "bias", "col2im"):
        m[f"nn.conv_{phase}_s"] = compute.get(f"conv.{phase}", 0.0)
    by_phase = ledger.seconds_by_phase()
    m["core.mothernet_phase_s"] = by_phase.get("mothernet", 0.0)
    m["core.member_phase_s"] = by_phase.get("member", 0.0)
    m["core.total_epochs"] = ledger.total_epochs
    m["core.work_units"] = ledger.total_work_units

    parents = result.run.mothernet_models
    seconds, _ = timed(
        trace,
        "hatch_ensemble",
        "core",
        lambda: [
            hatch_ensemble(parents[c.cluster_id], c.members, seed=spec.seed) for c in clusters
        ],
        3,
    )
    m["core.hatch_ensemble_ms"] = seconds * 1e3
    m["core.hatch_steps"] = sum(
        plan_hatching(c.mothernet, member).num_steps for c in clusters for member in c.members
    )
    seconds, errors = timed(
        trace,
        "Ensemble.evaluate",
        "core",
        lambda: result.evaluate(methods=["average"]),
        5,
    )
    m["core.evaluate_ms"] = seconds * 1e3

    saved = work / "saved"

    def save():
        shutil.rmtree(saved, ignore_errors=True)
        start = time.perf_counter()
        save_ensemble_run(result.run, saved)
        end = time.perf_counter()
        trace.add("save_ensemble_run", "api", start, end)
        return end - start

    m["api.save_ensemble_run_ms"] = harness.median([save() for _ in range(3)]) * 1e3
    m["api.artifact_bytes"] = sum(p.stat().st_size for p in saved.rglob("*") if p.is_file())

    parallel_spec = ExperimentSpec.from_dict(harness.experiment_spec(workers=2))
    with trace.span("run_experiment(workers=2)", "parallel"):
        parallel = run_experiment(parallel_spec, dataset=dataset)
    makespans = parallel.run.ledger.phase_makespans
    member_sum = parallel.run.ledger.seconds_by_phase().get("member", 0.0)
    m["parallel.mothernet_makespan_s"] = makespans.get("mothernet", 0.0)
    m["parallel.member_makespan_s"] = makespans.get("member", 0.0)
    m["parallel.member_efficiency"] = (
        member_sum / (2 * makespans["member"]) if makespans.get("member") else 0.0
    )

    # --- parallel: the executor on its own -------------------------------
    data = {"x": np.asarray(dataset.x_train), "y": np.asarray(dataset.y_train)}

    def publish():
        start = time.perf_counter()
        shared = SharedDataset(data)
        end = time.perf_counter()
        shared.close()
        trace.add("SharedDataset", "parallel", start, end, bytes=shared.total_bytes)
        return end - start

    m["parallel.shared_publish_ms"] = harness.median([publish() for _ in range(5)]) * 1e3
    tasks = [
        MemberTask(
            name=f"probe-{i}",
            spec_json=spec_to_json(members[0]),
            config=one_epoch,
            train_seed=spec.seed,
            init_seed=spec.seed,
        )
        for i in range(2)
    ]
    start = time.perf_counter()
    executor = ParallelExecutor(data, workers=2)
    outcomes, _ = executor.train(tasks)
    trained = time.perf_counter()
    executor.close()
    closed = time.perf_counter()
    trace.add("ParallelExecutor start+train", "parallel", start, trained)
    trace.add("ParallelExecutor.close", "parallel", trained, closed)
    # Spawn, import, attach and task shipping: the first batch's wall minus
    # the longest fit inside a worker.
    m["parallel.executor_startup_s"] = (trained - start) - max(o.seconds for o in outcomes)
    m["parallel.executor_shutdown_ms"] = (closed - trained) * 1e3


def cli_startup(trace: harness.Trace, m: Dict[str, float]) -> None:
    def version():
        subprocess.run(
            harness.repro_cli("--version"),
            env=harness.child_env(),
            stdout=subprocess.DEVNULL,
            check=True,
        )

    seconds, _ = timed(trace, "python -m repro --version", "api", version, 5)
    m["api.cli_startup_ms"] = seconds * 1e3


def inprocess_serving_probes(
    trace: harness.Trace, artifact: Path, x1: np.ndarray, x256: np.ndarray, m: Dict[str, float]
) -> None:
    from repro.api import EnsemblePredictor
    from repro.obs import get_registry
    from repro.parallel.serving import PoolPredictor

    seconds, predictor = timed(
        trace, "EnsemblePredictor.load", "api", lambda: EnsemblePredictor.load(artifact), 5
    )
    m["api.predictor_load_ms"] = seconds * 1e3
    ensemble = predictor.ensemble
    for tag, x, repeat in (("b1", x1, 60), ("b256", x256, 12)):
        seconds, _ = timed(
            trace, f"predict_proba_all {tag}", "nn", lambda: ensemble.predict_proba_all(x), repeat
        )
        m[f"nn.predict_all_ms_{tag}"] = seconds * 1e3
        seconds, _ = timed(
            trace, f"EnsemblePredictor {tag}", "api", lambda: predictor.predict_proba(x), repeat
        )
        m[f"api.predictor_ms_{tag}"] = seconds * 1e3
    # Combination is what Ensemble.predict_proba adds to predict_proba_all.
    seconds, _ = timed(
        trace, "Ensemble.predict_proba b256", "core", lambda: ensemble.predict_proba(x256), 12
    )
    m["core.combine_ms_b256"] = seconds * 1e3 - m["nn.predict_all_ms_b256"]

    def pool_medians(tag: str, **kwargs) -> Dict[str, float]:
        with trace.span(f"PoolPredictor({tag}) start", "parallel"):
            pool = PoolPredictor(artifact, workers=1, **kwargs)
        try:
            out = {}
            for size, x, repeat in (("b1", x1, 60), ("b256", x256, 12)):
                pool.predict_proba(x)
                out[size], _ = timed(
                    trace, f"PoolPredictor({tag}) {size}", "parallel",
                    lambda: pool.predict_proba(x), repeat,
                )
            return out
        finally:
            pool.close()

    default = pool_medians("shm")
    no_wait = pool_medians("max_wait_ms=0", max_wait_ms=0.0)
    pickled = pool_medians("pickle", transport="pickle")
    m["parallel.pool_ms_b1"] = default["b1"] * 1e3
    m["parallel.pool_ms_b256"] = default["b256"] * 1e3
    m["parallel.pool_overhead_ms_b1"] = m["parallel.pool_ms_b1"] - m["api.predictor_ms_b1"]
    m["parallel.pool_overhead_ms_b256"] = m["parallel.pool_ms_b256"] - m["api.predictor_ms_b256"]
    m["parallel.wait_window_ms_b1"] = (default["b1"] - no_wait["b1"]) * 1e3
    m["parallel.pickle_minus_shm_ms_b256"] = (pickled["b256"] - default["b256"]) * 1e3

    # The registry switch is read at import, so the worker inherits it from
    # the environment and the parent side is flipped through its public API.
    registry = get_registry()
    os.environ["REPRO_METRICS"] = "off"
    registry.disable()
    try:
        off = pool_medians("metrics off")
    finally:
        registry.enable()
        del os.environ["REPRO_METRICS"]
    m["obs.registry_off_delta_pct_b1"] = 100.0 * (default["b1"] - off["b1"]) / default["b1"]


def metric_total(text: str, name: str) -> float:
    """Sum of every sample of ``name`` in a Prometheus text page."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name) and line[len(name)] in " {":
            total += float(line.rsplit(" ", 1)[1])
    return total


def http_probes(
    trace: harness.Trace,
    artifact: Path,
    requests: Dict[str, serve.Requests],
    seed: int,
    m: Dict[str, float],
) -> int:
    """Keep-alive and fresh-connection latency, payload costs, ``/metrics``
    counters and the open-loop phase, all on one pool-mode server.  Returns
    the number of wrong answers."""
    wrong = 0
    server = serve.Server(artifact, "pool", "probe-pool.stderr")
    try:
        m["parallel.server_ready_s"] = server.ready - server.spawned
        conn = server.connect()
        page = server.get("/metrics")[1].decode()
        bytes0 = metric_total(page, "repro_serve_transport_bytes_total")
        dispatches0 = metric_total(page, "repro_serve_dispatches_total")
        keepalive = {}
        for tag, warm, count in (("b256", 3, 12), ("b1", 10, 40)):
            pool = requests[tag]
            ops = [serve.post(conn, pool.bodies[i % len(pool.bodies)], i % len(pool.bodies))
                   for i in range(warm + count)][warm:]
            for op in ops:
                trace.add(f"POST /predict {tag}", "parallel", op.start, op.end)
                wrong += not pool.check(op)
            keepalive[tag] = harness.median([op.ms for op in ops])
            m[f"parallel.http_ms_{tag}"] = keepalive[tag]
            m[f"parallel.http_overhead_ms_{tag}"] = keepalive[tag] - m[f"parallel.pool_ms_{tag}"]
            if tag == "b256":
                page = server.get("/metrics")[1].decode()
                sent = warm + count
                m["parallel.ipc_bytes_per_request_b256"] = (
                    metric_total(page, "repro_serve_transport_bytes_total") - bytes0
                ) / sent
                m["parallel.dispatches_per_request"] = (
                    metric_total(page, "repro_serve_dispatches_total") - dispatches0
                ) / sent
                m["parallel.http_request_bytes_b256"] = len(pool.bodies[0])
                m["parallel.http_response_bytes_b256"] = len(ops[-1].payload)
                sample = ops[-1].payload
        conn.close()

        fresh = []
        pool = requests["b1"]
        for i in range(40):
            one = server.connect()
            op = serve.post(one, pool.bodies[i % len(pool.bodies)], i % len(pool.bodies))
            one.close()
            trace.add("POST /predict b1 (fresh connection)", "parallel", op.start, op.end)
            wrong += not pool.check(op)
            fresh.append(op.ms)
        m["parallel.keepalive_penalty_ms_b1"] = keepalive["b1"] - harness.median(fresh)

        # The work server.py does around the pool call, on the exact payloads.
        body = requests["b256"].bodies[0]
        seconds, _ = timed(
            trace, "json.loads+asarray b256", "parallel",
            lambda: np.asarray(json.loads(body)["inputs"], dtype=np.float64), 10,
        )
        m["parallel.json_decode_ms_b256"] = seconds * 1e3
        proba = np.asarray(json.loads(sample)["probabilities"], dtype=np.float32)
        seconds, _ = timed(
            trace, "json.dumps(tolist) b256", "parallel",
            lambda: json.dumps({"probabilities": proba.tolist()}).encode(), 10,
        )
        m["parallel.json_encode_ms_b256"] = seconds * 1e3

        seconds, _ = timed(trace, "GET /metrics", "obs", lambda: server.get("/metrics"), 10)
        m["obs.metrics_render_ms"] = seconds * 1e3

        tree = harness.process_tree(server.process.pid)
        m["parallel.worker_rss_mb"] = max(
            harness.peak_rss_bytes(pid) for pid in tree if pid != server.process.pid
        ) / 1e6

        wrong += open_loop(trace, server, requests["b1"], seed, m)
    finally:
        teardown = server.stop()
    m["harness.orphan_procs"] += teardown["orphan_procs"]
    m["harness.shm_residue"] += teardown["shm_residue"]
    return wrong


def open_loop(
    trace: harness.Trace,
    server: serve.Server,
    pool: serve.Requests,
    seed: int,
    m: Dict[str, float],
    seconds: float = 6.0,
) -> int:
    """Seeded Poisson arrivals at half the closed-loop rate just measured
    on this server, on one connection; latency counts from the time a
    request was *due*, so a stall is charged to every request it delays."""
    rate = 0.5 * 1e3 / m["parallel.http_ms_b1"]
    rng = np.random.default_rng([seed, 11])
    due, at = [], 0.0
    while True:
        at += rng.exponential(1.0 / rate)
        if at >= seconds:
            break
        due.append(at)
    conn = server.connect()
    serve.post(conn, pool.bodies[0], 0)
    origin = time.perf_counter()
    latency, late, wrong, done = [], [], 0, 0
    try:
        for i, offset in enumerate(due):
            now = time.perf_counter() - origin
            if now > seconds:
                break  # the backlog outlived the phase: the rest are drops
            if now < offset:
                time.sleep(offset - now)
            index = i % len(pool.bodies)
            op = serve.post(conn, pool.bodies[index], index)
            trace.add("POST /predict b1 (open loop)", "client", origin + offset, op.end)
            wrong += not pool.check(op)
            late.append((op.start - origin - offset) * 1e3)
            latency.append((op.end - origin - offset) * 1e3)
            done += 1
    finally:
        conn.close()
    m["client.open_p50_ms"] = harness.median(latency)
    m["client.open_p99_ms"] = harness.quantile(latency, 0.99)
    m["client.open_late_ms"] = harness.median(late)
    m["client.open_drop_share"] = 1.0 - done / len(due)
    return wrong


def fleet_probes(
    trace: harness.Trace, artifact: Path, x1: np.ndarray, m: Dict[str, float]
) -> None:
    from repro.fleet import FleetFront
    from repro.fleet.broker import InProcBroker, connect_broker, serve_broker

    def roundtrip(broker, producer) -> float:
        producer.attach("probe")
        payload = {"x": x1, "method": "average"}

        def once():
            job_id = producer.publish(payload)
            job = producer.lease("probe", timeout=1.0)
            producer.ack("probe", job.job_id, result=None)
            broker.poll_completed(timeout=0.0)
            return job_id

        seconds, _ = timed(trace, "publish-lease-ack", "fleet", once, 200)
        return seconds * 1e3

    broker = InProcBroker(partitions=1)
    try:
        m["fleet.broker_roundtrip_ms"] = roundtrip(broker, broker)
    finally:
        broker.close()
    broker = InProcBroker(partitions=1)
    address, stop = serve_broker(broker)
    try:
        m["fleet.broker_proxy_roundtrip_ms"] = roundtrip(broker, connect_broker(address))
    finally:
        stop()
        broker.close()

    shm_before = harness.shm_entries()
    mine = harness.process_tree(os.getpid())  # e.g. this process's resource tracker
    start = time.perf_counter()
    front = FleetFront(artifact, min_consumers=1, max_consumers=1, consumer_workers=1)
    sampler = harness.TreeSampler(os.getpid())
    try:
        front.wait_ready(timeout=120.0)
        ready = time.perf_counter()
        trace.add("FleetFront start -> consumer attached", "fleet", start, ready)
        m["fleet.consumer_ready_s"] = ready - start
        sampler.sample()
        front.predict_proba(x1)
        seconds, _ = timed(trace, "FleetFront.predict_proba b1", "fleet",
                           lambda: front.predict_proba(x1), 60)
        m["fleet.front_ms_b1"] = seconds * 1e3
        m["fleet.queue_overhead_ms_b1"] = m["fleet.front_ms_b1"] - m["parallel.pool_ms_b1"]
        m["fleet.redeliveries"] = front.broker.redeliveries()
    finally:
        front.close()
    m["harness.orphan_procs"] += harness.count_orphans(
        {s for s in sampler.seen if s[0] not in mine}
    )
    m["harness.shm_residue"] += len(harness.shm_entries() - shm_before)


def run(seed: int, trace: harness.Trace) -> Tuple[Dict[str, float], int]:
    """Every workload-independent per-layer metric; returns them with the
    number of failures seen on the way (wrong answers, processes or
    ``/dev/shm`` entries left behind)."""
    m: Dict[str, float] = {"harness.orphan_procs": 0, "harness.shm_residue": 0}
    artifact = harness.build_artifact()
    work = harness.WORK / "probes" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    # The program's event logs would otherwise interleave with the report.
    log = harness.open_log("probes.stderr")
    saved_stderr = os.dup(2)
    os.dup2(log.fileno(), 2)
    try:
        oracle, dataset = serve.load_oracle(artifact)
        requests = {
            "b1": serve.Requests.draw(oracle, dataset.x_test, 1, 16, seed),
            "b256": serve.Requests.draw(oracle, dataset.x_test, 256, 4, seed),
        }
        rng = np.random.default_rng([seed, 13])
        x1 = dataset.x_test[rng.integers(0, len(dataset.x_test), size=1)]
        x256 = dataset.x_test[rng.integers(0, len(dataset.x_test), size=256)]
        training_probes(trace, work, m)
        cli_startup(trace, m)
        inprocess_serving_probes(trace, artifact, x1, x256, m)
        wrong = http_probes(trace, artifact, requests, seed, m)
        fleet_probes(trace, artifact, x1, m)
    finally:
        os.dup2(saved_stderr, 2)
        os.close(saved_stderr)
        log.close()
        shutil.rmtree(work, ignore_errors=True)
    return m, wrong + m["harness.orphan_procs"] + m["harness.shm_residue"]

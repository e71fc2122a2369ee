"""Serve workloads: one closed-loop client on one keep-alive connection
against a ``python -m repro serve`` subprocess.

Decisions (measurements in README.md):

* **keep-alive, not a connection per request** — a fresh connection dodges
  the server's header/body two-send stall (6 ms instead of 50 ms per 1-row
  request) but throughput then drifts with the TIME_WAIT sockets earlier
  runs left behind, i.e. state leaks across runs;
* **seeded think time of 0-4 ms before each request** — without it the
  closed loop phase-locks to the kernel's 4 ms timer tick and a whole run
  sits at either 48 or 52 ms; the jitter is one tick wide, so the 40 ms
  delayed-ACK stall stays fully in the op;
* **several server instances per run** — set-up (spawn, readiness, warm-up)
  is measured once per instance and reported as the median; the timed
  window is split evenly between the instances;
* **blocks, each at nominal speed** — every instance's window is cut into
  blocks of about ``BLOCK_SECONDS`` with a reading of the machine's speed
  (``harness.SpeedGauge``) before and after; each block gives one value of
  every rate and latency metric, less its share of stolen time and with its
  CPU-bound part rescaled to nominal speed, and the run reports the median
  of the block values.
"""

from __future__ import annotations

import http.client
import json
import select
import signal
import subprocess
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import harness

THINK_SECONDS = 0.004
REQUEST_TIMEOUT = 30.0
BLOCK_SECONDS = 1.25

#: name -> (serve mode, rows per request, warm-up requests, distinct bodies)
WORKLOADS = {
    "serve_pool_small": ("pool", 1, 20, 64),
    "serve_pool_batch": ("pool", 256, 5, 12),
    "serve_queue_small": ("queue", 1, 20, 64),
}


@dataclass
class Op:
    start: float
    sent: float
    first_byte: float
    end: float
    body: int  # index into the request pool
    status: int
    payload: bytes
    ok: bool = False

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


@dataclass
class Block:
    """Consecutive ops with the program's and the client's CPU time and the
    machine's steal over exactly their span, and its speed around it."""

    ops: List[Op]
    wall_s: float
    cpu_s: float
    client_cpu_s: float
    steal_pct: float
    speed: float


@dataclass
class Requests:
    """Pre-encoded request bodies and the oracle's answer to each."""

    rows: int
    bodies: List[bytes]
    expected: List[np.ndarray]

    @classmethod
    def draw(cls, oracle, x_test: np.ndarray, rows: int, count: int, seed: int):
        rng = np.random.default_rng([seed, rows])
        bodies, expected = [], []
        for _ in range(count):
            x = x_test[rng.integers(0, len(x_test), size=rows)]
            bodies.append(json.dumps({"inputs": x.tolist(), "proba": True}).encode())
            # The server decodes JSON into float64 before predicting.
            expected.append(oracle.predict_proba(np.asarray(x, dtype=np.float64)))
        return cls(rows=rows, bodies=bodies, expected=expected)

    def check(self, op: Op) -> bool:
        """Bitwise comparison of a response with the in-harness oracle."""
        if op.status != 200:
            return False
        try:
            got = np.asarray(json.loads(op.payload)["probabilities"], dtype=np.float64)
        except (ValueError, KeyError, TypeError):
            return False
        want = self.expected[op.body].astype(np.float64)
        return got.shape == want.shape and bool(np.array_equal(got, want))


class Server:
    """One ``repro serve`` subprocess, stopped with SIGTERM to its pid only
    (a ``killpg`` would take the workers down before they release their
    arenas and leave ``/dev/shm`` residue)."""

    def __init__(self, artifact: Path, mode: str, log_name: str):
        args = ["serve", "--artifact", str(artifact), "--port", "0", "--workers", "1"]
        if mode == "queue":
            args += ["--mode", "queue", "--min-consumers", "1", "--max-consumers", "1"]
        self.shm_before = harness.shm_entries()
        self.cpu_times_at_spawn = harness.cpu_times()
        self.spawned = time.perf_counter()
        self._log = harness.open_log(log_name)
        self.process = subprocess.Popen(
            harness.repro_cli(*args),
            env=harness.child_env(),
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        self.sampler = harness.TreeSampler(self.process.pid)
        try:
            ready, _, _ = select.select([self.process.stdout], [], [], 120.0)
            line = self.process.stdout.readline() if ready else b""
            if not line:
                raise RuntimeError(f"repro serve printed no banner (see {self._log.name})")
            banner = json.loads(line)
            self.host, self.port = banner["host"], int(banner["port"])
            self._wait_healthy()
        except BaseException:
            self.process.kill()
            self.process.wait()
            self._log.close()
            raise
        self.ready = time.perf_counter()
        self.sampler.start()

    def _wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            status, body = self.get("/healthz")
            if status == 200 and json.loads(body).get("status") == "ok":
                return
            if time.monotonic() > deadline:
                raise RuntimeError(f"server never became healthy: {body[:200]!r}")
            time.sleep(0.05)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT)

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = self.connect()
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def cpu_seconds(self) -> float:
        return harness.tree_cpu_seconds(self.process.pid)

    def stop(self) -> Dict[str, float]:
        """SIGTERM, wait, then count what the server left behind."""
        self.sampler.sample()
        self.sampler.stop()
        self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        self.process.stdout.close()
        self._log.close()
        descendants = {s for s in self.sampler.seen if s[0] != self.process.pid}
        return {
            "exit_code": code,
            "orphan_procs": harness.count_orphans(descendants),
            "shm_residue": len(harness.shm_entries() - self.shm_before),
            "peak_rss_mb": self.sampler.peak_rss_bytes / 1e6,
        }


def post(conn: http.client.HTTPConnection, body: bytes, index: int) -> Op:
    """One ``POST /predict``; the op ends when the reply is fully read."""
    start = time.perf_counter()
    conn.putrequest("POST", "/predict")
    conn.putheader("Content-Type", "application/json")
    conn.putheader("Content-Length", str(len(body)))
    conn.endheaders(body)
    sent = time.perf_counter()
    response = conn.getresponse()
    first_byte = time.perf_counter()
    payload = response.read()
    return Op(start, sent, first_byte, time.perf_counter(), index, response.status, payload)


@dataclass
class Instance:
    """What one server instance contributed to the run."""

    setup_s: float
    ready_s: float
    setup_cpu_s: float  # the program's and the client's, since the spawn
    setup_steal_pct: float
    setup_speed: float
    blocks: List[Block]
    teardown: Dict[str, float]
    error_pct: Optional[float] = None
    redeliveries: Optional[int] = None
    transport_failures: int = 0


def closed_loop(
    server: Server,
    requests: Requests,
    seconds: float,
    rng: np.random.Generator,
    first: int,
    gauge: harness.SpeedGauge,
    speed: float,
    trace: Optional[harness.Trace],
) -> Tuple[List[Block], int]:
    """Send the next request only once the previous reply is fully read,
    for ``seconds`` cut into equal blocks, walking the request pool from body
    ``first``.  Between blocks, on the open connection (so the thread serving
    it is counted), the program's CPU time and the machine's speed are read;
    ``speed`` is the reading before the first block.  A traced run records
    each op's spans here, between ops, so its window carries the cost of
    tracing.  Returns ``(blocks, transport_failures)``."""
    blocks: List[Block] = []
    failures = sent = 0
    count = max(1, round(seconds / BLOCK_SECONDS))
    conn = server.connect()
    try:
        for _ in range(count):
            ops: List[Op] = []
            cpu0, steal0 = server.cpu_seconds(), harness.cpu_times()
            mine0, start = time.thread_time(), time.perf_counter()
            deadline = start + seconds / count
            while True:
                time.sleep(rng.uniform(0.0, THINK_SECONDS))
                if time.perf_counter() >= deadline:
                    break
                index = (first + sent) % len(requests.bodies)
                sent += 1
                try:
                    op = post(conn, requests.bodies[index], index)
                except (OSError, http.client.HTTPException):
                    failures += 1
                    conn.close()
                    conn = server.connect()
                    continue
                ops.append(op)
                if trace is not None:
                    trace.add("client.request", "client", op.start, op.end,
                              rows=requests.rows, status=op.status)
                    trace.add("client.send", "client", op.start, op.sent)
                    trace.add("server.turnaround", "client", op.sent, op.first_byte)
                    trace.add("client.read_body", "client", op.first_byte, op.end)
            wall_s, mine = time.perf_counter() - start, time.thread_time() - mine0
            steal = harness.steal_pct(steal0, harness.cpu_times())
            cpu_s = server.cpu_seconds() - cpu0
            before, speed = speed, gauge.read()
            blocks.append(Block(ops, wall_s, cpu_s, mine, steal, (before + speed) / 2))
    finally:
        conn.close()
    return blocks, failures


def served_error_pct(server: Server, x_test: np.ndarray, y_test: np.ndarray) -> float:
    """Test error of the labels implied by the served probabilities."""
    conn = server.connect()
    try:
        body = json.dumps({"inputs": x_test.tolist(), "proba": True}).encode()
        op = post(conn, body, 0)
    finally:
        conn.close()
    if op.status != 200:
        raise RuntimeError(f"test-split request answered {op.status}")
    proba = np.asarray(json.loads(op.payload)["probabilities"])
    return 100.0 * float(np.mean(proba.argmax(axis=1) != y_test))


def run_instance(
    artifact: Path,
    mode: str,
    requests: Requests,
    warmup: int,
    seconds: float,
    rng: np.random.Generator,
    log_name: str,
    gauge: harness.SpeedGauge,
    final: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    trace: Optional[harness.Trace] = None,
) -> Instance:
    speed_before, mine0 = gauge.read(), time.thread_time()
    server = Server(artifact, mode, log_name)
    try:
        conn = server.connect()
        try:
            warm = [
                post(conn, requests.bodies[i % len(requests.bodies)], i % len(requests.bodies))
                for i in range(warmup)
            ]
        finally:
            conn.close()
        window_start = time.perf_counter()
        setup_s = window_start - server.spawned
        setup_cpu_s = server.cpu_seconds() + time.thread_time() - mine0
        setup_steal = harness.steal_pct(server.cpu_times_at_spawn, harness.cpu_times())
        speed = gauge.read()
        blocks, failures = closed_loop(
            server, requests, seconds, rng, warmup, gauge, speed, trace
        )
        error_pct = redeliveries = None
        if final is not None:
            error_pct = served_error_pct(server, *final)
        if mode == "queue":
            redeliveries = int(json.loads(server.get("/healthz")[1])["redeliveries"])
    finally:
        teardown = server.stop()
    for op in warm + [op for block in blocks for op in block.ops]:
        op.ok = requests.check(op)
    failures += sum(not op.ok for op in warm)
    if trace is not None:
        trace.add("server.spawn_to_ready", "harness", server.spawned, server.ready)
        trace.add("client.warmup", "client", server.ready, window_start, requests=warmup)
    return Instance(
        setup_s=setup_s,
        ready_s=server.ready - server.spawned,
        setup_cpu_s=setup_cpu_s,
        setup_steal_pct=setup_steal,
        setup_speed=(speed_before + speed) / 2,
        blocks=blocks,
        teardown=teardown,
        error_pct=error_pct,
        redeliveries=redeliveries,
        transport_failures=failures,
    )


def summarize(instances: List[Instance], rows: int) -> dict:
    """End-to-end numbers plus the ungated client tails of one run.  Every
    block with a correct answer gives one value per rate and latency metric;
    the closed loop is sequential, so the CPU time of program and client is
    the CPU-bound part of the block's wall and is what gets rescaled to
    nominal speed.  Think time between requests is part of a block's wall."""
    blocks = [block for inst in instances for block in inst.blocks]
    ops = [op for block in blocks for op in block.ops]
    good = [op.ms for op in ops if op.ok]
    op_ms, throughputs, cpus = [], [], []
    for block in blocks:
        ms = [op.ms for op in block.ops if op.ok]
        if ms:
            busy = block.cpu_s + block.client_cpu_s
            wall = harness.unstolen(block.wall_s, block.steal_pct)
            wall = harness.at_nominal_speed(wall, busy, block.speed)
            op_s = harness.unstolen(harness.median(ms) / 1e3, block.steal_pct)
            op_ms.append(1e3 * harness.at_nominal_speed(op_s, busy / len(block.ops), block.speed))
            throughputs.append(rows * len(ms) / wall)
            cpus.append(1e3 * block.cpu_s * block.speed / (rows * len(ms)))
    failed = sum(not op.ok for op in ops) + sum(i.transport_failures for i in instances)
    orphans = sum(int(i.teardown["orphan_procs"]) for i in instances)
    residue = sum(int(i.teardown["shm_residue"]) for i in instances)
    bad_exit = sum(i.teardown["exit_code"] != 0 for i in instances)
    error = [i.error_pct for i in instances if i.error_pct is not None]
    return {
        "attempted": len(ops) + sum(i.transport_failures for i in instances),
        "failed": failed + orphans + residue + bad_exit,
        "end_to_end": {
            "setup_s": harness.median(
                [
                    harness.at_nominal_speed(
                        harness.unstolen(i.setup_s, i.setup_steal_pct), i.setup_cpu_s, i.setup_speed
                    )
                    for i in instances
                ]
            ),
            "throughput_rows_per_s": harness.median(throughputs) if throughputs else 0.0,
            "op_ms": harness.median(op_ms) if op_ms else 0.0,
            "cpu_ms_per_row": harness.median(cpus) if cpus else 0.0,
            "peak_rss_mb": harness.median([i.teardown["peak_rss_mb"] for i in instances]),
            "error_pct": error[-1] if error else 0.0,
        },
        "client": {
            "samples": len(good),
            "p50_ms": harness.median(good) if good else 0.0,
            "p90_ms": harness.quantile(good, 0.90) if good else 0.0,
            "p99_ms": harness.quantile(good, 0.99) if good else 0.0,
            "max_ms": max(good) if good else 0.0,
        },
        "harness": {
            "steal_pct": harness.median([block.steal_pct for block in blocks]),
            "speed": harness.median([block.speed for block in blocks]),
            "block_spread_pct": 100.0 * harness.iqr_share(op_ms),
            "orphan_procs": orphans,
            "shm_residue": residue,
        },
        "redeliveries": sum(i.redeliveries or 0 for i in instances),
        "instances": {
            "exit_codes": [i.teardown["exit_code"] for i in instances],
            "blocks": [len(i.blocks) for i in instances],
            "ready_s": [i.ready_s for i in instances],
            "setup_s": [i.setup_s for i in instances],
        },
    }


def as_measured(instance: Instance) -> Instance:
    """The same instance on a machine at nominal speed and without steal."""
    blocks = [replace(block, speed=1.0, steal_pct=0.0) for block in instance.blocks]
    return replace(instance, blocks=blocks, setup_speed=1.0, setup_steal_pct=0.0)


def load_oracle(artifact: Path):
    """The in-harness reference every served response is compared with, and
    the test split request rows are drawn from."""
    from repro.api import EnsemblePredictor
    from repro.data import load_dataset

    kwargs = dict(harness.experiment_spec(1)["dataset"])
    dataset = load_dataset(kwargs.pop("name"), **kwargs)
    return EnsemblePredictor.load(artifact), dataset


def run(name: str, seed: int, seconds: float, traced: bool) -> dict:
    mode, rows, warmup, pool = WORKLOADS[name]
    artifact = harness.build_artifact()
    oracle, dataset = load_oracle(artifact)
    requests = Requests.draw(oracle, dataset.x_test, rows, pool, seed)
    rng = np.random.default_rng([seed, 7])
    final = (dataset.x_test, dataset.y_test)
    trace = harness.Trace() if traced else None
    gauge = harness.SpeedGauge()
    count = 3 if seconds >= 6 else 1
    instances = [
        run_instance(
            artifact,
            mode,
            requests,
            warmup,
            seconds / count,
            rng,
            f"{name}-{index}.stderr",
            gauge,
            # One instance answers the whole test split, after its window.
            final=final if index == count - 1 else None,
            trace=trace,
        )
        for index in range(count)
    ]
    report = summarize(instances, rows)
    report["end_to_end_as_measured"] = summarize(
        [as_measured(i) for i in instances], rows
    )["end_to_end"]
    # What every block gave, for replaying a run with another statistic.
    report["blocks"] = [
        {
            "ops": len(block.ops),
            "ok": sum(op.ok for op in block.ops),
            "median_ms": harness.median([op.ms for op in block.ops]) if block.ops else 0.0,
            "wall_s": block.wall_s,
            "cpu_s": block.cpu_s,
            "client_cpu_s": block.client_cpu_s,
            "steal_pct": block.steal_pct,
            "speed": block.speed,
        }
        for inst in instances
        for block in inst.blocks
    ]
    report["workload"] = {
        "name": name,
        "mode": mode,
        "rows_per_request": rows,
        "warmup_requests": warmup,
        "distinct_bodies": pool,
        "request_bytes": len(requests.bodies[0]),
        "think_ms_max": THINK_SECONDS * 1e3,
        "loop": "closed, 1 connection, keep-alive",
    }
    if traced:
        op_seconds = sum(
            op.end - op.start for inst in instances for block in inst.blocks for op in block.ops
        )
        report["harness"]["trace_overhead_pct"] = trace.overhead_pct(op_seconds)
    report["trace"] = trace
    return report

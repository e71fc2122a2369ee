"""Train workloads: the op is one ``python -m repro train`` run of the fixed
spec, repeated back to back for the measuring time.

Set-up is measured inside every op, from outside: the time from spawning the
CLI to its ``experiment.started`` event on stderr (interpreter start,
imports, spec parse, dataset generation — everything before the first
gradient step).  Every op gives one sample and the run reports the median.
The machine's speed is read before and after every op (``harness.SpeedGauge``)
and every duration is rescaled to nominal speed.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

import harness

#: name -> training workers
WORKLOADS = {"train_serial": 1, "train_parallel": 2}

STARTED_EVENT = b"experiment.started"


@dataclass
class Op:
    start: float
    started_event: Optional[float]
    end: float
    cpu_s: float
    steal_pct: float
    speed_before: float  # of the machine; the caller fills both in
    speed_after: float
    peak_rss_mb: float
    exit_code: int
    orphan_procs: int
    shm_residue: int
    rows: int = 0
    error_pct: Optional[float] = None
    ok: bool = False
    why: str = ""
    report: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def speed(self) -> float:
        return (self.speed_before + self.speed_after) / 2


class _StderrWatch(threading.Thread):
    """Drains the CLI's stderr and notes when the start event shows up."""

    def __init__(self, stream):
        super().__init__(daemon=True, name="e2e-stderr-watch")
        self.stream = stream
        self.started_at: Optional[float] = None
        self.tail: List[bytes] = []

    def run(self) -> None:
        for line in self.stream:
            if self.started_at is None and STARTED_EVENT in line:
                self.started_at = time.perf_counter()
            self.tail = (self.tail + [line])[-20:]


def train_once(spec: Path, output: Path, reference: Dict[str, str]) -> Op:
    """Run the CLI once; CPU is the ``wait4`` rusage of the child, which
    includes every worker it reaped."""
    shm_before = harness.shm_entries()
    stdout_path = output.with_suffix(".stdout")
    steal0 = harness.cpu_times()
    with open(stdout_path, "wb") as stdout:
        start = time.perf_counter()
        process = subprocess.Popen(
            harness.repro_cli("train", "--config", str(spec), "--output", str(output)),
            env=harness.child_env(),
            stdout=stdout,
            stderr=subprocess.PIPE,
        )
        watch = _StderrWatch(process.stderr)
        watch.start()
        sampler = harness.TreeSampler(process.pid)
        sampler.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        except BaseException:  # asked to stop: have the CLI unwind, too
            process.send_signal(signal.SIGINT)
            process.wait()
            raise
        end = time.perf_counter()
    process.returncode = os.waitstatus_to_exitcode(status)
    sampler.stop()
    watch.join()
    process.stderr.close()
    descendants = {s for s in sampler.seen if s[0] != process.pid}
    op = Op(
        start=start,
        started_event=watch.started_at,
        end=end,
        cpu_s=usage.ru_utime + usage.ru_stime,
        steal_pct=harness.steal_pct(steal0, harness.cpu_times()),
        speed_before=1.0,
        speed_after=1.0,
        # The CLI grows until its last moments (evaluation, save), after the
        # final poll; wait4 knows the exact mark of the largest process.
        peak_rss_mb=max(sampler.peak_rss_bytes, usage.ru_maxrss * 1024) / 1e6,
        exit_code=process.returncode,
        orphan_procs=harness.count_orphans(descendants),
        shm_residue=len(harness.shm_entries() - shm_before),
    )
    if op.exit_code != 0:
        op.why = "exit %d: %s" % (op.exit_code, b"".join(watch.tail)[-500:].decode(errors="replace"))
        return op
    try:
        op.report = json.loads(stdout_path.read_bytes())
        op.rows = harness.TRAIN_SAMPLES * int(op.report["total_epochs"])
        op.error_pct = float(op.report["test_error_rate"]["average"])
    except (ValueError, KeyError, TypeError) as exc:
        op.why = f"unreadable report: {exc}"
        return op
    if op.started_event is None:
        op.why = "no experiment.started event on stderr"
    elif harness.member_digests(output) != reference:
        op.why = "member weights differ from the serial reference artifact"
    elif op.orphan_procs or op.shm_residue:
        op.why = f"left {op.orphan_procs} processes, {op.shm_residue} /dev/shm entries"
    else:
        op.ok = True
    return op


def end_to_end(good: List[Op]) -> Dict[str, float]:
    """The gated numbers of the ok ops of one run.  Every op's wall is taken
    less its share of stolen time and, for as much of it as the CLI and its
    workers were on a CPU (at most all of it), at nominal speed; its CPU time
    at nominal speed.  Set-up (interpreter start, imports, dataset
    generation) is CPU-bound throughout and takes the reading next to it.

    The rates are sums over the run, not medians: a run has five to seven
    ops and none of the stalled ones a serve block has, and ten runs of
    ``train_serial`` spread 6.5 % this way against 8.8 % for the median."""
    if not good:
        names = "setup_s throughput_rows_per_s op_ms cpu_ms_per_row peak_rss_mb error_pct"
        return dict.fromkeys(names.split(), 0.0)
    walls = [
        harness.at_nominal_speed(harness.unstolen(op.wall_s, op.steal_pct), op.cpu_s, op.speed)
        for op in good
    ]
    rows = sum(op.rows for op in good)
    return {
        "setup_s": harness.median(
            [
                harness.unstolen(op.started_event - op.start, op.steal_pct) * op.speed_before
                for op in good
            ]
        ),
        "throughput_rows_per_s": rows / sum(walls),
        "op_ms": 1e3 * sum(walls) / len(walls),
        "cpu_ms_per_row": 1e3 * sum(op.cpu_s * op.speed for op in good) / rows,
        "peak_rss_mb": harness.median([op.peak_rss_mb for op in good]),
        "error_pct": good[-1].error_pct,
    }


def run(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workers = WORKLOADS[name]
    artifact = harness.build_artifact()
    reference = harness.member_digests(artifact)
    work = harness.WORK / "train" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    spec = harness.write_spec(work, workers)
    trace = harness.Trace() if traced else None
    ops: List[Op] = []
    gauge = harness.SpeedGauge()
    began = time.perf_counter()
    try:
        speed = gauge.read()
        # Ops start for the measuring time; the last one may end after it.
        while not ops or time.perf_counter() - began < seconds:
            output = work / f"run-{len(ops)}"
            op = train_once(spec, output, reference)
            op.speed_before, speed = speed, gauge.read()
            op.speed_after = speed
            ops.append(op)
            shutil.rmtree(output, ignore_errors=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace is not None:
        for op in ops:
            trace.add("train.op", "client", op.start, op.end, ok=op.ok, workers=workers)
            if op.started_event is not None:
                trace.add("train.setup", "client", op.start, op.started_event)
                trace.add("train.run", "client", op.started_event, op.end)

    good = [op for op in ops if op.ok]
    walls_ms = [op.wall_s * 1e3 for op in good]
    last = ops[-1].report
    report = {
        "attempted": len(ops),
        "failed": len(ops) - len(good),
        "failures": [op.why for op in ops if not op.ok],
        "end_to_end": end_to_end(good),
        "end_to_end_as_measured": end_to_end(
            [replace(op, speed_before=1.0, speed_after=1.0, steal_pct=0.0) for op in good]
        ),
        # What every op gave, for replaying a run with another statistic.
        "ops": [
            {"ok": op.ok, "wall_s": op.wall_s, "cpu_s": op.cpu_s, "steal_pct": op.steal_pct,
             "speed_before": op.speed_before, "speed_after": op.speed_after,
             "setup_s": None if op.started_event is None else op.started_event - op.start}
            for op in ops
        ],
        "client": {
            "samples": len(good),
            "p50_ms": harness.median(walls_ms) if good else 0.0,
            "p90_ms": harness.quantile(walls_ms, 0.90) if good else 0.0,
            "p99_ms": harness.quantile(walls_ms, 0.99) if good else 0.0,
            "max_ms": max(walls_ms) if good else 0.0,
        },
        "harness": {
            "steal_pct": harness.median([op.steal_pct for op in ops]),
            "speed": harness.median([op.speed for op in ops]),
            "block_spread_pct": 100.0 * harness.iqr_share(walls_ms),
            "orphan_procs": sum(op.orphan_procs for op in ops),
            "shm_residue": sum(op.shm_residue for op in ops),
        },
        "redeliveries": 0,
        "workload": {
            "name": name,
            "workers": workers,
            "rows_per_op": harness.TRAIN_SAMPLES * int(last.get("total_epochs", 0)),
            "cli_phase_seconds": last.get("seconds_by_phase"),
            "cli_compute_phase_seconds": last.get("seconds_by_compute_phase"),
            "loop": "closed, one CLI run at a time",
        },
        "trace": trace,
    }
    if traced:
        report["harness"]["trace_overhead_pct"] = trace.overhead_pct(sum(op.wall_s for op in ops))
    return report

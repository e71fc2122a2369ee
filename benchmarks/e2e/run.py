#!/usr/bin/env python3
"""End-to-end benchmark of the MotherNets reproduction, driven from outside.

    python3 benchmarks/e2e/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

``--trace 0`` measures the end-to-end metrics of one workload; ``--trace 1``
runs the workload with harness-side spans plus the per-layer probe suite and
writes a Chrome trace.  The last line on stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` whose metrics are exactly
the ``end_to_end`` (or ``per_layer``) names of ``BENCHMARK.json``; the full
report (machine, client tails, workload description) goes to
``.bench_e2e/reports/``.

The measuring itself runs in a child of this program (``--supervised``).  The
parent is a child subreaper that does nothing but wait: the program and the
probes start processes whose parents exit before them (``multiprocessing``
resource trackers, pool workers, fleet consumers), and those are re-parented
here rather than to init, so this program returns only once every process it
started, directly or not, has ended and been waited for.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

import harness

# Pin BLAS in this process too, before numpy loads: the oracle and the
# probes run here and must not take the second core from the program.
os.environ.update(harness.THREAD_CAPS)
ROOT = harness.ROOT


def declared_metrics() -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {...}, "workloads": [...]}``
    from ``BENCHMARK.json`` — the single list of names this program emits."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in declared["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in declared["per_layer"]},
        "workloads": [w["name"] for w in declared["workloads"]],
    }


STOP_SIGNALS = (signal.SIGTERM, signal.SIGINT, signal.SIGHUP)


class _Signalled(Exception):
    pass


def _raise_signalled(signum, frame):
    raise _Signalled(signum)


def supervise(argv) -> int:
    """Run ``main(argv)`` in a child and return its exit code once no
    descendant of this process is left, on every way out.  A descendant that
    outlives the child gets ``ORPHAN_GRACE_SECONDS`` to end by itself (a
    resource tracker does, within milliseconds) and is killed otherwise.  A
    signal to this process is passed on to the child, which then stops what
    it started (``finally`` clauses) within the same grace."""
    if not harness.become_subreaper():
        print("warning: cannot become a child subreaper; orphans go to init", file=sys.stderr)
    for signum in STOP_SIGNALS:
        signal.signal(signum, _raise_signalled)
    child = None
    try:
        child = subprocess.Popen([sys.executable, __file__, *argv, "--supervised"])
        code = None
        while code is None:  # reaps adopted orphans as they end, too
            pid, status = os.wait()
            if pid == child.pid:
                code = child.returncode = os.waitstatus_to_exitcode(status)
    except _Signalled as stop:
        code = 128 + stop.args[0]
        if child is not None and child.returncode is None:
            os.kill(child.pid, signal.SIGTERM)
    finally:
        for signum in STOP_SIGNALS:
            signal.signal(signum, signal.SIG_IGN)
        killed = harness.reap_descendants(harness.ORPHAN_GRACE_SECONDS)
        if killed:
            print(f"warning: killed {killed} processes that outlived the run", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--supervised", action="store_true", help=argparse.SUPPRESS)
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)

    if not (harness.SRC / "repro" / "__main__.py").exists():
        print(f"error: no program to measure: {harness.SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    if not args.supervised:
        return supervise(argv)
    # Asked to stop: unwind, so that every ``finally`` stops what it started.
    signal.signal(signal.SIGTERM, _raise_signalled)
    declared = declared_metrics()
    sys.path.insert(0, str(harness.SRC))
    import serve
    import train

    if args.workload in serve.WORKLOADS:
        workload = serve
    elif args.workload in train.WORKLOADS:
        workload = train
    else:
        parser.error(f"unknown workload {args.workload!r}; known: {declared['workloads']}")

    problems = harness.wait_for_quiet()
    if problems:
        for problem in problems:
            print(f"hygiene: refusing to measure: {problem}", file=sys.stderr)
        return 3

    report = workload.run(args.workload, args.seed, args.seconds, traced=bool(args.trace))
    trace = report.pop("trace")
    failed = int(report["failed"])
    if args.trace:
        import probes

        layers, wrong = probes.run(args.seed, trace)
        failed += wrong
        for group in ("client", "harness"):
            for key, value in report[group].items():
                layers[f"{group}.{key}"] = layers.get(f"{group}.{key}", 0) + value
        layers["fleet.redeliveries"] += report["redeliveries"]
        failed += int(layers["fleet.redeliveries"])
        values, units = layers, declared["per_layer"]
        report["per_layer"] = layers
        tag = f"{args.workload}-seed{args.seed}"
        report["trace_file"] = str(
            trace.write(harness.WORK / "traces" / f"{tag}.trace.json").relative_to(ROOT)
        )
    else:
        values, units = report["end_to_end"], declared["end_to_end"]

    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: metrics declared in BENCHMARK.json but not measured: {missing}", file=sys.stderr)
        return 4
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    result = {
        "correct": failed == 0,
        "attempted": max(1, int(report["attempted"])),
        "failed": failed,
        "metrics": metrics,
    }
    report.update(
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        machine=harness.machine_info(),
        result=result,
    )
    out = harness.WORK / "reports" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"report: {out.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except _Signalled as stop:
        sys.exit(128 + stop.args[0])

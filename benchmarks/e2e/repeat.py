#!/usr/bin/env python3
"""Does the benchmark repeat?  Runs every workload as two interleaved sets
(A B A B ...), each run with another seed, and compares, per workload and
end-to-end metric, the two medians with the bound in ``BENCHMARK.json``.

    python3 benchmarks/e2e/repeat.py --runs 5            # 2 x 5 runs per workload
    python3 benchmarks/e2e/repeat.py --runs 5 --bench    # + one traced run each

Writes ``REPEATABILITY.json`` (and with ``--bench`` the full report
``BENCH_e2e.json``) next to this file; exits non-zero when a gap between the
sets, or the quartile spread over all runs, exceeds a metric's bound.  A
spread above a third of its bound is marked ``~`` (the margin the bounds in
``BENCHMARK.json`` were chosen to keep), not failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import harness

RUN = [sys.executable, str(harness.HERE / "run.py")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark invocation: its result line plus the full report."""
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)],
        stdout=subprocess.PIPE,
        text=True,
        timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {done.returncode}")
    result = json.loads(done.stdout.splitlines()[-1])
    report = harness.WORK / "reports" / f"{workload}-seed{seed}-trace{trace}.json"
    return {"result": result, "report": json.loads(report.read_text())}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set (>= 5)")
    parser.add_argument("--bench", action="store_true", help="also write BENCH_e2e.json")
    args = parser.parse_args()

    declared = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    workloads = [w["name"] for w in declared["workloads"]]
    values = {w: {m["name"]: {"A": [], "B": []} for m in declared["end_to_end"]} for w in workloads}
    # The same durations as measured, before rescaling to nominal speed.
    as_measured = {w: {m["name"]: [] for m in declared["end_to_end"]} for w in workloads}
    ops = {w: {"attempted": 0, "failed": 0} for w in workloads}
    last = {}
    for index in range(2 * args.runs):
        side = "AB"[index % 2]
        for workload in workloads:
            run = run_once(workload, seed=index + 1, seconds=seconds, trace=0)
            for name, metric in run["result"]["metrics"].items():
                values[workload][name][side].append(metric["value"])
                as_measured[workload][name].append(run["report"]["end_to_end_as_measured"][name])
            ops[workload]["attempted"] += run["result"]["attempted"]
            ops[workload]["failed"] += run["result"]["failed"]
            last[workload] = run["report"]
            print(f"{side}{index // 2 + 1} {workload}: " + "  ".join(
                f"{n}={m['value']:.4g}" for n, m in run["result"]["metrics"].items()),
                flush=True)

    rows, ok = [], True
    print(f"\n{'workload':18} {'metric':22} {'median A':>11} {'median B':>11} "
          f"{'B worse by':>10} {'spread':>8} {'unscaled':>8} {'bound':>6}")
    for workload in workloads:
        for metric in declared["end_to_end"]:
            a, b = values[workload][metric["name"]]["A"], values[workload][metric["name"]]["B"]
            gap = worse_by(harness.median(a), harness.median(b), metric["better"])
            spread = harness.iqr_share(a + b)
            unscaled = harness.iqr_share(as_measured[workload][metric["name"]])
            # Set-up's spread is reported, not judged (its bound guards the medians).
            within = gap <= metric["bound"] and (
                metric["name"] == "setup_s" or spread <= metric["bound"]
            )
            ok &= within and ops[workload]["failed"] == 0
            steady = metric["name"] == "setup_s" or 3 * spread <= metric["bound"]
            rows.append({
                "workload": workload, "metric": metric["name"], "unit": metric["unit"],
                "median_a": harness.median(a), "median_b": harness.median(b),
                "b_worse_by": gap, "spread_iqr_over_median": spread,
                "spread_as_measured": unscaled,
                "bound": metric["bound"], "within_bound": within,
                "spread_within_third_of_bound": steady, "a": a, "b": b,
            })
            print(f"{workload:18} {metric['name']:22} {harness.median(a):11.4f} "
                  f"{harness.median(b):11.4f} {gap:+10.1%} {spread:8.1%} {unscaled:8.1%} "
                  f"{metric['bound']:6.0%}{'' if steady else ' ~'}"
                  f"{'' if within else '  <-- over bound'}")

    machine = next(iter(last.values()))["machine"]
    (harness.HERE / "REPEATABILITY.json").write_text(json.dumps({
        "runs_per_set": args.runs, "run_seconds": seconds, "machine": machine,
        "ops": ops, "all_within_bound": ok, "rows": rows,
    }, indent=2) + "\n")

    if args.bench:
        bench = {"machine": machine, "run_seconds": seconds, "workloads": {}}
        for workload in workloads:
            traced = run_once(workload, seed=1, seconds=seconds, trace=1)
            ok &= traced["result"]["correct"]
            report = last[workload]
            bench["workloads"][workload] = {
                "why": next(w["why"] for w in declared["workloads"] if w["name"] == workload),
                "seed": report["seed"],
                "ops_attempted": report["result"]["attempted"],
                "ops_failed": report["result"]["failed"],
                "end_to_end": report["end_to_end"],
                "end_to_end_as_measured": report["end_to_end_as_measured"],
                "client": report["client"],
                "harness": report["harness"],
                "workload": report["workload"],
                "instances": report.get("instances"),
                "traced": {
                    # Beside the untraced op_ms above: the two differ by
                    # run-to-run noise plus harness.trace_overhead_pct.
                    "op_ms": traced["report"]["end_to_end"]["op_ms"],
                    "ops_attempted": traced["result"]["attempted"],
                    "ops_failed": traced["result"]["failed"],
                    "per_layer": {n: m["value"] for n, m in traced["result"]["metrics"].items()},
                    "trace_file": traced["report"]["trace_file"],
                },
            }
            print(f"traced {workload}: failed={traced['result']['failed']} "
                  f"trace_overhead_pct="
                  f"{traced['result']['metrics']['harness.trace_overhead_pct']['value']:.2f}",
                  flush=True)
        (harness.HERE / "BENCH_e2e.json").write_text(json.dumps(bench, indent=2) + "\n")
    print("\nrepeatable within bounds" if ok else "\nNOT repeatable within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

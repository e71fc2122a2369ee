"""Smoke test of the end-to-end benchmark's contract (not of its numbers):
short runs of one serve and one train workload must emit every metric
``BENCHMARK.json`` names, with its unit, and no failed op."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_declared_names_are_well_formed_and_unique():
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in DECLARED[key]
    ]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in DECLARED["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])


@pytest.mark.parametrize("workload", ["serve_pool_small", "train_serial"])
def test_short_run_emits_every_end_to_end_metric(workload):
    assert workload in [w["name"] for w in DECLARED["workloads"]]
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    if done.returncode == 3:
        pytest.skip("machine not quiet enough to measure: " + done.stderr.strip()[-300:])
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())

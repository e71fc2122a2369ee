"""Tripwire for the engine's numerics contract: the benchmark spec's trained
members, bit for bit.

README "Numerics of the benchmark spec" says a change under ``src/repro/nn``
may claim a speed-up only if every member's weights equal the parent
commit's.  This test makes that rule executable: it trains the spec of
``benchmarks/e2e`` in-process at ``workers=1`` (~2 s), content-hashes every
member (:func:`repro.nn.serialization.model_content_hash`) and compares with
the committed ``golden_member_bits.json``.

The bits depend on the numerical stack, so the golden file carries the
fingerprint of the environment it was written in (numpy, BLAS build, the SIMD
features numpy dispatches on); elsewhere the test skips and prints both
fingerprints (``-rs`` shows them).  A PR that changes training arithmetic on
purpose regenerates the file — that is how it "says so":

    PYTHONPATH=src OMP_NUM_THREADS=1 python tests/nn/test_training_bits.py --regenerate

Without the flag the script only prints the two fingerprints.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import run_experiment
from repro.nn.serialization import model_content_hash

GOLDEN = Path(__file__).with_name("golden_member_bits.json")

#: ``benchmarks/e2e/harness.experiment_spec(workers=1)``, spelled out: the
#: benchmark's files are not importable from the test suite and must not be.
BENCHMARK_SPEC = {
    "name": "e2e",
    "dataset": {
        "name": "cifar10",
        "image_shape": [3, 8, 8],
        "train_samples": 512,
        "test_samples": 128,
        "seed": 1,
    },
    "members": {"family": "small_vgg", "input_shape": [3, 8, 8], "width_scale": 0.0625},
    "approach": "mothernets",
    "trainer": {"tau": 0.5},
    "training": {
        "max_epochs": 3,
        "min_epochs": 3,
        "batch_size": 64,
        "learning_rate": 0.05,
        "workers": 1,
    },
    "seed": 1,
}


def environment_fingerprint() -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "simd": sorted(config.get("SIMD Extensions", {}).get("found", [])),
    }


def train_benchmark_spec() -> dict:
    result = run_experiment(BENCHMARK_SPEC)
    return {
        "members": {
            member.name: model_content_hash(member.model) for member in result.ensemble.members
        },
        "error_pct": result.evaluate(methods=["average"])["average"],
    }


def test_benchmark_spec_members_match_the_golden_bits():
    golden = json.loads(GOLDEN.read_text())
    here = environment_fingerprint()
    if here != golden["environment"]:
        pytest.skip(
            "golden bits were written on another numerical stack: "
            f"golden={json.dumps(golden['environment'], sort_keys=True)} "
            f"here={json.dumps(here, sort_keys=True)}"
        )
    trained = train_benchmark_spec()
    assert trained["members"] == golden["members"]
    assert trained["error_pct"] == golden["error_pct"]


if __name__ == "__main__":
    here = environment_fingerprint()
    print("here:  ", json.dumps(here, sort_keys=True))
    if GOLDEN.exists():
        print("golden:", json.dumps(json.loads(GOLDEN.read_text())["environment"], sort_keys=True))
    if "--regenerate" in sys.argv[1:]:
        payload = {"environment": here, **train_benchmark_spec()}
        GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")

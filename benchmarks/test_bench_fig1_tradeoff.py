"""Figure 1 — the conceptual accuracy-vs-training-cost positioning.

The paper's opening figure places the three approaches on an
accuracy / training-cost plane: sub-sampling (bagging) is cheap but less
accurate, full-data training is accurate but expensive, and MotherNets sits
near full-data accuracy at a fraction of the cost.  This bench regenerates
that scatter from the measured small-ensemble runs.
"""

from __future__ import annotations

from conftest import small_ensemble_scenario, write_report

from repro.evaluation import format_table


def test_bench_fig1_tradeoff(benchmark):
    scenario = benchmark.pedantic(small_ensemble_scenario, rounds=1, iterations=1)

    rows = []
    for approach in ("bagging", "full_data", "mothernets"):
        error = scenario["evaluations"][approach]["EA"]
        rows.append([approach, scenario["totals"][approach], 100.0 - error])
    report = format_table(
        ["approach", "training cost (s)", "ensemble accuracy (%)"],
        rows,
        title="Figure 1: accuracy vs training cost (measured, scaled substrate)",
    )
    write_report("fig1_tradeoff", report)

    work = scenario["work_units"]
    accuracy = {name: 100.0 - scenario["evaluations"][name]["EA"] for name in work}
    # MotherNets' defining property in Figure 1: cheaper than full-data
    # training (in cost-model work units) while staying close to its accuracy.
    assert work["mothernets"] < work["full_data"]
    assert accuracy["mothernets"] >= accuracy["bagging"] - 15.0
    assert accuracy["mothernets"] >= accuracy["full_data"] - 15.0

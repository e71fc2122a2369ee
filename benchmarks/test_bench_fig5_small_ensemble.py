"""Figure 5 — small ensemble (5 VGGNets, CIFAR-10-like).

(a) Test error rate of the ensemble under EA / SL / Vote / Oracle when trained
    through bagging, full-data, and MotherNets.
(b) Training-time breakdown across the ensemble networks for each approach.

Paper expectations: MotherNets reaches error comparable to full-data (within a
percent at paper scale) and clearly better than bagging, while training 2.5x
faster than full-data and 1.8x faster than bagging.
"""

from __future__ import annotations

from conftest import small_ensemble_scenario, write_report

from repro.evaluation import comparison_summary, expectation_note, format_table, format_time_breakdown


def test_bench_fig5_small_ensemble(benchmark, paper_expectations):
    scenario = benchmark.pedantic(small_ensemble_scenario, rounds=1, iterations=1)

    evaluations = scenario["evaluations"]
    methods = ["EA", "SL", "Vote", "O"]
    rows = [
        [approach, *[evaluations[approach].get(method, float("nan")) for method in methods]]
        for approach in ("bagging", "full_data", "mothernets")
    ]
    report = [
        format_table(
            ["approach", *methods],
            rows,
            title="Figure 5a: small ensemble test error rate (%) by inference method",
        )
    ]
    for approach, run in scenario["runs"].items():
        report.append("")
        report.append(
            format_time_breakdown(
                run.training_time_breakdown(), title=f"Figure 5b ({approach}): training time (s)"
            )
        )
    speedups = comparison_summary(scenario["totals"], reference="mothernets")
    report.append("")
    report.append(
        format_table(
            ["baseline", "speedup of MotherNets"],
            [[name, value] for name, value in speedups.items()],
            title="Training-time speedups",
        )
    )
    report.append(expectation_note(paper_expectations["fig5"]))
    write_report("fig5_small_ensemble", "\n".join(report))

    # Shape assertions (scaled-down substrate; see DESIGN.md §4).
    work = scenario["work_units"]
    assert work["mothernets"] < work["full_data"], "MotherNets must train cheaper than full-data"
    assert work["mothernets"] < work["bagging"], "MotherNets must train cheaper than bagging"
    mothernets_error = evaluations["mothernets"]["EA"]
    full_data_error = evaluations["full_data"]["EA"]
    assert abs(mothernets_error - full_data_error) < 15.0
    # All inference methods produce sane error rates and the oracle dominates.
    for approach in evaluations:
        assert evaluations[approach]["O"] <= evaluations[approach]["EA"] + 1e-9
        assert 0.0 <= evaluations[approach]["EA"] <= 100.0

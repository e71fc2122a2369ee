"""Figure 6 — large VGG ensemble on CIFAR-10(-like).

(a) Test error rate (EA / Vote / SL) of the MotherNets-trained ensemble as the
    number of networks grows.
(b) Total training time versus ensemble size for full-data, bagging, and
    MotherNets, plus the calibrated cost-model projection to the paper's
    100-network ensemble.

Paper expectations: the error rate drops by about two percentage points as the
ensemble grows on CIFAR-10, and MotherNets trains the 100-network ensemble up
to 6x faster than either baseline, with the gap growing linearly in the
ensemble size.
"""

from __future__ import annotations

from conftest import large_vgg_scenario, write_report

from repro.evaluation import expectation_note, format_series, format_table


def _report_large_vgg(name: str, title: str, scenario, expectations) -> str:
    sizes = scenario["sizes"]
    report = [
        format_series(
            {
                "EA": scenario["error_curves"]["average"],
                "Vote": scenario["error_curves"]["vote"],
                "SL": scenario["error_curves"]["super_learner"],
            },
            sizes,
            x_label="networks",
        )
    ]
    report[0] = f"{title} (a): error rate (%) vs ensemble size\n" + report[0]
    report.append("")
    report.append(
        f"{title} (b): cumulative training time (s) vs ensemble size\n"
        + format_series(scenario["time_curves"], sizes, x_label="networks")
    )
    projection = scenario["projection"]
    report.append("")
    report.append(
        f"{title} (b, projected to paper scale via the calibrated cost model, hours)\n"
        + format_series(
            {k: v for k, v in projection.items() if k != "sizes"},
            projection["sizes"],
            x_label="networks",
        )
    )
    final_speedup = projection["full_data"][-1] / projection["mothernets"][-1]
    report.append(f"\nprojected speedup at {projection['sizes'][-1]} networks: {final_speedup:.1f}x")
    report.append(expectation_note(expectations))
    return "\n".join(report)


def _assert_large_vgg_shape(scenario):
    sizes = scenario["sizes"]
    error_curve = scenario["error_curves"]["average"]
    # Ensembling helps: the full ensemble is no worse than a single network.
    assert error_curve[-1] <= error_curve[0] + 1.0
    # Training cost grows more slowly under MotherNets than from scratch — in
    # cumulative ledger work units: the measured seconds of the report's (b)
    # panel differ by a few percent between two such runs, which a noisy
    # neighbour can flip.
    mothernets_curve = scenario["work_curves"]["mothernets"]
    full_data_curve = scenario["work_curves"]["full_data"]
    assert mothernets_curve[-1] < full_data_curve[-1]
    marginal_mothernets = mothernets_curve[-1] - mothernets_curve[0]
    marginal_full_data = full_data_curve[-1] - full_data_curve[0]
    assert marginal_mothernets < marginal_full_data
    # Projection to paper scale: the headline speedup factor.
    projection = scenario["projection"]
    speedup = projection["full_data"][-1] / projection["mothernets"][-1]
    assert speedup > 3.0
    assert len(sizes) == len(error_curve) == len(mothernets_curve)


def test_bench_fig6_vgg_cifar10(benchmark, paper_expectations):
    scenario = benchmark.pedantic(lambda: large_vgg_scenario("cifar10"), rounds=1, iterations=1)
    report = _report_large_vgg(
        "fig6", "Figure 6 (VGGNet, CIFAR-10-like)", scenario, paper_expectations["fig6"]
    )
    write_report("fig6_vgg_cifar10", report)
    _assert_large_vgg_shape(scenario)

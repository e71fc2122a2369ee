"""Figure 9 — ResNet ensemble with clustering (CIFAR-10-like).

The ensemble mixes ResNets from 18 to 152 layers (plus four widened variants
of each), which have a large size spread; the clustering algorithm with
tau=0.5 splits them into a few clusters and a separate MotherNet is trained
per cluster.  The bench reports

* the clustering structure obtained on the *full-scale* 25-network family,
* error-rate-vs-ensemble-size and training-time curves of a scaled-down
  end-to-end training run, and
* the cost-model projection of training time to the paper's 25-network scale.

Paper expectations: three clusters ({18,34}, {50,101}, {152}), error improves
by about three percentage points as networks are added, and MotherNets is up
to 3.6x faster than the baselines.
"""

from __future__ import annotations

from conftest import resnet_scenario, write_report

from repro.arch import count_parameters
from repro.core import clustering_summary
from repro.evaluation import expectation_note, format_series, format_table


def test_bench_fig9_resnet_cifar10(benchmark, paper_expectations):
    scenario = benchmark.pedantic(resnet_scenario, rounds=1, iterations=1)

    cluster_rows = [
        [
            entry["cluster_id"],
            entry["size"],
            ", ".join(entry["members"][:3]) + (" ..." if entry["size"] > 3 else ""),
            f"{entry['mothernet_parameters']:,d}",
            entry["min_shared_fraction"],
        ]
        for entry in clustering_summary(scenario["full_clusters"])
    ]
    report = [
        format_table(
            ["cluster", "members", "examples", "MotherNet params", "min shared fraction"],
            cluster_rows,
            title="Clustering of the full-scale 25-network ResNet family (tau = 0.5)",
        ),
        "",
        "Figure 9a: error rate (%) vs ensemble size (scaled training run)\n"
        + format_series(
            {"EA": scenario["error_curves"]["average"], "Vote": scenario["error_curves"]["vote"]},
            scenario["sizes"],
            x_label="networks",
        ),
        "",
        "Figure 9b: cumulative training time (s) vs ensemble size (measured)\n"
        + format_series(scenario["time_curves"], scenario["sizes"], x_label="networks"),
        "",
        "Figure 9b projected to the paper's 25-network ensemble (hours)\n"
        + format_series(
            {k: v for k, v in scenario["projection"].items() if k != "sizes"},
            scenario["projection"]["sizes"],
            x_label="networks",
        ),
    ]
    projected_speedup = (
        scenario["projection"]["full_data"][-1] / scenario["projection"]["mothernets"][-1]
    )
    report.append(f"\nprojected speedup at 25 networks: {projected_speedup:.1f}x")
    report.append(expectation_note(paper_expectations["fig9"]))
    write_report("fig9_resnet_cifar10", "\n".join(report))

    # --- clustering structure -------------------------------------------------
    clusters = scenario["full_clusters"]
    assert 2 <= len(clusters) <= 10
    for cluster in clusters:
        assert cluster.min_shared_fraction() >= 0.5
    # The smallest and largest family members never share a cluster: the size
    # spread is exactly why clustering exists.
    by_size = sorted(scenario["full_family"], key=count_parameters)
    smallest, largest = by_size[0].name, by_size[-1].name
    for cluster in clusters:
        names = {member.name for member in cluster.members}
        assert not ({smallest, largest} <= names)

    # --- training-run shape ---------------------------------------------------
    error_curve = scenario["error_curves"]["average"]
    assert error_curve[-1] <= error_curve[0] + 1.0
    # In ledger work units, not the report's measured seconds (fig6 says why).
    assert scenario["work_curves"]["mothernets"][-1] < scenario["work_curves"]["full_data"][-1]
    assert projected_speedup > 1.5
    # Oracle error never increases with more members.
    oracle = scenario["oracle_curve"]
    assert all(b <= a + 1e-9 for a, b in zip(oracle, oracle[1:]))

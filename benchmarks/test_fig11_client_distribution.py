"""Fig. 11 — distribution of Benign AC and Attack SR across individual clients.

Paper: under FedAvg with the DP defense on FEMNIST, clients spread over a wide
range of Attack SR — the population average hides a heavily-infected subset.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.client_level import client_cluster_analysis
from repro.experiments.results import format_table


def test_fig11_per_client_distribution(femnist_bench_config):
    config = femnist_bench_config.with_overrides(
        rounds=20, defense="dp", defense_kwargs={"clip_norm": 2.0, "noise_multiplier": 0.002}
    )
    analysis = client_cluster_analysis(config)
    benign = analysis["per_client_benign_accuracy"]
    attack = analysis["per_client_attack_success_rate"]
    rows = [
        {"cluster": name, **metrics} for name, metrics in analysis["cluster_metrics"].items()
    ]
    print("\nFig. 11 — per-cluster Benign AC / Attack SR (FedAvg + DP, FEMNIST-like)")
    print(format_table(rows))
    print(f"per-client Attack SR: min={attack.min():.2f} median={np.median(attack):.2f} max={attack.max():.2f}")
    assert benign.shape == attack.shape
    # The spread across clients is wide: the most-affected client has a much
    # higher Attack SR than the least-affected one.
    assert attack.max() - attack.min() > 0.3
    # Cluster metrics are ordered: top clusters are hit hardest.
    metrics = analysis["cluster_metrics"]
    assert metrics["top1%"]["attack_success_rate"] >= metrics["bottom"]["attack_success_rate"]

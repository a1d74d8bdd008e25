"""Figs. 10 & 17–25 — fewer compromised clients, top-k% most affected clients.

Paper: with only 0.1–0.5% compromised clients the population-average Attack SR
drops, but the top-25% most affected benign clients still show very high
Attack SR (86% on average with 0.5% compromised), and the top-1% are hit
almost surely.  The reduced scale here uses proportionally small |C| (1–3
clients out of 24).
"""

from __future__ import annotations

from repro.experiments.defense_evaluation import compromised_fraction_sweep
from repro.experiments.results import format_table


def test_fig10_topk_affected_clients(femnist_bench_config):
    config = femnist_bench_config.with_overrides(rounds=30)
    rows = compromised_fraction_sweep(
        config,
        fractions=[0.05, 0.125],
        top_k_percents=[1.0, 25.0, 50.0, 100.0],
        defense="norm_bound",
        defense_kwargs={"max_norm": 2.0},
    )
    print("\nFigs. 10/17–25 — top-k% affected clients vs compromised fraction")
    print(format_table(rows))
    for fraction in (0.05, 0.125):
        subset = {row["top_k_percent"]: row for row in rows if row["compromised_fraction"] == fraction}
        # Attack SR is monotone in the cluster: the most affected clients are
        # hit at least as hard as the population average.
        assert subset[1.0]["attack_success_rate"] >= subset[25.0]["attack_success_rate"] - 1e-9
        assert subset[25.0]["attack_success_rate"] >= subset[100.0]["attack_success_rate"] - 1e-9
    # Even with a small compromised fraction, the most affected quarter of
    # the benign clients is substantially backdoored (the paper's headline
    # client-level finding), and shrinking |C| lowers the population average
    # more than it lowers the top-25% figure.
    top25 = {
        row["compromised_fraction"]: row["attack_success_rate"]
        for row in rows
        if row["top_k_percent"] == 25.0
    }
    assert top25[0.125] > 0.35
    overall = {
        row["compromised_fraction"]: row["attack_success_rate"]
        for row in rows
        if row["top_k_percent"] == 100.0
    }
    assert top25[0.05] >= overall[0.05]

"""Figs. 9 & 16 — CollaPois (1% compromised in the paper) under robust defenses.

Paper: DP and NormBound leave the FL model highly vulnerable; Krum and RLR
suppress the backdoor but at a substantial Benign AC cost, making them
impractical.  Krum and RLR are not applicable to MetaFed.
"""

from __future__ import annotations

from repro.experiments.defense_evaluation import defense_sweep
from repro.experiments.results import format_table

DEFENSES = {
    "mean": {},
    "dp": {"clip_norm": 2.0, "noise_multiplier": 0.002},
    "norm_bound": {"max_norm": 2.0},
    "krum": {"num_malicious": 1, "multi": 3},
    "rlr": {"threshold_fraction": 0.6},
}


def test_fig09_defenses_sentiment(sentiment_bench_config):
    config = sentiment_bench_config.with_overrides(rounds=20)
    rows = defense_sweep(config, alphas=[0.2], defenses=DEFENSES)
    print("\nFig. 9 — CollaPois under defenses (Sentiment-like, FedAvg)")
    print(format_table(rows))
    by_defense = {row["defense"]: row for row in rows}
    undefended_sr = by_defense["mean"]["attack_success_rate"]
    # Weak defenses: the attack retains most of its success.
    assert by_defense["norm_bound"]["attack_success_rate"] > 0.4 * undefended_sr
    # Strong defenses pay with benign accuracy and/or suppress the attack.
    assert by_defense["krum"]["attack_success_rate"] < undefended_sr


def test_fig16_defenses_femnist(femnist_bench_config):
    config = femnist_bench_config.with_overrides(rounds=24)
    rows = defense_sweep(config, alphas=[0.2], defenses=DEFENSES)
    print("\nFig. 16 — CollaPois under defenses (FEMNIST-like, FedAvg)")
    print(format_table(rows))
    by_defense = {row["defense"]: row for row in rows}
    undefended = by_defense["mean"]
    # NormBound leaves the model vulnerable (paper: up to ~91% Attack SR).
    assert by_defense["norm_bound"]["attack_success_rate"] > 0.4
    # Krum/RLR trade benign accuracy for robustness (paper: −25% / −61% Benign AC).
    strong = min(by_defense["krum"]["benign_accuracy"], by_defense["rlr"]["benign_accuracy"])
    assert strong < undefended["benign_accuracy"] + 1e-9
    assert min(
        by_defense["krum"]["attack_success_rate"], by_defense["rlr"]["attack_success_rate"]
    ) < undefended["attack_success_rate"]


def test_fig16_metafed_skips_inapplicable_defenses(femnist_bench_config):
    config = femnist_bench_config.with_overrides(algorithm="metafed", rounds=10)
    rows = defense_sweep(config, alphas=[0.2], defenses=DEFENSES)
    print("\nFig. 9/16 — MetaFed rows (Krum and RLR not applicable)")
    print(format_table(rows))
    assert {row["defense"] for row in rows} == {"mean", "dp", "norm_bound"}

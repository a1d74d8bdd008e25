"""Figs. 8 & 15 — CollaPois vs DPois / MRepl / DBA across α and FL algorithms.

Paper: CollaPois achieves a much higher Attack SR than every baseline without
a notable Benign AC drop, on both datasets and under FedAvg, FedDC (where
personalisation blunts the baselines but not CollaPois) and MetaFed.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.attack_comparison import attack_comparison_sweep
from repro.experiments.results import format_table

ALPHAS = [0.1, 1.0, 10.0]
ATTACKS = ["collapois", "dpois", "mrepl", "dba"]


def _check_collapois_dominates(rows):
    by_attack = {attack: [r for r in rows if r["attack"] == attack] for attack in ATTACKS}
    colla_sr = np.mean([r["attack_success_rate"] for r in by_attack["collapois"]])
    colla_acc = np.mean([r["benign_accuracy"] for r in by_attack["collapois"]])
    for baseline in ("dpois", "mrepl", "dba"):
        base_sr = np.mean([r["attack_success_rate"] for r in by_attack[baseline]])
        assert colla_sr > base_sr, f"CollaPois should beat {baseline}"
    # No dramatic utility loss relative to the baselines' accuracy level.
    baseline_acc = np.mean(
        [r["benign_accuracy"] for a in ("dpois", "dba") for r in by_attack[a]]
    )
    assert colla_acc > baseline_acc - 0.25


def test_fig08_fedavg_sentiment(sentiment_bench_config):
    config = sentiment_bench_config.with_overrides(algorithm="fedavg", rounds=14)
    rows = attack_comparison_sweep(config, alphas=ALPHAS, attacks=ATTACKS)
    print("\nFig. 8 — FedAvg, Sentiment-like: attack comparison")
    print(format_table(rows))
    _check_collapois_dominates(rows)


def test_fig15_fedavg_femnist(femnist_bench_config):
    config = femnist_bench_config.with_overrides(algorithm="fedavg", rounds=14)
    rows = attack_comparison_sweep(config, alphas=ALPHAS, attacks=ATTACKS)
    print("\nFig. 15 — FedAvg, FEMNIST-like: attack comparison")
    print(format_table(rows))
    _check_collapois_dominates(rows)


def test_fig08_feddc_femnist(femnist_bench_config):
    config = femnist_bench_config.with_overrides(algorithm="feddc", rounds=14)
    rows = attack_comparison_sweep(config, alphas=[0.1, 1.0], attacks=["collapois", "dpois"])
    print("\nFig. 15 — FedDC, FEMNIST-like: personalisation blunts DPois, not CollaPois")
    print(format_table(rows))
    colla = np.mean([r["attack_success_rate"] for r in rows if r["attack"] == "collapois"])
    dpois = np.mean([r["attack_success_rate"] for r in rows if r["attack"] == "dpois"])
    assert colla > dpois


def test_fig08_metafed_femnist(femnist_bench_config):
    config = femnist_bench_config.with_overrides(algorithm="metafed", rounds=10)
    rows = attack_comparison_sweep(config, alphas=[0.1, 10.0], attacks=["collapois", "dba"])
    print("\nFig. 15 — MetaFed, FEMNIST-like: attack comparison")
    print(format_table(rows))
    colla = np.mean([r["attack_success_rate"] for r in rows if r["attack"] == "collapois"])
    dba = np.mean([r["attack_success_rate"] for r in rows if r["attack"] == "dba"])
    assert colla > dba

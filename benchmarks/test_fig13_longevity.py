"""Fig. 13 — Benign AC and Attack SR over training rounds (longevity).

Paper: MRepl causes an abrupt shift when its replacement round fires and then
decays (≈40% Attack SR decline over 40 rounds), whereas CollaPois rises
steadily and persists with only a negligible drop.
"""

from __future__ import annotations

from repro.experiments.longevity import longevity_analysis
from repro.experiments.results import format_table


def test_fig13_longevity(femnist_bench_config):
    config = femnist_bench_config.with_overrides(rounds=24, alpha=0.1)
    series = longevity_analysis(config, attacks=["collapois", "mrepl"], eval_every=2)
    for attack, rows in series.items():
        print(f"\nFig. 13 — {attack}: Attack SR / Benign AC per round")
        print(format_table(rows))
    colla = [row["attack_success_rate"] for row in series["collapois"]]
    mrepl = [row["attack_success_rate"] for row in series["mrepl"]]
    # CollaPois keeps (or grows) its success toward the end of training.
    assert colla[-1] >= 0.8 * max(colla)
    # CollaPois ends stronger than the one-shot replacement attack, whose
    # effect decays after its replacement round.
    assert colla[-1] >= mrepl[-1]
    assert max(colla) > 0.4
    # Benign accuracy under CollaPois does not crater over time.
    benign = [row["benign_accuracy"] for row in series["collapois"]]
    assert benign[-1] >= 0.8 * max(benign)

"""Fig. 1 — DPois and MRepl barely react to |C| or to the non-IID level.

Paper: on the Sentiment dataset, moving from 0.1% to 1% compromised clients
and sweeping α ∈ [0.01, 100] produces only modest changes in the baseline
attacks' success — the observation that motivates CollaPois.
"""

from __future__ import annotations

from repro.experiments.attack_comparison import baseline_sensitivity_sweep
from repro.experiments.results import format_table


def test_fig01_baseline_attacks_insensitive(sentiment_bench_config):
    config = sentiment_bench_config.with_overrides(rounds=12)
    rows = baseline_sensitivity_sweep(
        config,
        alphas=[0.05, 5.0],
        fractions=[0.05, 0.15],
        attacks=["dpois", "mrepl"],
    )
    print("\nFig. 1 — baseline attack sensitivity (Sentiment-like)")
    print(format_table(rows))
    # Shape check: for each baseline attack the spread of Attack SR across
    # (fraction, alpha) combinations stays modest — nothing approaches the
    # near-total compromise CollaPois achieves in Fig. 8.
    for attack in ("dpois", "mrepl"):
        rates = [r["attack_success_rate"] for r in rows if r["attack"] == attack]
        assert max(rates) - min(rates) < 0.6
        assert max(rates) < 0.9

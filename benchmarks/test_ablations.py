"""Ablation benches for CollaPois's design choices.

* Dynamic learning rate ψ ~ U[a, b] vs an (almost) fixed ψ — the stealth
  mechanism of Eq. 4.
* Malicious-gradient clipping bound A on/off under the NormBound defense.
* Trigger type: warping (WaNet-style) vs pixel patch.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.results import format_table
from repro.experiments.runner import run_experiment


def test_ablation_dynamic_learning_rate(femnist_bench_config):
    """A wider psi range adds randomness without destroying attack success."""
    rows = []
    for low, high in ((0.98, 0.99), (0.9, 1.0), (0.5, 1.0)):
        config = femnist_bench_config.with_overrides(psi_low=low, psi_high=high, rounds=16)
        result = run_experiment(config)
        attack = result.extras["attack"]
        psis = [entry[2] for entry in attack.psi_history]
        rows.append(
            {
                "psi_low": low,
                "psi_high": high,
                "psi_std": float(np.std(psis)) if psis else 0.0,
                "benign_accuracy": result.benign_accuracy,
                "attack_success_rate": result.attack_success_rate,
            }
        )
    print("\nAblation — dynamic learning rate range")
    print(format_table(rows))
    assert rows[0]["psi_std"] < rows[2]["psi_std"]
    for row in rows:
        assert row["attack_success_rate"] > 0.3


def test_ablation_clipping_under_norm_bound(femnist_bench_config):
    """Attacker-side clipping keeps the attack effective under NormBound."""
    rows = []
    for clip in (None, 2.0):
        config = femnist_bench_config.with_overrides(
            clip_bound=clip, rounds=24,
            defense="norm_bound", defense_kwargs={"max_norm": 2.0},
        )
        result = run_experiment(config)
        rows.append(
            {
                "attacker_clip": "none" if clip is None else clip,
                "benign_accuracy": result.benign_accuracy,
                "attack_success_rate": result.attack_success_rate,
            }
        )
    print("\nAblation — attacker-side clipping under the NormBound defense")
    print(format_table(rows))
    # Both variants keep a meaningful attack: server-side clipping already
    # bounds what reaches the aggregate, so attacker-side clipping costs
    # little while improving stealth.
    for row in rows:
        assert row["attack_success_rate"] > 0.2


def test_ablation_trigger_type(femnist_bench_config):
    """Warping and pixel-patch triggers both carry the backdoor."""
    rows = []
    for trigger in ("warping", "patch"):
        config = femnist_bench_config.with_overrides(trigger=trigger, rounds=16)
        result = run_experiment(config)
        rows.append(
            {
                "trigger": trigger,
                "benign_accuracy": result.benign_accuracy,
                "attack_success_rate": result.attack_success_rate,
            }
        )
    print("\nAblation — trigger type")
    print(format_table(rows))
    for row in rows:
        assert row["attack_success_rate"] > 0.4
        assert row["benign_accuracy"] > 0.5

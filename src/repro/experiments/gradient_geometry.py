"""Gradient-geometry experiments (Figs. 3 and 6 of the paper).

These experiments inspect *one* federated round at several Dirichlet α values
and measure the angles among benign updates, among malicious updates, and
between the two groups — the empirical backbone of Theorem 1 and of the
stealthiness argument.
"""

from __future__ import annotations

import numpy as np

from repro.core.stealth import blend_statistics
from repro.experiments.runner import (
    build_attack,
    build_dataset,
    build_model_factory,
    build_trigger,
    select_compromised_clients,
)
from repro.experiments.scenario import Scenario
from repro.federated.client import local_train
from repro.metrics.gradients import aggregate_angle_to_group, angle_summary
from repro.nn.serialization import flatten_params


def _collect_round_updates(config: Scenario, attack_name: str) -> dict:
    """Run one synchronous round and return benign + malicious updates."""
    config = config.with_overrides(attack=attack_name)
    dataset, generator = build_dataset(config)
    model_factory = build_model_factory(config, generator)
    trigger = build_trigger(config, generator)
    compromised = select_compromised_clients(
        config.num_clients, config.compromised_fraction, config.seed
    )
    attack = build_attack(config)
    attack.setup(
        dataset, compromised, model_factory, trigger, config.target_class,
        local_config=config.local, seed=config.seed,
    )
    model = model_factory()
    global_params = flatten_params(model_factory())
    benign_updates = []
    benign_ids = [c for c in range(dataset.num_clients) if c not in set(compromised)]
    for client_id in benign_ids:
        rng = np.random.default_rng(config.seed * 97 + client_id)
        update, _ = local_train(
            model, global_params, dataset.client(client_id).train, config.local, rng
        )
        benign_updates.append(update)
    malicious_updates = []
    for client_id in compromised:
        rng = np.random.default_rng(config.seed * 131 + client_id)
        malicious_updates.append(
            attack.compute_update(client_id, global_params, 0, model, rng)
        )
    return {
        "benign": np.stack(benign_updates),
        "malicious": np.stack(malicious_updates),
        "dataset": dataset,
        "compromised": compromised,
    }


def gradient_angle_analysis(
    base_config: Scenario,
    alphas: list[float],
    attack: str = "collapois",
    baseline_attack: str = "dpois",
) -> list[dict]:
    """Fig. 3: angle statistics of benign vs malicious updates across α.

    For every α the row reports the mean pairwise angle among benign updates,
    among the given attack's malicious updates, among the baseline attack's
    malicious updates, and the mean angle β between benign updates and the
    aggregated malicious update (the Theorem-1 quantity).
    """
    rows: list[dict] = []
    for alpha in alphas:
        config = base_config.with_overrides(alpha=alpha)
        primary = _collect_round_updates(config, attack)
        baseline = _collect_round_updates(config, baseline_attack)
        beta = aggregate_angle_to_group(primary["benign"], primary["malicious"])
        rows.append(
            {
                "alpha": alpha,
                "benign_angle_mean": angle_summary(primary["benign"])["mean"],
                "collapois_malicious_angle_mean": angle_summary(primary["malicious"])["mean"],
                "dpois_malicious_angle_mean": angle_summary(baseline["malicious"])["mean"],
                "beta_mean": float(np.mean(beta)),
                "beta_std": float(np.std(beta)),
            }
        )
    return rows


def stealth_angle_analysis(
    base_config: Scenario,
    psi_ranges: list[tuple[float, float]] = ((0.95, 0.99), (0.5, 1.0)),
) -> list[dict]:
    """Fig. 6: how the ψ range blends malicious angles into the benign background."""
    rows: list[dict] = []
    for psi_low, psi_high in psi_ranges:
        config = base_config.with_overrides(psi_low=psi_low, psi_high=psi_high)
        collected = _collect_round_updates(config, "collapois")
        stats = blend_statistics(collected["malicious"], collected["benign"])
        stats["psi_low"] = psi_low
        stats["psi_high"] = psi_high
        rows.append(stats)
    return rows

"""Theory-driven figures (Figs. 4, 5 and 7 of the paper)."""

from __future__ import annotations

import numpy as np

from repro.core.theory import (
    approximate_lower_bound,
    compromised_fraction_surface,
    estimation_error_bounds,
    expected_angle_statistics,
)
from repro.experiments.gradient_geometry import _collect_round_updates
from repro.experiments.runner import run_experiment
from repro.experiments.scenario import Scenario
from repro.metrics.gradients import aggregate_angle_to_group


def bound_approximation_error_sweep(
    base_config: Scenario,
    alphas: list[float],
) -> list[dict]:
    """Fig. 4: relative approximation error of the Theorem-1 bound vs α.

    The angles β_i are measured from one real federated round per α; the
    theorem's approximation replaces their empirical second moment by the
    Gaussian-model expectation.
    """
    rows: list[dict] = []
    for alpha in alphas:
        config = base_config.with_overrides(alpha=alpha)
        collected = _collect_round_updates(config, "collapois")
        beta = aggregate_angle_to_group(collected["benign"], collected["malicious"])
        # The attacker only observes a proxy sample of the benign angle
        # distribution (derived from the compromised clients' own data); the
        # approximation error of Theorem 1 is the gap between the bound
        # computed from that finite sample and the bound computed from the
        # full benign population.
        rng = np.random.default_rng(config.seed + int(alpha * 1000))
        half = max(2, beta.size // 2)
        attacker_view = rng.choice(beta, size=half, replace=False)
        report = approximate_lower_bound(
            attacker_view, num_clients=config.num_clients,
            psi_low=config.psi_low, psi_high=config.psi_high,
        )
        exact = approximate_lower_bound(
            beta, num_clients=config.num_clients,
            psi_low=config.psi_low, psi_high=config.psi_high,
        )["exact_bound"]
        if exact > 0:
            report["relative_error"] = abs(report["approximate_bound"] - exact) / exact
        report["exact_bound"] = exact
        report["alpha"] = alpha
        rows.append(report)
    return rows


def bound_surface(
    mu_range: tuple[float, float] = (0.0, 1.4),
    sigma_range: tuple[float, float] = (0.0, 0.8),
    resolution: int = 15,
    psi_low: float = 0.9,
    psi_high: float = 1.0,
) -> dict:
    """Fig. 5: the |C|/|N| lower-bound surface over the (µ_α, σ) grid."""
    mu_values = np.linspace(mu_range[0], mu_range[1], resolution)
    sigma_values = np.linspace(sigma_range[0], sigma_range[1], resolution)
    surface = compromised_fraction_surface(mu_values, sigma_values, psi_low, psi_high)
    return {"mu": mu_values, "sigma": sigma_values, "surface": surface}


def alpha_to_bound(alphas: list[float], num_clients: int = 1000,
                   psi_low: float = 0.9, psi_high: float = 1.0) -> list[dict]:
    """Analytic companion: Theorem-1 bound as a function of α directly."""
    from repro.core.theory import min_compromised_clients

    rows = []
    for alpha in alphas:
        mu, sigma = expected_angle_statistics(alpha)
        bound = min_compromised_clients(mu, sigma, num_clients, psi_low, psi_high)
        rows.append({"alpha": alpha, "mu_alpha": mu, "sigma": sigma,
                     "min_compromised": bound, "fraction": bound / num_clients})
    return rows


def estimation_error_over_rounds(
    base_config: Scenario,
    checkpoints: list[int] = (2, 5, 10, 15),
    precision: float = 1.0,
) -> list[dict]:
    """Fig. 7: the server's estimation error of X as training progresses.

    Runs a single CollaPois experiment and, at each checkpoint round, computes
    the Theorem-3 lower/upper bounds and the realised error of the naive
    estimator (mean of the suspected clients' models).
    """
    config = base_config.with_overrides(attack="collapois", rounds=max(checkpoints))
    rows: list[dict] = []
    result = None
    # Re-run progressively so every checkpoint reflects the state at that round.
    for rounds in sorted(checkpoints):
        config_r = config.with_overrides(rounds=rounds)
        result = run_experiment(config_r)
        attack = result.extras["attack"]
        server = result.extras["server"]
        dataset = result.extras["dataset"]
        global_params = server.global_params
        malicious_updates = np.stack(
            [
                attack.compute_update(c, global_params, rounds, server._worker_model,
                                      np.random.default_rng(c))
                for c in result.compromised_ids
            ]
        )
        # The server's candidate "client models" are global + last benign updates.
        client_params = np.stack(
            [server.personalized_params(c) for c in range(min(dataset.num_clients, 10))]
        )
        bounds = estimation_error_bounds(
            malicious_updates,
            client_params,
            attack.trojan_params,
            precision=precision,
            num_compromised=len(result.compromised_ids),
            psi_high=config.psi_high,
        )
        bounds["round"] = rounds
        bounds["distance_to_trojan"] = attack.distance_to_trojan(global_params)
        rows.append(bounds)
    return rows

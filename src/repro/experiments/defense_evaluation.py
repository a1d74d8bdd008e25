"""Defense-evaluation sweeps (Figs. 9, 10, 16–25 of the paper).

* :func:`defense_sweep` — CollaPois against the four headline defenses
  (DP, NormBound, Krum, RLR) plus undefended FedAvg, across α (Figs. 9/16).
* :func:`compromised_fraction_sweep` — reducing the compromised fraction and
  reporting both the population average and the top-k% most affected clients
  (Figs. 10, 17–25).

Both are :class:`~repro.experiments.suite.Suite` grids; the defense axis
carries each defense's kwargs as a component spec, and the MetaFed
exclusions of Fig. 9 are a suite ``filter``.
"""

from __future__ import annotations

from repro.experiments.scenario import Scenario
from repro.experiments.suite import Suite
from repro.metrics.client_level import top_k_metrics

DEFAULT_DEFENSES: dict[str, dict] = {
    "mean": {},
    "dp": {"clip_norm": 2.0, "noise_multiplier": 0.002},
    "norm_bound": {"max_norm": 2.0, "noise_std": 0.0},
    "krum": {"num_malicious": 1, "multi": 3},
    "rlr": {"threshold_fraction": 0.6},
}

# Krum and RLR are "not applicable for MetaFed" (Fig. 9 caption).
_METAFED_EXCLUDED = {"krum", "rlr"}


def defense_sweep(
    base_config: Scenario,
    alphas: list[float],
    defenses: dict[str, dict] | None = None,
) -> list[dict]:
    """Benign AC and Attack SR of CollaPois under each defense at each α."""
    defenses = defenses if defenses is not None else DEFAULT_DEFENSES
    suite = Suite.grid(
        base_config,
        name="defense_evaluation",
        defense=[(name, dict(kwargs)) for name, kwargs in defenses.items()],
        alpha=list(alphas),
    ).filter(
        lambda s: not (s.algorithm == "metafed" and s.defense in _METAFED_EXCLUDED)
    )
    return suite.rows("defense", "alpha", "algorithm")


def compromised_fraction_sweep(
    base_config: Scenario,
    fractions: list[float],
    top_k_percents: list[float] = (1.0, 25.0, 50.0, 100.0),
    defense: str = "dp",
    defense_kwargs: dict | None = None,
) -> list[dict]:
    """Attack SR at several compromised fractions, overall and for top-k% clients."""
    base = base_config.with_overrides(
        defense=defense,
        defense_kwargs=dict(defense_kwargs or DEFAULT_DEFENSES.get(defense, {})),
    )
    suite = Suite.grid(
        base, name="compromised_fraction", compromised_fraction=list(fractions)
    )
    rows: list[dict] = []
    for cell in suite.run():
        for k in top_k_percents:
            metrics = top_k_metrics(cell.result.evaluation, k)
            rows.append(
                {
                    "compromised_fraction": cell.scenario.compromised_fraction,
                    "defense": cell.scenario.defense,
                    "top_k_percent": k,
                    "benign_accuracy": metrics["benign_accuracy"],
                    "attack_success_rate": metrics["attack_success_rate"],
                    "num_clients": metrics["num_clients"],
                }
            )
    return rows

"""Experiment harness: declarative configs and per-figure runners.

Every figure in the paper's evaluation section has a corresponding function
here that sweeps the relevant parameter (Dirichlet α, compromised fraction,
defense, training algorithm, …) and returns the series the figure plots.
The benchmark suite under ``benchmarks/`` calls these functions, prints
the regenerated rows and asserts the shape of each result.
"""

from repro.experiments.attack_comparison import attack_comparison_sweep, baseline_sensitivity_sweep
from repro.experiments.client_level import client_cluster_analysis, label_similarity_analysis
from repro.experiments.defense_evaluation import compromised_fraction_sweep, defense_sweep
from repro.experiments.gradient_geometry import gradient_angle_analysis, stealth_angle_analysis
from repro.experiments.longevity import longevity_analysis
from repro.experiments.results import ExperimentResult, format_table
from repro.experiments.runner import (
    build_attack,
    build_dataset,
    build_model_factory,
    run_experiment,
    select_compromised_clients,
)
from repro.experiments.scenario import Scenario
from repro.experiments.suite import CellResult, Suite
from repro.experiments.theory_figs import (
    bound_approximation_error_sweep,
    bound_surface,
    estimation_error_over_rounds,
)

__all__ = [
    "Scenario",
    "Suite",
    "CellResult",
    "ExperimentResult",
    "format_table",
    "run_experiment",
    "build_dataset",
    "build_model_factory",
    "build_attack",
    "select_compromised_clients",
    "attack_comparison_sweep",
    "baseline_sensitivity_sweep",
    "defense_sweep",
    "compromised_fraction_sweep",
    "gradient_angle_analysis",
    "stealth_angle_analysis",
    "bound_approximation_error_sweep",
    "bound_surface",
    "estimation_error_over_rounds",
    "client_cluster_analysis",
    "label_similarity_analysis",
    "longevity_analysis",
]

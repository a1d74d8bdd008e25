"""Fig. 4 — relative approximation error of the Theorem-1 lower bound vs α.

Paper: the error of approximating Σβ² by its Gaussian expectation is marginal
across all α (2.23% at α = 0.01 down to 0.57% at α = 100).
"""

from __future__ import annotations

from benchmarks.conftest import ALPHA_SWEEP
from repro.experiments.results import format_table
from repro.experiments.theory_figs import bound_approximation_error_sweep


def test_fig04_bound_approximation_error(femnist_bench_config):
    rows = bound_approximation_error_sweep(femnist_bench_config, alphas=ALPHA_SWEEP)
    print("\nFig. 4 — Theorem 1 bound approximation error vs alpha")
    print(format_table(rows))
    for row in rows:
        # The approximation error stays marginal (paper: a few percent).
        assert row["relative_error"] < 0.15
        # And the bound itself is a valid fraction of the population.
        assert 0.0 <= row["approximate_bound"] <= femnist_bench_config.num_clients

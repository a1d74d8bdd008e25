"""Fig. 3 — gradient-angle geometry as a function of the non-IID level α.

Paper: (a) benign clients' gradients scatter more (larger pairwise angles) as
α shrinks, while CollaPois's malicious gradients stay tightly aligned;
(b) DPois's malicious gradients scatter like benign ones.
"""

from __future__ import annotations

from benchmarks.conftest import ALPHA_SWEEP
from repro.experiments.gradient_geometry import gradient_angle_analysis
from repro.experiments.results import format_table


def test_fig03_gradient_angle_geometry(femnist_bench_config):
    rows = gradient_angle_analysis(femnist_bench_config, alphas=ALPHA_SWEEP)
    print("\nFig. 3 — gradient angles vs alpha (FEMNIST-like)")
    print(format_table(rows))
    # CollaPois malicious gradients are (near-)parallel at every alpha and
    # tighter than both benign gradients and DPois malicious gradients.
    for row in rows:
        assert row["collapois_malicious_angle_mean"] <= 0.2
        assert row["collapois_malicious_angle_mean"] < row["benign_angle_mean"]
        assert row["collapois_malicious_angle_mean"] <= row["dpois_malicious_angle_mean"] + 1e-9
    # Benign gradients scatter more under more diverse data (smaller alpha).
    by_alpha = {row["alpha"]: row for row in rows}
    assert by_alpha[min(ALPHA_SWEEP)]["benign_angle_mean"] > by_alpha[max(ALPHA_SWEEP)]["benign_angle_mean"]

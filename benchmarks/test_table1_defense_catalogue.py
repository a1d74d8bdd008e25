"""Table I — catalogue of robust federated training defenses.

The paper's Table I lists the robust-aggregation / model-smoothness / DP
defenses considered.  This benchmark verifies every row of the table is
implemented, exercises each one on a CollaPois round, and reports how far the
aggregated update each defense produces deviates from the benign-only mean
(a proxy for how much of the malicious pull survives aggregation).
"""

from __future__ import annotations

import numpy as np

from repro.defenses.base import AggregationContext
from repro.experiments.gradient_geometry import _collect_round_updates
from repro.experiments.results import format_table
from repro.registry import DEFENSES

TABLE1_ROWS = [
    "krum",          # Krum / Multi-Krum
    "median",        # Median GD
    "trimmed_mean",  # Trimmed-mean GD
    "signsgd",       # SignSGD with majority vote
    "rlr",           # Robust learning rate
    "norm_bound",    # Norm bounding
    "crfl",          # CRFL clip + smooth
    "flare",         # FLARE trust scores
    "dp",            # DP-optimizer / user-level DP
]


def test_table1_every_defense_is_implemented():
    names = DEFENSES.names()
    for row in TABLE1_ROWS:
        assert row in names, f"Table I defense {row!r} is missing"


def test_table1_defenses_on_a_collapois_round(femnist_bench_config):
    collected = _collect_round_updates(femnist_bench_config, "collapois")
    benign = collected["benign"]
    malicious = collected["malicious"]
    updates = np.vstack([benign, malicious])
    global_params = np.zeros(updates.shape[1])
    benign_mean = benign.mean(axis=0)
    ctx = AggregationContext(rng=np.random.default_rng(0))
    rows = []
    for name in TABLE1_ROWS + ["mean", "detector"]:
        defense = DEFENSES.create(name)
        aggregated = defense(updates, global_params, ctx)
        rows.append(
            {
                "defense": name,
                "aggregate_norm": float(np.linalg.norm(aggregated)),
                "deviation_from_benign_mean": float(np.linalg.norm(aggregated - benign_mean)),
            }
        )
    print("\nTable I — defense catalogue exercised on one CollaPois round")
    print(format_table(rows))
    by_name = {row["defense"]: row for row in rows}
    # The undefended mean deviates from the benign-only mean (the malicious
    # pull is present); Krum suppresses most of that deviation.
    assert by_name["mean"]["deviation_from_benign_mean"] > by_name["krum"]["deviation_from_benign_mean"]

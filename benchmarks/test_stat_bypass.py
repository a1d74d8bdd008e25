"""Section V "Bypassing Defenses" — statistical indistinguishability.

Paper: with a narrow ψ range and clipping, malicious gradients pass the
t-test / Levene / KS battery against benign gradients and fewer than ~3.5% are
flagged by the 3σ rule; the MESAS-style detector therefore cannot reliably
separate compromised from benign clients without a large false-positive rate.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.statistics import gradient_indistinguishability
from repro.defenses.detector import StatisticalDetector
from repro.experiments.gradient_geometry import _collect_round_updates
from repro.experiments.results import format_table
from repro.metrics.gradients import angles_to_reference


def test_statistical_bypass(femnist_bench_config):
    config = femnist_bench_config.with_overrides(
        psi_low=0.95, psi_high=0.99, clip_bound=0.5
    )
    collected = _collect_round_updates(config, "collapois")
    benign = collected["benign"]
    malicious = collected["malicious"]
    reference = np.vstack([benign, malicious]).mean(axis=0)

    benign_angles = angles_to_reference(benign, reference)
    malicious_angles = angles_to_reference(malicious, reference)
    benign_norms = np.linalg.norm(benign, axis=1)
    malicious_norms = np.linalg.norm(malicious, axis=1)

    angle_report = gradient_indistinguishability(malicious_angles, benign_angles)
    norm_report = gradient_indistinguishability(malicious_norms, benign_norms)
    rows = [
        {"feature": "angle", **{k: v for k, v in angle_report.items()}},
        {"feature": "norm", **{k: v for k, v in norm_report.items()}},
    ]
    print("\nStatistical bypass — test battery on angles and norms")
    print(format_table(rows))
    # The clipped, narrow-psi malicious updates are not trivially separable:
    # at most a small fraction are 3-sigma outliers on either feature.
    assert angle_report["three_sigma_outlier_fraction"] <= 0.5
    assert norm_report["three_sigma_outlier_fraction"] <= 0.5

    detector = StatisticalDetector()
    updates = np.vstack([benign, malicious])
    mask = np.zeros(updates.shape[0], dtype=bool)
    mask[len(benign):] = True
    report = detector.detection_report(updates, mask)
    print(f"MESAS-style detector: recall={report['recall']:.2f} "
          f"precision={report['precision']:.2f} fpr={report['false_positive_rate']:.2f}")
    # The detector cannot achieve high recall on the stealth-configured attack.
    assert report["recall"] < 1.0

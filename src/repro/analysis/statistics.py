"""Statistical tests used to probe whether malicious updates are detectable.

The paper reports (Section V, "Bypassing Defenses") that CollaPois's malicious
gradients are statistically indistinguishable from benign ones under a t-test
on angles/means, Levene's test on variances, a Kolmogorov–Smirnov test on the
gradient distributions, and the 3σ outlier rule.  This module wraps those four
tests around scipy and exposes a single summary helper used by both the
stealth diagnostics and the MESAS-style detector defense.

scipy is imported on a test's first call, not with this module.  The
detector defense imports this module, so every process that loads the
defense registry (the coordinator and each distributed worker) would
otherwise pay for ``scipy.stats`` at start-up, which takes longer than a
small run.
"""

from __future__ import annotations

import numpy as np


def two_sample_t_test(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Welch two-sample t-test; returns ``(statistic, p_value)``."""
    from scipy import stats

    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        return 0.0, 1.0
    result = stats.ttest_ind(a, b, equal_var=False)
    return float(result.statistic), float(result.pvalue)


def levene_test(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Levene's test for equality of variances; returns ``(statistic, p_value)``."""
    from scipy import stats

    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        return 0.0, 1.0
    result = stats.levene(a, b)
    return float(result.statistic), float(result.pvalue)


def ks_test(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Two-sample Kolmogorov–Smirnov test; returns ``(statistic, p_value)``."""
    from scipy import stats

    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 1 or b.size < 1:
        return 0.0, 1.0
    result = stats.ks_2samp(a, b)
    return float(result.statistic), float(result.pvalue)


def three_sigma_outliers(values: np.ndarray, reference: np.ndarray | None = None) -> np.ndarray:
    """Boolean mask of values outside the 3σ band of the reference population."""
    values = np.asarray(values, dtype=np.float64)
    reference = values if reference is None else np.asarray(reference, dtype=np.float64)
    if reference.size == 0:
        return np.zeros(values.shape, dtype=bool)
    mean = reference.mean()
    std = reference.std()
    if std == 0.0:
        return np.abs(values - mean) > 0.0
    return np.abs(values - mean) > 3.0 * std


def gradient_indistinguishability(
    malicious_stats: np.ndarray,
    benign_stats: np.ndarray,
    significance: float = 0.05,
) -> dict[str, float | bool]:
    """Run the paper's full test battery on scalar per-update statistics.

    ``malicious_stats`` / ``benign_stats`` are 1-D arrays of a per-update
    scalar (an angle or a norm).  Returns each test's p-value, whether the
    malicious group is distinguishable at the given significance level, and
    the fraction of malicious updates flagged by the 3σ rule.
    """
    _, t_p = two_sample_t_test(malicious_stats, benign_stats)
    _, levene_p = levene_test(malicious_stats, benign_stats)
    _, ks_p = ks_test(malicious_stats, benign_stats)
    outlier_fraction = float(
        np.mean(three_sigma_outliers(malicious_stats, reference=benign_stats))
    ) if np.asarray(malicious_stats).size else 0.0
    distinguishable = bool(
        (t_p < significance) or (levene_p < significance) or (ks_p < significance)
    )
    return {
        "t_test_p": t_p,
        "levene_p": levene_p,
        "ks_p": ks_p,
        "three_sigma_outlier_fraction": outlier_fraction,
        "distinguishable": distinguishable,
    }

"""Unit tests for the statistical-test battery."""

from __future__ import annotations

import numpy as np

from repro.analysis.statistics import (
    gradient_indistinguishability,
    ks_test,
    levene_test,
    three_sigma_outliers,
    two_sample_t_test,
)


class TestIndividualTests:
    def test_t_test_detects_mean_shift(self, rng):
        a = rng.normal(0.0, 1.0, size=200)
        b = rng.normal(3.0, 1.0, size=200)
        _, p = two_sample_t_test(a, b)
        assert p < 0.01

    def test_t_test_same_distribution_not_significant(self, rng):
        a = rng.normal(0.0, 1.0, size=200)
        b = rng.normal(0.0, 1.0, size=200)
        _, p = two_sample_t_test(a, b)
        assert p > 0.01

    def test_levene_detects_variance_shift(self, rng):
        a = rng.normal(0.0, 1.0, size=300)
        b = rng.normal(0.0, 5.0, size=300)
        _, p = levene_test(a, b)
        assert p < 0.01

    def test_ks_detects_distribution_shift(self, rng):
        a = rng.normal(0.0, 1.0, size=300)
        b = rng.exponential(1.0, size=300)
        _, p = ks_test(a, b)
        assert p < 0.01

    def test_tiny_samples_return_neutral_pvalue(self):
        assert two_sample_t_test(np.array([1.0]), np.array([2.0]))[1] == 1.0
        assert levene_test(np.array([1.0]), np.array([2.0]))[1] == 1.0


class TestThreeSigma:
    def test_flags_extreme_value(self, rng):
        reference = rng.normal(0, 1, size=500)
        values = np.array([0.0, 10.0])
        flags = three_sigma_outliers(values, reference)
        assert not flags[0] and flags[1]

    def test_constant_reference(self):
        flags = three_sigma_outliers(np.array([1.0, 2.0]), np.array([1.0, 1.0, 1.0]))
        assert not flags[0] and flags[1]

    def test_empty_reference(self):
        flags = three_sigma_outliers(np.array([1.0]), np.zeros(0))
        assert not flags[0]


class TestIndistinguishability:
    def test_blended_malicious_stats_pass(self, rng):
        benign = rng.normal(0.5, 0.1, size=300)
        malicious = rng.normal(0.5, 0.1, size=40)
        report = gradient_indistinguishability(malicious, benign)
        assert not report["distinguishable"]
        assert report["three_sigma_outlier_fraction"] < 0.1

    def test_obvious_malicious_stats_fail(self, rng):
        benign = rng.normal(0.5, 0.1, size=300)
        malicious = rng.normal(3.0, 0.1, size=40)
        report = gradient_indistinguishability(malicious, benign)
        assert report["distinguishable"]
        assert report["three_sigma_outlier_fraction"] > 0.9

    def test_report_keys(self, rng):
        report = gradient_indistinguishability(rng.normal(size=20), rng.normal(size=20))
        assert {"t_test_p", "levene_p", "ks_p",
                "three_sigma_outlier_fraction", "distinguishable"} <= set(report)

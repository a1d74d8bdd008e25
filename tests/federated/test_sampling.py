"""Unit tests for uniform client sampling (the ``uniform`` model's core)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.federated.population.participation import uniform_sample


class TestUniformSample:
    def test_respects_minimum(self, rng):
        sampled = uniform_sample(50, sample_rate=0.01, rng=rng, min_clients=3)
        assert sampled.size >= 3

    def test_full_rate_samples_everyone(self, rng):
        sampled = uniform_sample(10, sample_rate=1.0, rng=rng)
        assert sampled.size == 10

    def test_ids_are_valid_and_unique(self, rng):
        sampled = uniform_sample(30, sample_rate=0.5, rng=rng)
        assert sampled.min() >= 0 and sampled.max() < 30
        assert len(np.unique(sampled)) == len(sampled)

    def test_expected_fraction_roughly_matches_rate(self):
        rng = np.random.default_rng(0)
        totals = [
            uniform_sample(200, 0.3, rng, min_clients=1).size for _ in range(50)
        ]
        assert 40 < np.mean(totals) < 80

    def test_invalid_arguments(self, rng):
        with pytest.raises(ValueError):
            uniform_sample(0, 0.5, rng)
        with pytest.raises(ValueError):
            uniform_sample(10, 0.0, rng)
        with pytest.raises(ValueError):
            uniform_sample(10, 1.5, rng)

    def test_min_clients_larger_than_population(self, rng):
        sampled = uniform_sample(3, 0.1, rng, min_clients=10)
        assert sampled.size == 3

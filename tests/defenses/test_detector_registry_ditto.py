"""Unit tests for the statistical detector, defense registry, and Ditto."""

from __future__ import annotations

import numpy as np
import pytest

from repro.defenses.base import AggregationContext, Aggregator
from repro.defenses.detector import StatisticalDetector
from repro.defenses.ditto import DittoPersonalizer
from repro.nn.serialization import flatten_params
from repro.registry import DEFENSES


class TestStatisticalDetector:
    def test_requires_at_least_one_feature(self):
        with pytest.raises(ValueError):
            StatisticalDetector(use_norm=False, use_angle=False)

    def test_flags_obvious_norm_outlier(self, rng):
        benign = rng.normal(0, 0.1, size=(30, 20))
        attacker = rng.normal(0, 0.1, size=20) * 500
        updates = np.vstack([benign, attacker])
        flags = StatisticalDetector().flag_updates(updates)
        assert flags[-1]
        assert flags[:-1].sum() <= 2

    def test_blended_update_is_not_flagged(self, rng):
        benign = rng.normal(0, 0.1, size=(30, 20))
        stealthy = benign.mean(axis=0) + rng.normal(0, 0.1, size=20)
        updates = np.vstack([benign, stealthy])
        flags = StatisticalDetector().flag_updates(updates)
        assert not flags[-1]

    def test_aggregate_drops_flagged_updates(self, rng):
        benign = rng.normal(0, 0.1, size=(20, 10))
        attacker = np.full(10, 100.0)
        updates = np.vstack([benign, attacker])
        out = StatisticalDetector()(updates, np.zeros(10), AggregationContext(rng=rng))
        assert np.linalg.norm(out - benign.mean(axis=0)) < 1.0

    def test_all_flagged_falls_back_to_median(self, rng):
        # Two wildly different updates: flagging logic may flag none or all;
        # the aggregate must still be finite and well-defined.
        updates = np.stack([np.full(5, 1000.0), np.full(5, -1000.0)])
        out = StatisticalDetector()(updates, np.zeros(5), AggregationContext(rng=rng))
        assert np.all(np.isfinite(out))

    def test_detection_report_metrics(self, rng):
        benign = rng.normal(0, 0.1, size=(30, 20))
        attacker = rng.normal(0, 0.1, size=20) * 500
        updates = np.vstack([benign, attacker])
        mask = np.zeros(31, dtype=bool)
        mask[-1] = True
        report = StatisticalDetector().detection_report(updates, mask)
        assert report["recall"] == pytest.approx(1.0)
        assert 0.0 <= report["false_positive_rate"] <= 1.0


class TestRegistry:
    def test_all_known_defenses_available(self):
        names = DEFENSES.names()
        for expected in ("mean", "krum", "median", "trimmed_mean", "norm_bound",
                         "dp", "rlr", "signsgd", "flare", "crfl", "detector"):
            assert expected in names

    def test_make_defense_returns_aggregator(self):
        for name in DEFENSES.names():
            assert isinstance(DEFENSES.create(name), Aggregator)

    def test_make_defense_forwards_kwargs(self):
        krum = DEFENSES.create("krum", num_malicious=3, multi=2)
        assert krum.num_malicious == 3 and krum.multi == 2

    def test_unknown_defense_raises(self):
        with pytest.raises(ValueError):
            DEFENSES.create("does-not-exist")


class TestDitto:
    def test_personalize_moves_toward_local_data(self, image_model_factory, small_federation, rng):
        model = image_model_factory()
        global_params = flatten_params(image_model_factory())
        ditto = DittoPersonalizer(epochs=2, lr=0.05, proximal_mu=0.1, batch_size=8)
        personal = ditto.personalize(model, global_params, small_federation.client(0).train, rng)
        assert personal.shape == global_params.shape
        assert not np.allclose(personal, global_params)

    def test_invalid_epochs(self):
        with pytest.raises(ValueError):
            DittoPersonalizer(epochs=0)

"""Unit tests for the robust-aggregation defenses."""

from __future__ import annotations

import numpy as np
import pytest

import repro.defenses  # noqa: F401 - populate the defense registry
from repro.defenses.base import AggregationContext, Aggregator, MeanAggregator, clip_to_norm
from repro.defenses.crfl import CRFL
from repro.defenses.dp import DPAggregator
from repro.defenses.flare import FLARE
from repro.defenses.krum import Krum
from repro.defenses.median import CoordinateMedian
from repro.defenses.norm_bound import NormBound
from repro.defenses.rlr import RobustLearningRate
from repro.defenses.signsgd import SignSGDAggregator
from repro.defenses.trimmed_mean import TrimmedMean
from repro.defenses.weighted_mean import WeightedMeanAggregator
from repro.federated.engine.plan import ClientUpdate
from repro.registry import DEFENSES


@pytest.fixture()
def benign_updates(rng):
    """A cluster of similar benign updates."""
    base = rng.normal(size=40)
    return np.stack([base + rng.normal(0, 0.1, size=40) for _ in range(6)])


@pytest.fixture()
def outlier_update(rng):
    return rng.normal(size=40) * 50.0


GLOBAL = np.zeros(40)


def _ctx():
    return AggregationContext(rng=np.random.default_rng(0))


class TestMeanAggregator:
    def test_matches_numpy_mean(self, benign_updates):
        out = MeanAggregator()(benign_updates, GLOBAL, _ctx())
        np.testing.assert_allclose(out, benign_updates.mean(axis=0))

    def test_rejects_empty_round(self):
        with pytest.raises(ValueError):
            MeanAggregator()(np.zeros((0, 4)), np.zeros(4), _ctx())

    def test_rejects_1d_input(self):
        with pytest.raises(ValueError):
            MeanAggregator()(np.zeros(4), np.zeros(4), _ctx())


class TestKrum:
    def test_selects_central_update_over_outlier(self, benign_updates, outlier_update):
        updates = np.vstack([benign_updates, outlier_update])
        out = Krum(num_malicious=1, multi=1)(updates, GLOBAL, _ctx())
        distances_to_benign = np.linalg.norm(benign_updates - out, axis=1)
        assert distances_to_benign.min() < np.linalg.norm(outlier_update - out)

    def test_multi_krum_averages_selected(self, benign_updates):
        out = Krum(num_malicious=0, multi=len(benign_updates))(benign_updates, GLOBAL, _ctx())
        np.testing.assert_allclose(out, benign_updates.mean(axis=0), atol=1e-12)

    def test_single_update_returned_unchanged(self, rng):
        update = rng.normal(size=(1, 10))
        np.testing.assert_allclose(Krum()(update, np.zeros(10), _ctx()), update[0])

    def test_scores_lower_for_central_points(self, benign_updates, outlier_update):
        updates = np.vstack([benign_updates, outlier_update])
        scores = Krum(num_malicious=1).scores(updates)
        assert scores[-1] > scores[:-1].max()

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            Krum(num_malicious=-1)
        with pytest.raises(ValueError):
            Krum(multi=0)


class TestMedianAndTrimmedMean:
    def test_median_ignores_single_outlier(self, benign_updates, outlier_update):
        updates = np.vstack([benign_updates, outlier_update])
        out = CoordinateMedian()(updates, GLOBAL, _ctx())
        assert np.linalg.norm(out - benign_updates.mean(axis=0)) < 1.0

    def test_trimmed_mean_removes_extremes(self):
        updates = np.array([[0.0], [1.0], [2.0], [3.0], [100.0]])
        out = TrimmedMean(trim_fraction=0.2)(updates, np.zeros(1), _ctx())
        assert out[0] == pytest.approx(2.0)

    def test_trimmed_mean_falls_back_to_mean_when_trim_zero(self, benign_updates):
        out = TrimmedMean(trim_fraction=0.0)(benign_updates, GLOBAL, _ctx())
        np.testing.assert_allclose(out, benign_updates.mean(axis=0))

    def test_trimmed_mean_invalid_fraction(self):
        with pytest.raises(ValueError):
            TrimmedMean(trim_fraction=0.5)


class TestNormBoundAndDP:
    def test_norm_bound_clips_large_updates(self, benign_updates, outlier_update):
        updates = np.vstack([benign_updates, outlier_update])
        bounded = NormBound(max_norm=1.0)(updates, GLOBAL, _ctx())
        unbounded = MeanAggregator()(updates, GLOBAL, _ctx())
        assert np.linalg.norm(bounded) < np.linalg.norm(unbounded)

    def test_norm_bound_keeps_small_updates_exact(self, rng):
        updates = rng.normal(size=(4, 10)) * 1e-3
        out = NormBound(max_norm=10.0)(updates, np.zeros(10), _ctx())
        np.testing.assert_allclose(out, updates.mean(axis=0))

    def test_dp_adds_noise(self, benign_updates):
        clean = DPAggregator(clip_norm=10.0, noise_multiplier=0.0)(benign_updates, GLOBAL, _ctx())
        noisy = DPAggregator(clip_norm=10.0, noise_multiplier=1.0)(benign_updates, GLOBAL, _ctx())
        assert not np.allclose(clean, noisy)

    def test_dp_clipping_bounds_each_contribution(self, outlier_update):
        updates = np.stack([outlier_update, outlier_update])
        out = DPAggregator(clip_norm=1.0, noise_multiplier=0.0)(updates, GLOBAL, _ctx())
        assert np.linalg.norm(out) <= 1.0 + 1e-9

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            NormBound(max_norm=0.0)
        with pytest.raises(ValueError):
            DPAggregator(clip_norm=-1.0)
        with pytest.raises(ValueError):
            DPAggregator(noise_multiplier=-0.1)


class TestRLR:
    def test_flips_coordinates_without_agreement(self):
        # Three clients agree on coordinate 0, disagree on coordinate 1.
        updates = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 1.0], [1.0, -1.0]])
        out = RobustLearningRate(threshold=3)(updates, np.zeros(2), _ctx())
        mean = updates.mean(axis=0)
        assert out[0] == pytest.approx(mean[0])
        assert out[1] == pytest.approx(-mean[1])

    def test_full_agreement_is_plain_mean(self, benign_updates):
        positive = np.abs(benign_updates)
        out = RobustLearningRate(threshold_fraction=0.9)(positive, GLOBAL, _ctx())
        np.testing.assert_allclose(out, positive.mean(axis=0))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            RobustLearningRate(threshold=0)
        with pytest.raises(ValueError):
            RobustLearningRate(threshold_fraction=0.0)


class TestSignSGD:
    def test_output_is_sign_vote_scaled(self):
        updates = np.array([[1.0, -2.0], [3.0, -1.0], [-0.5, -4.0]])
        out = SignSGDAggregator(step_size=0.1)(updates, np.zeros(2), _ctx())
        np.testing.assert_allclose(out, [0.1, -0.1])

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            SignSGDAggregator(step_size=0.0)


class TestWeightedMean:
    def _stream_weighted(self, updates, weights, ctx=None):
        agg = WeightedMeanAggregator()
        state = agg.begin_round(ctx or _ctx())
        for slot, weight in enumerate(weights):
            agg.accumulate(
                state,
                ClientUpdate(
                    client_id=slot, slot=slot, update=updates[slot],
                    num_examples=weight,
                ),
            )
        return agg.finalize(state, GLOBAL, ctx)

    def test_weights_by_example_count(self, benign_updates):
        weights = [3, 1, 4, 1, 5, 9]
        out = self._stream_weighted(benign_updates, weights)
        expected = (
            np.sum([w * u for w, u in zip(weights, benign_updates, strict=True)], axis=0)
            / sum(weights)
        )
        np.testing.assert_allclose(out, expected)

    def test_uniform_weights_match_mean(self, benign_updates):
        out = self._stream_weighted(benign_updates, [7] * len(benign_updates))
        np.testing.assert_allclose(out, benign_updates.mean(axis=0))

    def test_unknown_example_counts_degrade_to_uniform(self, benign_updates):
        # num_examples == 0 means "unknown" and contributes weight 1.0.
        known = self._stream_weighted(benign_updates, [1] * len(benign_updates))
        unknown = self._stream_weighted(benign_updates, [0] * len(benign_updates))
        np.testing.assert_array_equal(unknown, known)

    def test_matrix_path_raises(self, benign_updates):
        with pytest.raises(ValueError, match="no matrix path"):
            WeightedMeanAggregator()(benign_updates, GLOBAL, _ctx())

    def test_registered_as_shardable(self):
        agg = DEFENSES.create("weighted_mean")
        assert isinstance(agg, WeightedMeanAggregator)
        assert agg.shardable


class TestFLARE:
    def test_trust_scores_sum_to_one(self, benign_updates):
        weights = FLARE().trust_scores(benign_updates)
        assert weights.sum() == pytest.approx(1.0)

    def test_outlier_gets_least_trust(self, benign_updates, outlier_update):
        updates = np.vstack([benign_updates, outlier_update])
        weights = FLARE().trust_scores(updates)
        assert weights[-1] == weights.min()

    def test_aggregate_downweights_outlier(self, benign_updates, outlier_update):
        updates = np.vstack([benign_updates, outlier_update])
        flare_out = FLARE()(updates, GLOBAL, _ctx())
        mean_out = MeanAggregator()(updates, GLOBAL, _ctx())
        benign_mean = benign_updates.mean(axis=0)
        assert np.linalg.norm(flare_out - benign_mean) < np.linalg.norm(mean_out - benign_mean)

    def test_invalid_temperature(self):
        with pytest.raises(ValueError):
            FLARE(temperature=0.0)


class TestCRFL:
    def test_clips_resulting_model_norm(self, rng):
        updates = rng.normal(size=(3, 20)) * 100
        global_params = rng.normal(size=20) * 100
        out = CRFL(param_clip=1.0, noise_std=0.0)(updates, global_params, _ctx())
        assert np.linalg.norm(global_params + out) <= 1.0 + 1e-9

    def test_noise_perturbs_model(self, benign_updates):
        a = CRFL(param_clip=100.0, noise_std=0.0)(benign_updates, GLOBAL, _ctx())
        b = CRFL(param_clip=100.0, noise_std=0.1)(benign_updates, GLOBAL, _ctx())
        assert not np.allclose(a, b)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            CRFL(param_clip=0.0)
        with pytest.raises(ValueError):
            CRFL(noise_std=-1.0)


class TestLegacyGeneratorShim:
    def test_bare_generator_call_is_rejected(self, benign_updates):
        with pytest.raises(TypeError, match=r"AggregationContext\(rng=rng\)"):
            MeanAggregator()(benign_updates, GLOBAL, np.random.default_rng(0))


def _stream(aggregator, updates, global_params, ctx, order=None):
    """Push a matrix through the streaming protocol in the given slot order."""
    state = aggregator.begin_round(ctx)
    for slot in order if order is not None else range(updates.shape[0]):
        aggregator.accumulate(
            state,
            ClientUpdate(client_id=100 + slot, slot=slot, update=updates[slot]),
        )
    return aggregator.finalize(state, global_params, ctx)


class TestStreamingProtocol:
    """Every registered defense must round-trip the streaming protocol
    bit-identically to its matrix ``aggregate`` — with no per-defense code
    beyond the opt-in streaming implementations."""

    SHARDABLE = {"mean", "weighted_mean", "norm_bound", "dp", "signsgd"}

    def test_shardable_flags(self):
        # These folds are all elementwise given their prepare_update
        # precompute, so each one supports the sharded worker-pool fold.
        shardable = {
            name for name in DEFENSES.names() if DEFENSES.create(name).shardable
        }
        assert shardable == self.SHARDABLE

    # weighted_mean has no matrix path (example counts only travel on
    # ClientUpdate); its streaming equivalences are pinned separately below.
    @pytest.mark.parametrize(
        "name", sorted(set(DEFENSES.names()) - {"weighted_mean"})
    )
    def test_matches_matrix_path_bitwise(self, name, rng):
        updates = rng.normal(size=(7, 24))
        global_params = rng.normal(size=24)
        matrix = DEFENSES.create(name)(updates, global_params, _ctx())
        streamed = _stream(DEFENSES.create(name), updates, global_params, _ctx())
        np.testing.assert_array_equal(streamed, matrix)

    @pytest.mark.parametrize("name", sorted(DEFENSES.names()))
    def test_out_of_order_accumulation_is_reordered(self, name, rng):
        updates = rng.normal(size=(6, 16))
        global_params = rng.normal(size=16)
        in_order = _stream(DEFENSES.create(name), updates, global_params, _ctx())
        shuffled = _stream(
            DEFENSES.create(name), updates, global_params, _ctx(),
            order=[5, 2, 0, 4, 1, 3],
        )
        np.testing.assert_array_equal(shuffled, in_order)

    def test_streaming_defenses_keep_o_param_dim_state(self, rng):
        # In-order accumulation must fold immediately: nothing pending, and
        # the running state is one vector, not a growing buffer.
        updates = rng.normal(size=(5, 8))
        agg = MeanAggregator()
        state = agg.begin_round(_ctx())
        for slot in range(5):
            agg.accumulate(state, ClientUpdate(client_id=slot, slot=slot, update=updates[slot]))
            assert not state.pending
            assert isinstance(state.data, np.ndarray) and state.data.shape == (8,)
        assert state.count == 5

    def test_duplicate_slot_rejected(self, rng):
        agg = MeanAggregator()
        state = agg.begin_round(_ctx())
        agg.accumulate(state, ClientUpdate(client_id=0, slot=0, update=np.ones(4)))
        with pytest.raises(ValueError, match="duplicate"):
            agg.accumulate(state, ClientUpdate(client_id=1, slot=0, update=np.ones(4)))

    def test_finalize_with_missing_slot_rejected(self):
        agg = MeanAggregator()
        state = agg.begin_round(_ctx())
        agg.accumulate(state, ClientUpdate(client_id=2, slot=2, update=np.ones(4)))
        with pytest.raises(ValueError, match="never arrived"):
            agg.finalize(state, np.zeros(4))

    def test_finalize_error_lists_every_gap(self):
        agg = MeanAggregator()
        state = agg.begin_round(_ctx())
        for slot in (1, 3):
            agg.accumulate(state, ClientUpdate(client_id=slot, slot=slot, update=np.ones(4)))
        with pytest.raises(ValueError, match=r"\[0, 2\] never arrived"):
            agg.finalize(state, np.zeros(4))

    def test_finalize_with_missing_trailing_slots_rejected(self):
        # A dropped highest slot leaves nothing pending; the check needs the
        # round size, which the server's context always carries.
        ctx = AggregationContext(
            rng=np.random.default_rng(0), round_idx=0, sampled_clients=(10, 11, 12)
        )
        agg = MeanAggregator()
        state = agg.begin_round(ctx)
        for slot in (0, 1):
            agg.accumulate(state, ClientUpdate(client_id=10 + slot, slot=slot, update=np.ones(4)))
        with pytest.raises(ValueError, match="only 2 updates"):
            agg.finalize(state, np.zeros(4))

    def test_finalize_empty_round_rejected(self):
        agg = MeanAggregator()
        with pytest.raises(ValueError, match="empty round"):
            agg.finalize(agg.begin_round(_ctx()), np.zeros(4))

    def test_noise_consumption_matches_matrix_path(self, benign_updates):
        # Defenses drawing rng noise must consume the stream identically in
        # both protocols, or seeded runs would diverge by path.
        for factory in (
            lambda: NormBound(max_norm=0.5, noise_std=0.3),
            lambda: DPAggregator(clip_norm=0.5, noise_multiplier=0.7),
        ):
            matrix = factory()(benign_updates, GLOBAL, _ctx())
            streamed = _stream(factory(), benign_updates, GLOBAL, _ctx())
            np.testing.assert_array_equal(streamed, matrix)


class TestClipToNorm:
    def test_matches_matrix_clipping_bitwise(self, rng):
        updates = rng.normal(size=(9, 33)) * rng.uniform(0.1, 40.0, size=(9, 1))
        max_norm = 2.5
        norms = np.linalg.norm(updates, axis=1, keepdims=True)
        matrix = updates * np.minimum(1.0, max_norm / np.clip(norms, 1e-12, None))
        for i in range(updates.shape[0]):
            np.testing.assert_array_equal(clip_to_norm(updates[i], max_norm), matrix[i])

    def test_zero_vector_is_safe(self):
        np.testing.assert_array_equal(clip_to_norm(np.zeros(5), 1.0), np.zeros(5))

    def test_small_updates_unchanged_in_value(self, rng):
        v = rng.normal(size=12) * 1e-3
        np.testing.assert_array_equal(clip_to_norm(v, 10.0), v * np.minimum(1.0, 10.0 / np.linalg.norm(v[None, :], axis=1)))


class TestBaseAggregator:
    def test_matrix_protocol_requires_implementation(self):
        with pytest.raises(NotImplementedError):
            Aggregator()(np.ones((2, 3)), np.zeros(3), _ctx())

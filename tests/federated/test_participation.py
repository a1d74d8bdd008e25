"""Participation models: server-stream stability, churn/tier determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.federated.algorithms.fedavg import FedAvg
from repro.federated.client import LocalTrainingConfig
from repro.federated.population.participation import (
    ChurnParticipation,
    ParticipationContext,
    TieredParticipation,
    UniformParticipation,
    uniform_sample,
)
from repro.federated.server import FederatedServer, ServerConfig
from repro.registry import PARTICIPATION


def _ctx(num_clients=100, seed=7, round_idx=0, rng_seed=0):
    return ParticipationContext(
        num_clients=num_clients,
        seed=seed,
        round_idx=round_idx,
        rng=np.random.default_rng(rng_seed),
    )


class TestServerStreamStability:
    """Pins ``uniform_sample``'s exact RNG consumption.

    Every pre-participation-API seeded history depends on the server stream
    advancing by exactly one ``random(num_clients)`` draw per round, plus a
    conditional ``choice`` top-up only when the floor is unmet.  If either
    canary below moves, a refactor changed the consumption pattern — and
    with it every existing seeded history.  Do not update the expected
    values without accepting that break deliberately.
    """

    def test_no_floor_canary(self):
        rng = np.random.default_rng(123)
        sampled = uniform_sample(20, 0.4, rng, min_clients=2)
        np.testing.assert_array_equal(sampled, [1, 2, 3, 4, 7, 11, 13, 17])
        assert int(rng.integers(0, 1_000_000)) == 794151

    def test_floor_topup_canary(self):
        # sample_rate tiny: the conditional choice() top-up path runs, and
        # consumes its own slice of the stream.
        rng = np.random.default_rng(123)
        sampled = uniform_sample(20, 0.01, rng, min_clients=3)
        np.testing.assert_array_equal(sampled, [4, 14, 19])
        assert int(rng.integers(0, 1_000_000)) == 497788

    def test_topup_is_conditional(self):
        # Same seed, floor met vs unmet: the post-sampling stream position
        # differs, proving the top-up draw only happens when needed.
        a = np.random.default_rng(123)
        b = np.random.default_rng(123)
        uniform_sample(20, 0.4, a, min_clients=2)   # floor met: one draw
        uniform_sample(20, 0.01, b, min_clients=3)  # floor unmet: two draws
        assert int(a.integers(0, 10**9)) != int(b.integers(0, 10**9))


class TestUniformParticipation:
    def test_matches_uniform_sample_and_consumes_server_rng(self):
        model = UniformParticipation(sample_rate=0.3, min_clients=2)
        ctx = _ctx(rng_seed=42)
        direct = uniform_sample(100, 0.3, np.random.default_rng(42), min_clients=2)
        result = model.sample_round(ctx)
        np.testing.assert_array_equal(result.sampled, direct)
        assert result.latencies == ()

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            UniformParticipation(sample_rate=0.0)
        with pytest.raises(ValueError):
            UniformParticipation(min_clients=0)


class TestChurnParticipation:
    def test_deterministic_and_server_rng_untouched(self):
        model = ChurnParticipation(sample_rate=0.2, availability=0.7)
        a = model.sample_round(_ctx(rng_seed=1))
        b = ChurnParticipation(sample_rate=0.2, availability=0.7).sample_round(
            _ctx(rng_seed=2)
        )
        # Identical cohorts despite different server RNGs: churn never reads
        # the server stream.
        np.testing.assert_array_equal(a.sampled, b.sampled)
        ctx = _ctx(rng_seed=1)
        model.sample_round(ctx)
        np.testing.assert_array_equal(
            ctx.rng.random(4), np.random.default_rng(1).random(4)
        )

    def test_sessions_change_availability(self):
        model = ChurnParticipation(
            sample_rate=1.0, availability=0.5, session_length=2, min_clients=1
        )
        pools = [
            set(model.available_clients(_ctx(round_idx=r)).tolist())
            for r in range(4)
        ]
        assert pools[0] == pools[1]  # same session
        assert pools[1] != pools[2]  # session boundary re-draws

    def test_permanent_dropout_shrinks_population(self):
        model = ChurnParticipation(
            sample_rate=1.0, availability=1.0, dropout_rate=0.3, min_clients=1
        )
        early = model.available_clients(_ctx(round_idx=0)).size
        late = model.available_clients(_ctx(round_idx=10)).size
        assert late < early
        # Dropout is permanent: a client gone in round t stays gone.
        gone = set(range(100)) - set(model.available_clients(_ctx(round_idx=5)).tolist())
        later = set(model.available_clients(_ctx(round_idx=9)).tolist())
        assert gone.isdisjoint(later)

    def test_empty_pool_raises(self):
        model = ChurnParticipation(availability=0.01, dropout_rate=0.9)
        with pytest.raises(RuntimeError, match="no clients available"):
            model.sample_round(_ctx(num_clients=3, round_idx=40))

    def test_min_floor_over_available_pool(self):
        model = ChurnParticipation(
            sample_rate=0.001, availability=0.5, min_clients=5
        )
        result = model.sample_round(_ctx())
        available = set(model.available_clients(_ctx()).tolist())
        assert result.sampled.size >= min(5, len(available))
        assert set(result.sampled.tolist()) <= available


class TestTieredParticipation:
    def test_latencies_align_with_cohort(self):
        model = TieredParticipation(sample_rate=0.3)
        result = model.sample_round(_ctx())
        assert len(result.latencies) == result.sampled.size
        assert all(lat > 0 for lat in result.latencies)

    def test_latency_depends_only_on_seed_round_cid(self):
        # A client's latency must not depend on who else got sampled — that
        # is what makes arrival order backend-independent.
        wide = TieredParticipation(sample_rate=1.0, min_clients=1)
        narrow = TieredParticipation(sample_rate=0.2, min_clients=1)
        all_of = dict(
            zip(
                wide.sample_round(_ctx()).sampled.tolist(),
                wide.sample_round(_ctx()).latencies,
                strict=True,
            )
        )
        few = narrow.sample_round(_ctx())
        for cid, lat in zip(few.sampled.tolist(), few.latencies, strict=True):
            assert lat == all_of[cid]

    def test_tiers_are_run_constant(self):
        model = TieredParticipation()
        t0 = model._tier_of(_ctx(round_idx=0))
        t5 = model._tier_of(_ctx(round_idx=5))
        np.testing.assert_array_equal(t0, t5)

    def test_weights_skew_tier_mixture(self):
        slow_heavy = TieredParticipation(
            speeds=(1.0, 10.0), weights=(0.05, 0.95), jitter=0.0, sample_rate=1.0,
            min_clients=1,
        )
        result = slow_heavy.sample_round(_ctx(num_clients=400))
        slow = sum(1 for lat in result.latencies if lat > 5.0)
        assert slow > len(result.latencies) * 0.8

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            TieredParticipation(speeds=())
        with pytest.raises(ValueError):
            TieredParticipation(speeds=(1.0, -2.0))
        with pytest.raises(ValueError):
            TieredParticipation(speeds=(1.0, 2.0), weights=(1.0,))
        with pytest.raises(ValueError):
            TieredParticipation(jitter=-0.1)


class TestRegistryFamily:
    def test_models_are_registered(self):
        assert set(PARTICIPATION.names()) >= {"uniform", "churn", "tiered"}

    def test_spec_grammar_builds_models(self):
        model = PARTICIPATION.create("tiered:sample_rate=0.5,jitter=0.1")
        assert isinstance(model, TieredParticipation)
        assert model.sample_rate == 0.5 and model.jitter == 0.1


class TestServerIntegration:
    """Participation models plugged into the server round loop."""

    def test_injected_model_instance_wins(self, small_federation, image_model_factory):
        class FixedCohort(UniformParticipation):
            def sample_round(self, ctx):
                from repro.federated.population.participation import (
                    ParticipationRound,
                )

                return ParticipationRound(sampled=np.array([1, 4], dtype=np.int64))

        config = ServerConfig(
            rounds=1, seed=2,
            local=LocalTrainingConfig(epochs=1, batch_size=8, lr=0.05),
        )
        server = FederatedServer(
            small_federation, image_model_factory, FedAvg(), config,
            participation=FixedCohort(),
        )
        record = server.run_round()
        assert record.sampled_clients == [1, 4]

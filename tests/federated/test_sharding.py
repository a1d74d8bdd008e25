"""Tests for sharded aggregation.

The acceptance bar: for the same seed, ``num_shards=N`` produces
*bit-identical* global parameters and ``TrainingHistory`` to
``num_shards=1`` — including when updates arrive out of slot order — for
shard-capable defenses, while non-shardable defenses (krum) fall back
cleanly to the single-fold path.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.defenses  # noqa: F401 - populate the defense registry
from repro.defenses.base import AggregationContext, MeanAggregator
from repro.defenses.krum import Krum
from repro.federated.algorithms.fedavg import FedAvg
from repro.federated.client import LocalTrainingConfig
from repro.federated.engine.plan import ClientUpdate
from repro.federated.engine.sharding import ShardedAggregator, maybe_shard, plan_shards
from repro.federated.server import FederatedServer, ServerConfig
from repro.registry import DEFENSES


class TestPlanShards:
    def test_covers_dim_contiguously(self):
        slices = plan_shards(103, 4)
        assert slices[0].start == 0
        assert slices[-1].stop == 103
        for prev, nxt in zip(slices, slices[1:], strict=False):
            assert prev.stop == nxt.start

    def test_sizes_differ_by_at_most_one(self):
        sizes = [s.stop - s.start for s in plan_shards(103, 4)]
        assert len(sizes) == 4
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 103

    def test_never_more_shards_than_params(self):
        assert len(plan_shards(3, 8)) == 3

    def test_single_shard_is_whole_vector(self):
        assert plan_shards(10, 1) == (slice(0, 10),)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            plan_shards(0, 2)
        with pytest.raises(ValueError):
            plan_shards(10, 0)


def _stream(aggregator, updates, global_params, order=None, weights=None):
    ctx = AggregationContext(rng=np.random.default_rng(9))
    state = aggregator.begin_round(ctx)
    for slot in order if order is not None else range(updates.shape[0]):
        aggregator.accumulate(
            state,
            ClientUpdate(
                client_id=100 + slot,
                slot=slot,
                update=updates[slot],
                num_examples=weights[slot] if weights is not None else 0,
            ),
        )
    return aggregator.finalize(state, global_params, ctx)


SHARDABLE = ["mean", "weighted_mean", "norm_bound", "dp", "signsgd"]


class TestShardedAggregator:
    @pytest.mark.parametrize("name", SHARDABLE)
    @pytest.mark.parametrize("num_shards", [2, 4, 7])
    def test_bit_identical_to_single_fold(self, name, num_shards, rng):
        updates = rng.normal(size=(6, 53)) * rng.uniform(0.1, 30.0, size=(6, 1))
        global_params = rng.normal(size=53)
        weights = [3, 1, 4, 1, 5, 9]
        plain = _stream(DEFENSES.create(name), updates, global_params, weights=weights)
        sharded = ShardedAggregator(DEFENSES.create(name), num_shards)
        try:
            out = _stream(sharded, updates, global_params, weights=weights)
        finally:
            sharded.close()
        np.testing.assert_array_equal(out, plain)

    @pytest.mark.parametrize("name", SHARDABLE)
    def test_out_of_order_accumulation_is_reordered(self, name, rng):
        updates = rng.normal(size=(6, 40))
        global_params = rng.normal(size=40)
        sharded = ShardedAggregator(DEFENSES.create(name), 3)
        try:
            shuffled = _stream(
                sharded, updates, global_params, order=[5, 2, 0, 4, 1, 3]
            )
        finally:
            sharded.close()
        plain = _stream(DEFENSES.create(name), updates, global_params)
        np.testing.assert_array_equal(shuffled, plain)

    def test_more_shards_than_params_still_exact(self, rng):
        updates = rng.normal(size=(4, 3))
        sharded = ShardedAggregator(MeanAggregator(), 16)
        try:
            out = _stream(sharded, updates, np.zeros(3))
        finally:
            sharded.close()
        np.testing.assert_array_equal(out, _stream(MeanAggregator(), updates, np.zeros(3)))

    def test_consecutive_rounds_on_one_aggregator(self, rng):
        updates = rng.normal(size=(5, 24))
        sharded = ShardedAggregator(MeanAggregator(), 4)
        try:
            first = _stream(sharded, updates, np.zeros(24))
            second = _stream(sharded, updates, np.zeros(24))
        finally:
            sharded.close()
        np.testing.assert_array_equal(first, second)

    def test_concurrent_rounds_do_not_interfere(self, rng):
        # Round state lives on the AggregationState (like every aggregator),
        # so two in-flight rounds on one instance must both finalize exactly.
        updates_a = rng.normal(size=(4, 24))
        updates_b = rng.normal(size=(4, 24))
        sharded = ShardedAggregator(MeanAggregator(), 3)
        try:
            ctx_a = AggregationContext(rng=np.random.default_rng(1))
            ctx_b = AggregationContext(rng=np.random.default_rng(2))
            state_a = sharded.begin_round(ctx_a)
            state_b = sharded.begin_round(ctx_b)
            for slot in range(4):
                sharded.accumulate(
                    state_a,
                    ClientUpdate(client_id=slot, slot=slot, update=updates_a[slot]),
                )
                sharded.accumulate(
                    state_b,
                    ClientUpdate(client_id=slot, slot=slot, update=updates_b[slot]),
                )
            out_b = sharded.finalize(state_b, np.zeros(24), ctx_b)
            out_a = sharded.finalize(state_a, np.zeros(24), ctx_a)
        finally:
            sharded.close()
        np.testing.assert_array_equal(out_a, _stream(MeanAggregator(), updates_a, np.zeros(24)))
        np.testing.assert_array_equal(out_b, _stream(MeanAggregator(), updates_b, np.zeros(24)))

    def test_fold_error_surfaces_at_finalize_without_deadlock(self, rng):
        # Shard queues are bounded (backpressure); a worker whose fold raises
        # must keep draining to its sentinel so the coordinator never blocks,
        # and the error must surface at finalize.
        class Exploding(MeanAggregator):
            def fold_slice(self, acc, segment, aux):
                raise RuntimeError("boom")

        sharded = ShardedAggregator(Exploding(), 2)
        try:
            with pytest.raises(RuntimeError, match="boom"):
                _stream(sharded, rng.normal(size=(8, 16)), np.zeros(16))
        finally:
            sharded.close()

    def test_close_releases_abandoned_round(self, rng):
        # A round that errors out of the server loop is never finalized;
        # close() must still stop its workers promptly.
        sharded = ShardedAggregator(MeanAggregator(), 2)
        state = sharded.begin_round(AggregationContext(rng=np.random.default_rng(0)))
        sharded.accumulate(
            state, ClientUpdate(client_id=0, slot=0, update=rng.normal(size=8))
        )
        assert state.data is not None and state.data.threads
        sharded.close()
        for thread in state.data.threads:
            assert not thread.is_alive()

    def test_close_is_idempotent(self):
        sharded = ShardedAggregator(MeanAggregator(), 2)
        sharded.close()
        sharded.close()

    def test_rejects_non_shardable_defense(self):
        with pytest.raises(ValueError, match="not shardable"):
            ShardedAggregator(Krum(), 4)

    def test_rejects_double_wrap(self):
        with pytest.raises(ValueError, match="already-sharded"):
            ShardedAggregator(ShardedAggregator(MeanAggregator(), 2), 2)

    def test_maybe_shard_wraps_only_when_useful(self):
        mean = MeanAggregator()
        krum = Krum()
        assert maybe_shard(mean, 1) is mean
        assert maybe_shard(krum, 4) is krum  # single-fold fallback
        wrapped = maybe_shard(mean, 4)
        assert isinstance(wrapped, ShardedAggregator)
        assert maybe_shard(wrapped, 4) is wrapped
        wrapped.close()


def _make_server(
    federation,
    factory,
    backend,
    num_shards=1,
    aggregator=None,
    rounds=3,
):
    config = ServerConfig(
        rounds=rounds,
        participation="uniform:sample_rate=0.5",
        seed=2,
        num_shards=num_shards,
        local=LocalTrainingConfig(epochs=1, batch_size=8, lr=0.05),
    )
    return FederatedServer(
        federation,
        factory,
        FedAvg(),
        config,
        aggregator=aggregator,
        backend=backend,
    )


def _fingerprint(history):
    return [
        (
            r.round_idx,
            tuple(r.sampled_clients),
            tuple(r.compromised_sampled),
            r.mean_benign_loss,
            r.update_norm,
        )
        for r in history.records
    ]


class TestServerSharding:
    def test_config_rejects_non_positive_shards(self):
        with pytest.raises(ValueError, match="num_shards"):
            ServerConfig(num_shards=0)

    @pytest.mark.parametrize("reordered", [False, True], ids=["serial", "reordered"])
    @pytest.mark.parametrize(
        "make_aggregator",
        [MeanAggregator, lambda: DEFENSES.create("weighted_mean")],
        ids=["mean", "weighted_mean"],
    )
    def test_shards_match_unsharded(
        self, small_federation, image_model_factory, reordered_backend, reordered,
        make_aggregator,
    ):
        sharded = _make_server(
            small_federation, image_model_factory,
            reordered_backend if reordered else "serial",
            num_shards=4, aggregator=make_aggregator(),
        )
        plain = _make_server(
            small_federation, image_model_factory, "serial",
            num_shards=1, aggregator=make_aggregator(),
        )
        assert isinstance(sharded.aggregator, ShardedAggregator)
        sharded.run()
        plain.run()
        sharded.close()
        plain.close()
        assert reordered_backend.out_of_order == reordered
        np.testing.assert_array_equal(sharded.global_params, plain.global_params)
        assert _fingerprint(sharded.history) == _fingerprint(plain.history)

    def test_non_shardable_defense_falls_back_cleanly(
        self, small_federation, image_model_factory
    ):
        krum = Krum(num_malicious=1)
        sharded = _make_server(
            small_federation, image_model_factory, "serial",
            num_shards=4, aggregator=krum,
        )
        # The config asks for shards, but krum buffers: no wrapper installed.
        assert sharded.aggregator is krum
        plain = _make_server(
            small_federation, image_model_factory, "serial",
            num_shards=1, aggregator=Krum(num_malicious=1),
        )
        sharded.run()
        plain.run()
        np.testing.assert_array_equal(sharded.global_params, plain.global_params)
        assert _fingerprint(sharded.history) == _fingerprint(plain.history)


class TestShardedOutOfOrderCompletion:
    """Reversed arrival order must not change sharded results."""

    def test_reordered_sharded_matches_serial_unsharded(
        self, small_federation, image_model_factory, reordered_backend
    ):
        reordered = _make_server(
            small_federation, image_model_factory, reordered_backend,
            num_shards=4, rounds=2,
        )
        reordered.run()
        reordered.close()

        serial = _make_server(
            small_federation, image_model_factory, "serial",
            num_shards=1, rounds=2,
        )
        serial.run()

        # Updates really did arrive out of slot order — otherwise this test
        # is vacuous.
        assert reordered_backend.out_of_order
        np.testing.assert_array_equal(reordered.global_params, serial.global_params)
        assert _fingerprint(reordered.history) == _fingerprint(serial.history)

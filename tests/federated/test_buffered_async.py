"""Buffered-async (FedBuff-style) aggregation: carry, staleness, attribution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.defenses.base import MeanAggregator
from repro.federated.algorithms.fedavg import FedAvg
from repro.federated.client import LocalTrainingConfig
from repro.federated.engine import CallbackHook, ClientUpdate
from repro.federated.engine.ledger import CommunicationLedger, LedgerHook
from repro.federated.server import FederatedServer, ServerConfig

TIERED = "tiered:sample_rate=0.6,min_clients=2,jitter=0.5"


def _server(federation, factory, backend="serial", rounds=3, hooks=None,
            aggregation_mode="buffered_async:buffer_size=3",
            participation=TIERED, **kwargs):
    config = ServerConfig(
        rounds=rounds,
        seed=2,
        participation=participation,
        aggregation_mode=aggregation_mode,
        local=LocalTrainingConfig(epochs=1, batch_size=8, lr=0.05),
        **kwargs,
    )
    return FederatedServer(
        federation, factory, FedAvg(), config,
        aggregator=MeanAggregator(), backend=backend, hooks=hooks,
    )


class TestDiscountStale:
    def test_zero_staleness_is_identity(self):
        update = ClientUpdate(client_id=1, slot=0, update=np.ones(4))
        assert MeanAggregator().discount_stale(update, 0, 0.5) is update

    def test_discount_compounds_per_round(self):
        update = ClientUpdate(client_id=1, slot=0, update=np.full(4, 8.0))
        out = MeanAggregator().discount_stale(update, 3, 0.5)
        np.testing.assert_allclose(out.update, np.ones(4))  # 8 · 0.5³
        assert out.metadata["staleness"] == 3
        np.testing.assert_allclose(update.update, np.full(4, 8.0))  # untouched


class TestConfigValidation:
    def test_secure_aggregation_is_rejected(self):
        with pytest.raises(ValueError, match="secure aggregation"):
            ServerConfig(
                aggregation_mode="buffered_async", secure_aggregation=True
            )


class TestCarrySemantics:
    def test_round_counts_are_conserved(self, small_federation, image_model_factory):
        server = _server(small_federation, image_model_factory, rounds=4)
        with server:
            history = server.run()
        carried_out_prev = 0
        for record in history.records:
            stats = record.extras["buffered_async"]
            # Everything folded this round is either carried in or on time,
            # and last round's stragglers all arrive this round.
            assert stats["carried_in"] == carried_out_prev
            on_time = stats["folded"] - stats["carried_in"]
            assert 0 <= on_time <= 3  # buffer_size
            assert on_time + stats["carried_out"] == len(record.sampled_clients)
            carried_out_prev = stats["carried_out"]

    def test_no_latency_model_degenerates_to_slot_order(
        self, small_federation, image_model_factory
    ):
        # Uniform participation has no latency draws and the buffer admits
        # the whole cohort: buffered_async must equal the sync fold exactly.
        buffered = _server(
            small_federation, image_model_factory,
            participation="uniform:sample_rate=0.5",
            aggregation_mode="buffered_async",
        )
        sync = _server(
            small_federation, image_model_factory,
            participation="uniform:sample_rate=0.5",
            aggregation_mode="sync",
        )
        with buffered, sync:
            buffered.run()
            sync.run()
        np.testing.assert_array_equal(buffered.global_params, sync.global_params)

    def test_carried_updates_keep_their_origin_round(
        self, small_federation, image_model_factory
    ):
        seen: list[tuple[int, int, int]] = []  # (arrival_round, cid, origin)
        probe = CallbackHook(
            on_update=lambda s, plan, u: seen.append(
                (plan.round_idx, u.client_id, u.metadata.get("origin_round", plan.round_idx))
            )
        )
        server = _server(small_federation, image_model_factory, rounds=4, hooks=[probe])
        with server:
            server.run()
        carried = [(r, cid, o) for r, cid, o in seen if o != r]
        assert carried, "tiered stragglers should produce carried updates"
        # Every carried update arrives exactly one round after its origin
        # (the buffer opens next round) and is stale by that one round.
        assert all(r == o + 1 for r, _cid, o in carried)

    def test_staleness_discount_shrinks_carried_contribution(
        self, small_federation, image_model_factory
    ):
        # discount=1.0 keeps carried updates whole; a small discount shrinks
        # them — the two runs must diverge, and only through carried folds.
        whole = _server(
            small_federation, image_model_factory,
            aggregation_mode="buffered_async:buffer_size=3,staleness_discount=1.0",
        )
        damped = _server(
            small_federation, image_model_factory,
            aggregation_mode="buffered_async:buffer_size=3,staleness_discount=0.1",
        )
        with whole, damped:
            whole.run()
            damped.run()
        assert not np.array_equal(whole.global_params, damped.global_params)


class TestSyncFoldContract:
    """A sync round runs the same fold loop as a buffered one, with no carry
    and every update on time, but folds in plan slot order, never latency
    order — so sync histories do not change when latencies are drawn."""

    def test_sync_folds_in_plan_slot_order_under_latencies(
        self, small_federation, image_model_factory
    ):
        contexts = []
        folded = []  # (round, slot, client) per accumulate call

        class Recording(MeanAggregator):
            def begin_round(self, ctx):
                contexts.append(ctx)
                return super().begin_round(ctx)

            def accumulate(self, state, update):
                folded.append((state.ctx.round_idx, update.slot, update.client_id))
                super().accumulate(state, update)

        plans = []
        config = ServerConfig(
            rounds=3, seed=2, participation=TIERED, aggregation_mode="sync",
            local=LocalTrainingConfig(epochs=1, batch_size=8, lr=0.05),
        )
        server = FederatedServer(
            small_federation, image_model_factory, FedAvg(), config,
            aggregator=Recording(),
            hooks=[CallbackHook(on_round_start=lambda s, plan: plans.append(plan))],
        )
        with server:
            history = server.run()

        # Tiered participation really drew latencies, out of slot order in
        # at least one round — otherwise this test is vacuous.
        assert all(plan.latencies for plan in plans)
        assert any(list(p.latencies) != sorted(p.latencies) for p in plans)
        for plan in plans:
            calls = [(slot, cid) for r, slot, cid in folded if r == plan.round_idx]
            assert sorted(calls) == list(enumerate(plan.sampled_clients))
            for slot, cid in calls:
                assert slot == plan.sampled_clients.index(cid)
        assert [ctx.extras for ctx in contexts] == [{}] * len(plans)
        assert all("buffered_async" not in r.extras for r in history.records)


class TestBackendBitIdentity:
    def test_reordered_matches_serial_reference(
        self, small_federation, image_model_factory, reordered_backend
    ):
        reference = _server(small_federation, image_model_factory, "serial")
        other = _server(small_federation, image_model_factory, reordered_backend)
        with reference, other:
            ref_history = reference.run()
            other_history = other.run()
        assert reordered_backend.out_of_order
        for a, b in zip(ref_history.records, other_history.records, strict=True):
            assert a.sampled_clients == b.sampled_clients
            assert a.extras == b.extras
        np.testing.assert_array_equal(reference.global_params, other.global_params)


class TestLedgerAttribution:
    def test_update_bytes_attributed_to_arrival_round(
        self, small_federation, image_model_factory
    ):
        ledger = CommunicationLedger()
        server = _server(
            small_federation, image_model_factory, rounds=4,
            hooks=[LedgerHook(ledger)],
        )
        with server:
            history = server.run()
        up_frames = {r: 0 for r in range(4)}
        for entry in ledger.to_dict()["entries"]:
            if entry["direction"] == "up":
                up_frames[entry["round"]] += entry["frames"]
        for record in history.records:
            # One up frame per folded update — carried arrivals included in
            # their arrival round, stragglers excluded until they land.
            assert up_frames[record.round_idx] == (
                record.extras["buffered_async"]["folded"]
            )

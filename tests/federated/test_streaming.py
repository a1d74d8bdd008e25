"""Tests for the update pipeline: ClientUpdate, iter_updates, the
incremental Aggregator protocol and the server's fold loop.

The acceptance bar: for the same seed, updates arriving *out of slot
order* reproduce the serial ``TrainingHistory`` bit for bit, for both a
shardable defense (``mean``) and a buffering one (``krum``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.defenses.base import MeanAggregator
from repro.defenses.krum import Krum
from repro.federated.algorithms.fedavg import FedAvg
from repro.federated.client import LocalTrainingConfig
from repro.federated.engine import CallbackHook, build_round_plan
from repro.federated.server import FederatedServer, ServerConfig


def _make_server(
    federation,
    factory,
    backend,
    aggregator=None,
    rounds=3,
    hooks=None,
):
    config = ServerConfig(
        rounds=rounds,
        participation="uniform:sample_rate=0.5",
        seed=2,
        local=LocalTrainingConfig(epochs=1, batch_size=8, lr=0.05),
    )
    return FederatedServer(
        federation,
        factory,
        FedAvg(),
        config,
        aggregator=aggregator,
        backend=backend,
        hooks=hooks,
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


class TestClientUpdate:
    def test_task_update_carries_slot_and_weight(self):
        plan = build_round_plan(1, [4, 7], set(), seed=0, attack_active=False)
        vector = np.ones(3)
        update = plan.tasks[1].update(vector, num_examples=12, loss=0.5)
        assert update.client_id == 7
        assert update.slot == 1
        assert update.loss == 0.5
        assert not update.malicious
        assert update.num_examples == 12
        assert update.weight == 12.0
        assert update.update is vector  # shares, does not copy

    def test_iter_updates_covers_plan(self, small_federation, image_model_factory):
        server = _make_server(small_federation, image_model_factory, "serial")
        plan = build_round_plan(
            0, range(small_federation.num_clients), set(), seed=2, attack_active=False
        )
        updates = list(server.backend.iter_updates(plan, server.global_params))
        assert sorted(u.slot for u in updates) == list(range(len(plan)))
        assert {u.client_id for u in updates} == set(plan.sampled_clients)
        for u in updates:
            assert u.num_examples == len(small_federation.client(u.client_id).train)


class TestServerFold:
    def test_shardable_defense_never_stacks_the_round(
        self, small_federation, image_model_factory, monkeypatch
    ):
        # mean folds in O(param_dim) state: its matrix aggregate() must
        # never run.
        def boom(self, updates, global_params, ctx):
            raise AssertionError("mean stacked the round instead of folding it")

        monkeypatch.setattr(MeanAggregator, "aggregate", boom)
        server = _make_server(small_federation, image_model_factory, "serial", rounds=1)
        server.run()

    def test_subclass_overriding_aggregate_falls_back_to_buffering(
        self, small_federation, image_model_factory
    ):
        # A buffering defense's matrix aggregate() runs once per round.
        calls = []

        class Recording(MeanAggregator):
            shardable = False

            def aggregate(self, updates, global_params, ctx):
                calls.append(updates.shape)
                return super().aggregate(updates, global_params, ctx)

        server = _make_server(
            small_federation, image_model_factory, "serial",
            aggregator=Recording(), rounds=2,
        )
        server.run()
        assert len(calls) == 2


class TestOutOfOrderCompletion:
    """Reversed arrival order must not change results."""

    @pytest.mark.parametrize("make_aggregator", [MeanAggregator, Krum], ids=["mean", "krum"])
    def test_reordered_matches_serial_history(
        self, small_federation, image_model_factory, reordered_backend, make_aggregator
    ):
        reordered = _make_server(
            small_federation, image_model_factory, reordered_backend,
            aggregator=make_aggregator(), rounds=2,
        )
        reordered.run()

        serial = _make_server(
            small_federation, image_model_factory, "serial",
            aggregator=make_aggregator(), rounds=2,
        )
        serial.run()

        # Updates really did arrive out of slot order — otherwise this test
        # is vacuous.
        assert reordered_backend.out_of_order
        np.testing.assert_array_equal(reordered.global_params, serial.global_params)
        assert _fingerprint(reordered.history) == _fingerprint(serial.history)


class TestOnUpdateHook:
    def test_fires_once_per_client_between_start_and_collected(
        self, small_federation, image_model_factory
    ):
        events = []
        hook = CallbackHook(
            on_round_start=lambda s, p: events.append("start"),
            on_update=lambda s, p, u: events.append(("update", u.slot)),
            on_updates_collected=lambda s, p, r: events.append(("collected", len(r))),
        )
        server = _make_server(
            small_federation, image_model_factory, "serial", rounds=1, hooks=[hook]
        )
        record = server.run_round()
        n = len(record.sampled_clients)
        assert events[0] == "start"
        assert events[1:-1] == [("update", slot) for slot in range(n)]
        assert events[-1] == ("collected", n)

    def test_round_skips_retention_without_consumers(
        self, small_federation, image_model_factory
    ):
        # No hook consumes the collected list and FedAvg's post_aggregate is
        # the base no-op, so the round must not retain updates.
        collected = []
        hook = CallbackHook(on_update=lambda s, p, u: collected.append(u.slot))
        server = _make_server(
            small_federation, image_model_factory, "serial", rounds=1, hooks=[hook]
        )
        assert not server.hooks.wants_collected_results()
        assert not server._algorithm_consumes_updates()
        record = server.run_round()
        assert collected == list(range(len(record.sampled_clients)))

"""Unit tests for the federated server round loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.defenses.base import MeanAggregator
from repro.defenses.median import CoordinateMedian
from repro.federated.algorithms.fedavg import FedAvg
from repro.federated.client import LocalTrainingConfig
from repro.federated.engine import EvaluationHook, SerialBackend
from repro.federated.server import FederatedServer, ServerConfig
from repro.nn.serialization import flatten_params


def _make_server(small_federation, image_model_factory, rounds=3, **kwargs):
    config = ServerConfig(
        rounds=rounds,
        participation="uniform:sample_rate=0.5",
        seed=2,
        local=LocalTrainingConfig(epochs=1, batch_size=8, lr=0.05),
        **kwargs,
    )
    return FederatedServer(
        small_federation, image_model_factory, FedAvg(), config,
        aggregator=MeanAggregator(),
    )


class TestServerConfig:
    @pytest.mark.parametrize(
        "kwargs", [{"rounds": 0}, {"rounds": 2.5}, {"server_lr": 0.0}]
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ValueError):
            ServerConfig(**kwargs)

    @pytest.mark.parametrize("server_lr", [float("nan"), float("inf")])
    def test_non_finite_server_lr_raises(self, server_lr):
        with pytest.raises(ValueError, match="server_lr"):
            ServerConfig(server_lr=server_lr)

    def test_default_config_maps_to_bare_uniform(self):
        # No spec: the uniform model's own defaults apply.
        assert ServerConfig().participation_spec() == ("uniform", {})

    @pytest.mark.parametrize(
        "mode", ["warp", "sync:buffer_size=2", "buffered_async:bogus=1",
                 "buffered_async:buffer_size=0",
                 "buffered_async:staleness_discount=0.0"]
    )
    def test_invalid_aggregation_mode(self, mode):
        with pytest.raises(ValueError):
            ServerConfig(aggregation_mode=mode)


class TestFederatedServer:
    def test_run_produces_history(self, small_federation, image_model_factory):
        server = _make_server(small_federation, image_model_factory, rounds=3)
        history = server.run()
        assert len(history) == 3
        assert history.records[0].sampled_clients

    def test_global_params_change_each_round(self, small_federation, image_model_factory):
        server = _make_server(small_federation, image_model_factory, rounds=1)
        before = server.global_params.copy()
        server.run_round()
        assert not np.allclose(server.global_params, before)

    def test_training_reduces_mean_loss(self, small_federation, image_model_factory):
        server = _make_server(small_federation, image_model_factory, rounds=12)
        history = server.run()
        first = np.mean([r.mean_benign_loss for r in history.records[:3]])
        last = np.mean([r.mean_benign_loss for r in history.records[-3:]])
        assert last < first

    def test_run_is_deterministic_given_seed(self, small_federation, image_model_factory):
        a = _make_server(small_federation, image_model_factory, rounds=3)
        b = _make_server(small_federation, image_model_factory, rounds=3)
        a.run()
        b.run()
        np.testing.assert_allclose(a.global_params, b.global_params)

    def test_attack_requires_compromised_clients(self, small_federation, image_model_factory):
        config = ServerConfig(rounds=1, participation="uniform:sample_rate=0.5")
        with pytest.raises(ValueError):
            FederatedServer(
                small_federation, image_model_factory, FedAvg(), config,
                attack=object(), compromised_ids=[],
            )

    def test_custom_aggregator_is_used(self, small_federation, image_model_factory):
        class RecordingAggregator(CoordinateMedian):
            def __init__(self):
                super().__init__()
                self.calls = 0

            def aggregate(self, updates, global_params, rng):
                self.calls += 1
                return super().aggregate(updates, global_params, rng)

        aggregator = RecordingAggregator()
        config = ServerConfig(rounds=2, participation="uniform:sample_rate=0.5", seed=0,
                              local=LocalTrainingConfig(epochs=1, batch_size=8, lr=0.05))
        server = FederatedServer(
            small_federation, image_model_factory, FedAvg(), config, aggregator=aggregator
        )
        server.run()
        assert aggregator.calls == 2

    def test_eval_fn_populates_history(self, small_federation, image_model_factory):
        config = ServerConfig(
            rounds=2, participation="uniform:sample_rate=0.5", seed=2,
            local=LocalTrainingConfig(epochs=1, batch_size=8, lr=0.05),
        )
        evaluation = EvaluationHook(
            lambda params, round_idx: {
                "benign_accuracy": 0.5, "attack_success_rate": 0.25,
            }
        )
        server = FederatedServer(
            small_federation, image_model_factory, FedAvg(), config,
            aggregator=MeanAggregator(),
            hooks=[evaluation],
        )
        history = server.run()
        assert history.records[-1].benign_accuracy == 0.5
        assert history.records[-1].attack_success_rate == 0.25

    def test_personalized_params_matches_global_for_fedavg(
        self, small_federation, image_model_factory
    ):
        server = _make_server(small_federation, image_model_factory, rounds=1)
        server.run()
        np.testing.assert_allclose(server.personalized_params(0), server.global_params)

    def test_initial_params_match_model_factory(self, small_federation, image_model_factory):
        server = _make_server(small_federation, image_model_factory)
        np.testing.assert_allclose(server.global_params, flatten_params(image_model_factory()))


class TestServerLifecycle:
    """FederatedServer is a context manager; close() is idempotent."""

    def test_context_manager_closes_backend(self, small_federation, image_model_factory):
        closes = []

        class ClosingBackend(SerialBackend):
            def close(self):
                closes.append(True)

        config = ServerConfig(
            rounds=1, participation="uniform:sample_rate=0.5", seed=2,
            local=LocalTrainingConfig(epochs=1, batch_size=8, lr=0.05),
        )
        with FederatedServer(
            small_federation, image_model_factory, FedAvg(), config,
            backend=ClosingBackend(),
        ) as server:
            server.run()
            assert closes == []
        assert closes == [True]  # __exit__ released the backend

    def test_close_is_idempotent_but_rearms_after_new_rounds(
        self, small_federation, image_model_factory
    ):
        closes = []

        class ClosingBackend(SerialBackend):
            def close(self):
                closes.append(True)

        config = ServerConfig(
            rounds=1, participation="uniform:sample_rate=0.5", seed=2,
            local=LocalTrainingConfig(epochs=1, batch_size=8, lr=0.05),
        )
        server = FederatedServer(
            small_federation, image_model_factory, FedAvg(), config,
            backend=ClosingBackend(),
        )
        server.run()
        server.close()
        server.close()  # idempotent: second close releases nothing twice
        assert closes == [True]
        server.run_round()  # more work re-acquires resources ...
        server.close()      # ... so close must actually run again
        assert closes == [True, True]

    def test_context_manager_closes_on_exception(self, small_federation, image_model_factory):
        server = _make_server(small_federation, image_model_factory, rounds=1)
        with pytest.raises(RuntimeError, match="sentinel"):
            with server:
                raise RuntimeError("sentinel")
        assert server._closed

"""Unit tests for the pluggable execution engine (backends, plans, hooks)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.triggers import PixelPatchTrigger
from repro.core.collapois import CollaPoisAttack
from repro.defenses.base import AggregationContext, Aggregator, MeanAggregator
from repro.experiments.runner import run_experiment
from repro.federated.algorithms.fedavg import FedAvg
from repro.federated.client import LocalTrainingConfig
from repro.federated.engine import (
    CallbackHook,
    ClientUpdate,
    EvaluationHook,
    HookPipeline,
    RoundHook,
    SerialBackend,
    build_round_plan,
    make_backend,
)
from repro.federated.rng import client_stream_seed, personalization_seed
from repro.federated.server import FederatedServer, ServerConfig
from repro.registry import BACKENDS


def _make_server(
    federation, factory, backend, attack=False, rounds=3, hooks=None
):
    config = ServerConfig(
        rounds=rounds,
        participation="uniform:sample_rate=0.5",
        seed=2,
        local=LocalTrainingConfig(epochs=1, batch_size=8, lr=0.05),
    )
    attack_obj = None
    compromised = None
    if attack:
        attack_obj = CollaPoisAttack(trojan_epochs=2)
        compromised = [0, 3]
        attack_obj.setup(
            federation, compromised, factory, PixelPatchTrigger(12, patch_size=3), 0, seed=2
        )
    return FederatedServer(
        federation,
        factory,
        FedAvg(),
        config,
        attack=attack_obj,
        compromised_ids=compromised,
        backend=backend,
        hooks=hooks,
    )


class TestRngHelpers:
    def test_client_stream_seed_is_injective_locally(self):
        seeds = {
            client_stream_seed(7, r, c) for r in range(50) for c in range(200)
        }
        assert len(seeds) == 50 * 200

    def test_matches_historical_derivation(self):
        # The exact arithmetic the server used before the helper existed.
        assert client_stream_seed(5, 3, 11) == 5 * 1_000_003 + 3 * 1_009 + 11
        assert personalization_seed(5, 11) == 5 * 31 + 11


class TestRoundPlan:
    def test_build_round_plan_orders_and_flags(self):
        plan = build_round_plan(2, [1, 4, 6], {4}, seed=9, attack_active=True)
        assert plan.sampled_clients == (1, 4, 6)
        assert [t.slot for t in plan.tasks] == [0, 1, 2]
        assert [t.malicious for t in plan.tasks] == [False, True, False]
        assert plan.compromised_sampled == [4]
        assert plan.tasks[0].rng_seed == client_stream_seed(9, 2, 1)

    def test_attack_inactive_makes_no_task_malicious(self):
        plan = build_round_plan(0, [0, 1], {0, 1}, seed=0, attack_active=False)
        assert plan.malicious_tasks == ()


class TestBackendRegistry:
    def test_registered_backends(self):
        assert set(BACKENDS.names()) == {"serial", "batched", "distributed"}

    def test_make_backend(self):
        assert isinstance(make_backend("serial"), SerialBackend)

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("quantum")

    def test_unbound_backend_raises(self):
        with pytest.raises(RuntimeError, match="not bound"):
            next(SerialBackend().iter_updates(None, None))


class TestBackendEquivalence:
    """Driver-side state survives backends that run benign work elsewhere."""

    def test_stateful_attack_bookkeeping_survives_parallel_backends(
        self, small_federation, image_model_factory
    ):
        # psi_history is attack-side state; it must accumulate in the driver
        # even when benign work runs as one stacked model.
        server = _make_server(small_federation, image_model_factory, "batched", attack=True)
        server.run()
        server.close()
        recorded = sum(len(r.compromised_sampled) for r in server.history.records)
        assert len(server.attack.psi_history) == recorded

    @pytest.mark.parametrize("backend", ["serial", "batched"])
    def test_every_update_reports_its_clients_example_count(
        self, small_federation, image_model_factory, backend
    ):
        # Malicious updates included: weighted_mean weighs them like any
        # benign participant of the same size.
        seen = []
        hook = CallbackHook(on_update=lambda s, p, u: seen.append(u))
        server = _make_server(
            small_federation, image_model_factory, backend, attack=True, hooks=[hook]
        )
        server.run()
        server.close()
        assert any(u.malicious for u in seen) and not all(u.malicious for u in seen)
        for u in seen:
            assert u.num_examples == len(small_federation.client(u.client_id).train) > 0


class TestHookPipeline:
    def test_hook_event_ordering(self, small_federation, image_model_factory):
        events = []
        hook = CallbackHook(
            on_round_start=lambda s, p: events.append(("start", p.round_idx)),
            on_updates_collected=lambda s, p, r: events.append(("collected", p.round_idx)),
            on_aggregated=lambda s, p, a: events.append(("aggregated", p.round_idx)),
            on_round_end=lambda s, p, rec: events.append(("end", p.round_idx)),
        )
        server = _make_server(
            small_federation, image_model_factory, "serial", rounds=2, hooks=[hook]
        )
        server.run()
        assert events == [
            ("start", 0), ("collected", 0), ("aggregated", 0), ("end", 0),
            ("start", 1), ("collected", 1), ("aggregated", 1), ("end", 1),
        ]

    def test_hooks_run_in_registration_order(self, small_federation, image_model_factory):
        order = []
        first = CallbackHook(on_round_start=lambda s, p: order.append("first"))
        second = CallbackHook(on_round_start=lambda s, p: order.append("second"))
        server = _make_server(
            small_federation, image_model_factory, "serial", rounds=1, hooks=[first, second]
        )
        server.run()
        assert order == ["first", "second"]

    def test_updates_collected_sees_all_results(self, small_federation, image_model_factory):
        seen = []
        hook = CallbackHook(
            on_updates_collected=lambda s, p, updates: seen.append((p, updates))
        )
        server = _make_server(
            small_federation, image_model_factory, "serial", rounds=2, hooks=[hook]
        )
        server.run()
        assert len(seen) == 2
        for plan, updates in seen:
            assert all(isinstance(u, ClientUpdate) for u in updates)
            # Slot order: the i-th update is the plan's i-th sampled client.
            assert [u.slot for u in updates] == list(range(len(plan)))
            assert tuple(u.client_id for u in updates) == plan.sampled_clients

    def test_evaluation_hook_respects_every(self):
        calls = []
        hook = EvaluationHook(lambda params, idx: calls.append(idx) or {}, every=2)

        class FakeServer:
            global_params = np.zeros(1)

        class FakeRecord:
            extras: dict = {}
            benign_accuracy = None
            attack_success_rate = None

        for round_idx in range(4):
            record = FakeRecord()
            record.round_idx = round_idx
            record.extras = {}
            hook.on_round_end(FakeServer(), None, record)
        assert calls == [1, 3]

    def test_evaluation_hook_rejects_bad_every(self):
        with pytest.raises(ValueError):
            EvaluationHook(lambda p, i: {}, every=0)

    def test_constructor_eval_fn_registers_single_hook(
        self, small_federation, image_model_factory
    ):
        config = ServerConfig(rounds=1, participation="uniform:sample_rate=0.5", seed=2)
        server = FederatedServer(
            small_federation, image_model_factory, FedAvg(), config,
            hooks=[EvaluationHook(lambda params, idx: {"benign_accuracy": 0.9})],
        )
        assert len(server.hooks) == 1
        record = server.run_round()
        assert record.benign_accuracy == 0.9

    def test_pipeline_add_remove(self):
        pipeline = HookPipeline()
        hook = RoundHook()
        pipeline.add(hook)
        assert len(pipeline) == 1
        pipeline.remove(hook)
        assert len(pipeline) == 0

    def test_eval_fn_runs_before_user_hooks(self, tiny_config):
        # The runner registers the evaluation hook first, so user hooks
        # observe records with the metrics already filled in.
        seen = []
        collector = CallbackHook(
            on_round_end=lambda s, p, rec: seen.append(rec.benign_accuracy)
        )
        result = run_experiment(tiny_config.with_overrides(rounds=2, eval_every=1),
                                hooks=[collector])
        assert seen == result.history.series("benign_accuracy")
        assert None not in seen

    def test_backend_rebind_resets_driver_model(self, small_federation, image_model_factory):
        backend = SerialBackend()
        first = _make_server(small_federation, image_model_factory, backend, rounds=1)
        first.run_round()
        stale = backend._driver_model
        assert stale is not None
        second = _make_server(small_federation, image_model_factory, backend, rounds=1)
        assert backend._driver_model is None
        second.run_round()
        assert backend._driver_model is not stale


class TestAggregationContext:
    def test_server_passes_context_with_round_info(
        self, small_federation, image_model_factory
    ):
        contexts = []

        class RecordingAggregator(Aggregator):
            # No _fold override: the round buffers, so aggregate() runs.
            def aggregate(self, updates, global_params, ctx):
                contexts.append(ctx)
                return updates.mean(axis=0)

        config = ServerConfig(rounds=2, participation="uniform:sample_rate=0.5", seed=2)
        server = FederatedServer(
            small_federation, image_model_factory, FedAvg(), config,
            aggregator=RecordingAggregator(),
        )
        server.run()
        assert [ctx.round_idx for ctx in contexts] == [0, 1]
        assert contexts[0].sampled_clients == tuple(server.history.records[0].sampled_clients)
        assert all(isinstance(ctx, AggregationContext) for ctx in contexts)

    def test_legacy_rng_call_is_rejected(self, rng):
        updates = np.arange(12, dtype=np.float64).reshape(3, 4)
        with pytest.raises(TypeError, match=r"AggregationContext\(rng=rng\)"):
            MeanAggregator()(updates, np.zeros(4), rng)

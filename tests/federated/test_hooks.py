"""Tests for the hook pipeline's capability flags and exception hygiene.

Two pinned behaviours:

* ``wants_collected_results`` is derived from what a hook actually
  implements — subclasses automatically, the :class:`CallbackHook` adapter
  from which callbacks were supplied — so a hook that only observes round
  ends never makes the server retain the round's update list.
* A hook that raises mid-round (``on_update``, while a fold is in flight)
  propagates loudly, and the aggregator begins a fresh round afterwards.
  This file is the pin referenced by the module docstring of
  :mod:`repro.federated.engine.hooks`.
"""

from __future__ import annotations

import pytest

from repro.federated.algorithms.fedavg import FedAvg
from repro.federated.client import LocalTrainingConfig
from repro.federated.engine.hooks import CallbackHook, HookPipeline, RoundHook
from repro.federated.server import FederatedServer, ServerConfig


class TestWantsFlags:
    def test_base_hook_wants_nothing(self):
        assert not RoundHook().wants_collected_results()

    def test_subclass_overrides_are_detected_automatically(self):
        class UpdateWatcher(RoundHook):
            def on_update(self, server, plan, update):
                pass

        class Collector(RoundHook):
            def on_updates_collected(self, server, plan, results):
                pass

        assert not UpdateWatcher().wants_collected_results()
        assert Collector().wants_collected_results()

    def test_callback_hook_wants_follow_the_supplied_callbacks(self):
        # The adapter overrides every method, so the base class's
        # implementation-detection would claim it wants everything; the
        # flags must instead reflect which callbacks were actually given.
        noop = lambda *args: None  # noqa: E731
        assert not CallbackHook().wants_collected_results()
        assert not CallbackHook(on_update=noop).wants_collected_results()
        assert CallbackHook(on_updates_collected=noop).wants_collected_results()
        # Round-end-only observers stay fully out of band.
        assert not CallbackHook(on_round_end=noop).wants_collected_results()

    def test_pipeline_wants_are_any_over_hooks(self):
        noop = lambda *args: None  # noqa: E731
        pipeline = HookPipeline([CallbackHook(on_round_end=noop)])
        pipeline.add(CallbackHook(on_update=noop))
        assert not pipeline.wants_collected_results()
        pipeline.add(CallbackHook(on_updates_collected=noop))
        assert pipeline.wants_collected_results()


def _make_server(federation, factory):
    config = ServerConfig(
        rounds=3,
        participation="uniform:sample_rate=0.5",
        seed=2,
        local=LocalTrainingConfig(epochs=1, batch_size=8, lr=0.05),
    )
    return FederatedServer(federation, factory, FedAvg(), config)


class TestHookExceptionHygiene:
    def test_raising_on_update_propagates_and_the_next_round_runs(
        self, small_federation, image_model_factory
    ):
        server = _make_server(small_federation, image_model_factory)

        def boom(server_, plan, update):
            raise RuntimeError("observer failed")

        hook = server.hooks.add(CallbackHook(on_update=boom))
        try:
            with pytest.raises(RuntimeError, match="observer failed"):
                server.run_round()
            assert len(server.history) == 0

            # The aggregator begins a fresh round once the broken observer
            # is gone.
            server.hooks.remove(hook)
            record = server.run_round()
            assert record.round_idx == 0
        finally:
            server.close()

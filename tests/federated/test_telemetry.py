"""End-to-end telemetry tests across the engine.

Telemetry is strictly out-of-band observation: per seed, ``telemetry=True``
produces a ``TrainingHistory`` bit-identical to the uninstrumented run on
every backend, and every traced run records its ``round``,
``client_train`` and ``aggregate`` spans.  The invariant matrix
(``test_invariant_matrix.py``) holds both in each traced cell.  The tests
here pin what only some features show: secagg masking and evaluation
spans, worker-measured spans merged over the wire with per-link clock
offsets, and the bundle's results-JSON round trip.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.results import ExperimentResult
from repro.experiments.scenario import Scenario


def base_scenario(**overrides) -> Scenario:
    """Tiny full-participation federation: 8 benign tasks per round."""
    scenario = Scenario(
        dataset="femnist",
        num_clients=8,
        samples_per_client=10,
        num_classes=4,
        image_size=8,
        hidden=(16,),
        rounds=2,
        sample_rate=1.0,
        local={"epochs": 1, "batch_size": 8, "lr": 0.05},
        seed=5,
        attack="none",
        max_test_samples=8,
    )
    return scenario.with_overrides(**overrides) if overrides else scenario


def _span_names(telemetry: dict) -> set[str]:
    return {span["name"] for span in telemetry["spans"]}


class TestFeatureSpans:
    def test_secagg_run_records_mask_and_unmask_spans(self):
        result = base_scenario(telemetry=True, secure_aggregation=True).run()
        telemetry = result.telemetry
        assert {"secagg_mask", "secagg_unmask"} <= _span_names(telemetry)
        masks = [s for s in telemetry["spans"] if s["name"] == "secagg_mask"]
        # One mask per client per round, each tagged with round and client.
        assert len(masks) == 16
        assert all({"round", "client"} <= set(s["attrs"]) for s in masks)

    def test_evaluation_runs_inside_an_evaluate_span(self):
        result = base_scenario(telemetry=True, eval_every=1).run()
        evaluates = [
            s for s in result.telemetry["spans"] if s["name"] == "evaluate"
        ]
        assert len(evaluates) == 2


class TestDistributedWireTelemetry:
    @pytest.fixture(scope="class")
    def distributed_result(self):
        return base_scenario(
            telemetry=True, backend="distributed", backend_workers=2
        ).run()

    def test_worker_measured_spans_merge_into_the_driver_trace(
        self, distributed_result
    ):
        telemetry = distributed_result.telemetry
        wire = [
            s
            for s in telemetry["spans"]
            if s["name"] == "client_train" and s["attrs"].get("wire")
        ]
        # Every task's training was timed on the worker and merged: 8 per round.
        assert len(wire) == 16
        for span in wire:
            assert {"round", "client", "worker"} <= set(span["attrs"])
            assert span["end"] >= span["start"]

    def test_coordinator_records_dispatch_spans(self, distributed_result):
        dispatches = [
            s for s in distributed_result.telemetry["spans"] if s["name"] == "dispatch"
        ]
        assert len(dispatches) == 2
        assert all(s["attrs"]["tasks"] == 8 for s in dispatches)

    def test_round_zero_traces_spawn_and_context_build(self, distributed_result):
        """Round 0's start-up shows as one spawn and one context_build span."""
        spans = distributed_result.telemetry["spans"]
        round_zero = next(
            s for s in spans if s["name"] == "round" and s["attrs"]["round"] == 0
        )
        for name in ("spawn", "context_build"):
            [span] = [s for s in spans if s["name"] == name]
            assert span["attrs"] == {"round": 0, "workers": 2}
            assert round_zero["start"] <= span["start"] <= span["end"] <= round_zero["end"]

    def test_each_worker_reports_its_context_build_once(self, distributed_result):
        """A worker's own build time rides on its first UPDATE, and only there."""
        wire_spans = {}
        for span in distributed_result.telemetry["spans"]:
            if span["name"] == "client_train" and span["attrs"].get("wire"):
                wire_spans.setdefault(span["attrs"]["worker"], []).append(span)
        assert len(wire_spans) == 2
        for first, *later in wire_spans.values():
            assert first["attrs"]["round"] == 0
            assert first["attrs"]["context_build_s"] >= 0.0
            assert not [s for s in later if "context_build_s" in s["attrs"]]

    def test_per_link_clock_offsets_are_recorded(self, distributed_result):
        offsets = distributed_result.telemetry["clock_offsets"]
        assert offsets, "no clock offsets recorded"
        assert all(link.startswith("worker:") for link in offsets)
        workers = {
            s["attrs"]["worker"]
            for s in distributed_result.telemetry["spans"]
            if s["attrs"].get("wire")
        }
        assert {f"worker:{pid}" for pid in workers} == set(offsets)

    def test_coordinator_queue_metrics_are_observed(self, distributed_result):
        metrics = distributed_result.telemetry["metrics"]
        assert metrics["distributed.pending_depth"]["count"] >= 16
        assert metrics["distributed.worker_outstanding"]["count"] >= 16
        assert metrics["distributed.redispatch_total"]["type"] == "gauge"


class TestSerialisation:
    def test_results_json_round_trip_preserves_telemetry(self, tmp_path):
        result = base_scenario(telemetry=True).run()
        path = tmp_path / "results.json"
        result.save(path)
        reloaded = ExperimentResult.load(path)
        assert reloaded.telemetry == result.telemetry
        assert reloaded.to_dict() == json.loads(path.read_text())

    def test_disabled_runs_serialise_without_a_telemetry_key(self):
        result = base_scenario().run()
        assert result.telemetry is None
        assert "telemetry" not in result.to_dict()

    def test_scenario_rejects_non_bool_telemetry(self):
        with pytest.raises(ValueError, match="telemetry must be a bool"):
            base_scenario(telemetry="yes")


class TestOutOfBandGuarantees:
    def test_disabled_run_allocates_no_telemetry_state(self):
        result = base_scenario().run()
        server = result.extras["server"]
        assert server.telemetry is None

    def test_telemetry_hook_never_triggers_update_materialisation(self):
        from repro.telemetry import TelemetryHook

        result = base_scenario(telemetry=True).run()
        server = result.extras["server"]
        assert server.telemetry is not None
        # The hook harvests at round end only; registering it must not make
        # the server retain the update list (other hooks — the ledger — may
        # still ask for it on their own).
        hooks = list(server.hooks)
        telemetry_hooks = [h for h in hooks if isinstance(h, TelemetryHook)]
        assert len(telemetry_hooks) == 1
        assert not telemetry_hooks[0].wants_collected_results()
        # Registered last, so it snapshots rounds other hooks already enriched.
        assert hooks[-1] is telemetry_hooks[0]

"""Tests for the communication ledger.

Two layers: the :class:`CommunicationLedger` counter container itself
(recording, queries, serialisation), and the end-to-end accounting — every
run carries a model-channel ledger that is identical across backends, the
distributed backend meters its real wire frames into the same ledger, and
the ledger survives the results JSON round trip and renders via
``repro ledger``.
"""

from __future__ import annotations

import json
from functools import lru_cache

import pytest

from repro.experiments.results import ExperimentResult
from repro.experiments.scenario import Scenario
from repro.federated.engine.ledger import SETUP_ROUND, CommunicationLedger


def base_scenario(**overrides) -> Scenario:
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


@lru_cache(maxsize=None)
def run_result(**overrides) -> ExperimentResult:
    return base_scenario(**dict(overrides)).run()


class TestCommunicationLedger:
    def _sample(self) -> CommunicationLedger:
        ledger = CommunicationLedger()
        ledger.record(
            round_idx=0, channel="model", link="client:1", direction="down",
            header_bytes=10, payload_bytes=100, dtype="float64",
        )
        ledger.record(
            round_idx=0, channel="model", link="client:1", direction="up",
            header_bytes=12, payload_bytes=100,
        )
        ledger.record(
            round_idx=SETUP_ROUND, channel="wire", link="worker:42",
            direction="up", header_bytes=5, dtype="float32",
        )
        return ledger

    def test_record_aggregates_per_key(self):
        ledger = CommunicationLedger()
        for _ in range(3):
            ledger.record(
                round_idx=1, channel="model", link="client:0",
                direction="down", header_bytes=2, payload_bytes=8,
            )
        assert len(ledger) == 1
        assert ledger.totals() == {
            "frames": 3, "header_bytes": 6, "payload_bytes": 24, "bytes": 30,
        }

    def test_rejects_bad_direction(self):
        with pytest.raises(ValueError, match="direction"):
            CommunicationLedger().record(
                round_idx=0, channel="model", link="client:0", direction="sideways"
            )

    def test_queries(self):
        ledger = self._sample()
        assert len(ledger) == 3
        assert ledger.channels() == ["model", "wire"]
        assert ledger.rounds() == [SETUP_ROUND, 0]
        assert ledger.dtypes == {"model": "float64", "wire": "float32"}
        assert ledger.totals() == {
            "frames": 3, "header_bytes": 27, "payload_bytes": 200, "bytes": 227,
        }

    def test_round_rows_aggregate_links(self):
        ledger = self._sample()
        ledger.record(
            round_idx=0, channel="model", link="client:2", direction="down",
            header_bytes=10, payload_bytes=100,
        )
        rows = ledger.round_rows()
        down = next(
            r for r in rows
            if r["round"] == 0 and r["channel"] == "model" and r["direction"] == "down"
        )
        assert down["links"] == 2
        assert down["frames"] == 2
        assert down["payload_bytes"] == 200
        # Rows come out sorted: setup traffic first.
        assert rows[0]["round"] == SETUP_ROUND

    def test_dict_roundtrip_is_lossless(self):
        ledger = self._sample()
        clone = CommunicationLedger.from_dict(
            json.loads(json.dumps(ledger.to_dict()))
        )
        assert clone.to_dict() == ledger.to_dict()


class TestRunLedger:
    def test_every_run_carries_a_model_ledger(self):
        ledger = run_result().ledger
        assert ledger is not None
        assert ledger.channels() == ["model"]
        assert ledger.rounds() == [0, 1]
        assert ledger.dtypes == {"model": "float64"}
        totals = ledger.totals()
        # 8 clients × 2 rounds × (params down + update up).
        assert totals["frames"] == 32
        assert totals["payload_bytes"] > 0
        down = sum(
            row["frames"] for row in ledger.round_rows() if row["direction"] == "down"
        )
        up = sum(
            row["frames"] for row in ledger.round_rows() if row["direction"] == "up"
        )
        assert down == up == 16

    def test_model_channel_is_backend_independent(self):
        serial = run_result().ledger
        batched = run_result(backend="batched").ledger
        assert batched.to_dict() == serial.to_dict()

    def test_distributed_run_meters_wire_frames(self):
        ledger = run_result(backend="distributed", backend_workers=2).ledger
        assert ledger.channels() == ["model", "wire"]
        # Setup frames (HELLO/CONFIGURE) land outside any round.
        assert SETUP_ROUND in ledger.rounds()
        wire_rows = [r for r in ledger.round_rows() if r["channel"] == "wire"]
        directions = {r["direction"] for r in wire_rows}
        assert directions == {"down", "up"}
        assert ledger.dtypes["wire"] == "float64"
        # The model channel still matches the serial run exactly.
        model_entries = [
            e for e in ledger.to_dict()["entries"] if e["channel"] == "model"
        ]
        assert model_entries == run_result().ledger.to_dict()["entries"]

    def test_fp32_wire_dtype_shows_in_ledger(self):
        # backend_kwargs is a dict (unhashable), so this cell skips the cache.
        ledger = base_scenario(
            backend="distributed",
            backend_workers=2,
            backend_kwargs={"wire_dtype": "float32"},
        ).run().ledger
        assert ledger.dtypes == {"model": "float32", "wire": "float32"}
        fp64_payload = run_result().ledger.totals()["payload_bytes"]
        assert ledger.totals()["payload_bytes"] < fp64_payload

    def test_result_json_roundtrip_keeps_ledger(self):
        result = run_result()
        reloaded = ExperimentResult.from_json(result.to_json())
        assert reloaded.ledger is not None
        assert reloaded.ledger.to_dict() == result.ledger.to_dict()

    def test_result_dict_without_ledger_loads_as_none(self):
        data = json.loads(run_result().to_json())
        data.pop("ledger")
        reloaded = ExperimentResult.from_dict(data)
        assert reloaded.ledger is None


class TestLedgerCli:
    def test_ledger_table_from_results_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "results.json"
        out.write_text(run_result().to_json())
        assert main(["ledger", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "model" in printed
        assert "down" in printed and "up" in printed
        assert "float64" in printed

    def test_ledger_accepts_bare_ledger_dict(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "ledger.json"
        out.write_text(json.dumps(run_result().ledger.to_dict()))
        assert main(["ledger", str(out)]) == 0
        assert "model" in capsys.readouterr().out

    def test_ledger_errors_without_entries(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "empty.json"
        out.write_text(json.dumps({"hello": 1}))
        assert main(["ledger", str(out)]) == 2
        assert "ledger" in capsys.readouterr().err.lower()

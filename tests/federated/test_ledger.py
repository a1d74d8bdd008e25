"""Tests for the communication ledger.

Two layers: the :class:`CommunicationLedger` counter container itself
(recording, queries, serialisation), and the end-to-end accounting — every
run carries a model-channel ledger, the distributed backend meters its real
wire frames into the same ledger in closed form, and the ledger survives
the results JSON round trip and renders via ``repro ledger``.  That the
model channel is identical across execution modes is held by the
invariant matrix (``test_invariant_matrix.py``).
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
            header_bytes=10, payload_bytes=100,
        )
        ledger.record(
            round_idx=0, channel="model", link="client:1", direction="up",
            header_bytes=12, payload_bytes=100,
        )
        ledger.record(
            round_idx=SETUP_ROUND, channel="wire", link="worker:42",
            direction="up", header_bytes=5,
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


class TestPayloadClosedForm:
    """Payload bytes per channel and round in closed form, against the ledger.

    With n participants, m_r compromised clients sampled in round r, W
    workers, d parameters and b = 8 bytes per float64 element, every round
    r >= 0 moves

    * model channel: n·d·b down (the global parameters to every
      participant) and n·d·b up (one update each);
    * wire channel: W·d·b down (one ROUND frame per worker; FedAvg TASK
      frames carry no arrays) and (n − m_r)·d·b up (compromised clients
      train in the driver);

    and round −1 (worker set-up and shutdown) moves no payload.  Header
    bytes hold the JSON repr of each loss, whose length varies, so they get
    bounds only.
    """

    WORKERS = 2
    #: 8·8 inputs × 16 hidden + 16 + 16 × 4 classes + 4.
    DIM = 1_108

    def _run(self, **overrides) -> ExperimentResult:
        return base_scenario(
            attack="collapois",
            compromised_fraction=0.25,
            trojan_epochs=1,
            backend="distributed",
            backend_workers=self.WORKERS,
            **overrides,
        ).run()

    def _assert_closed_form(self, result: ExperimentResult, b: int) -> None:
        d, w = self.DIM, self.WORKERS
        assert result.extras["server"].global_params.shape == (d,)
        expected = {}
        for record in result.history.records:
            r = record.round_idx
            n, m = len(record.sampled_clients), len(record.compromised_sampled)
            assert (n, m) == (8, 2)
            expected[(r, "model", "down")] = n * d * b
            expected[(r, "model", "up")] = n * d * b
            expected[(r, "wire", "down")] = w * d * b
            expected[(r, "wire", "up")] = (n - m) * d * b
        rows = result.ledger.round_rows()
        setup = [row for row in rows if row["round"] == SETUP_ROUND]
        assert setup and all(row["payload_bytes"] == 0 for row in setup)
        payload = {
            (row["round"], row["channel"], row["direction"]): row["payload_bytes"]
            for row in rows
            if row["round"] != SETUP_ROUND
        }
        assert payload == expected
        for row in rows:
            assert 0 < row["header_bytes"] <= 512 * row["frames"], row

    def test_secagg_distributed_run(self):
        self._assert_closed_form(self._run(secure_aggregation=True), b=8)

    def test_plaintext_distributed_run(self):
        self._assert_closed_form(self._run(), b=8)


class TestLedgerCli:
    def test_ledger_table_of_saved_results(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "results.json"
        out.write_text(run_result().to_json())
        assert main(["ledger", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "model" in printed
        assert "down" in printed and "up" in printed
        assert "total:" in printed

    def test_results_written_before_protocol_v8_load_and_render(
        self, tmp_path, capsys
    ):
        """The older shape: a ``dtypes`` key in the ledger, ``wire_dtype`` in
        the scenario's ``backend_kwargs``."""
        from repro.cli import main

        data = json.loads(
            run_result(backend="distributed", backend_workers=2).to_json()
        )
        data["ledger"]["dtypes"] = {"model": "float64", "wire": "float64"}
        data["scenario"]["backend_kwargs"] = {"wire_dtype": "float64"}
        out = tmp_path / "results.json"
        out.write_text(json.dumps(data))
        reloaded = ExperimentResult.load(out)
        assert reloaded.config.backend_kwargs == {"wire_dtype": "float64"}
        assert reloaded.ledger.to_dict() == {
            key: value for key, value in data["ledger"].items() if key != "dtypes"
        }
        assert main(["ledger", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "wire" in printed and "absent" not in printed

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

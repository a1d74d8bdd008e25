"""Unit tests for experiment configuration and result formatting."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments.results import ExperimentResult, format_table
from repro.experiments.scenario import Scenario
from repro.federated.history import RoundRecord, TrainingHistory
from repro.metrics.accuracy import ClientEvaluation


class TestScenarioConfig:
    def test_defaults_valid(self):
        config = Scenario()
        assert config.dataset == "femnist"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dataset": "cifar"},
            {"algorithm": "fedprox"},
            {"attack": "badnets"},
            {"compromised_fraction": -0.1},
            {"alpha": 0.0},
            {"attack": "collapois", "compromised_fraction": 0.0},
            {"max_test_samples": 0},
            {"max_test_samples": 2.5},
            {"max_test_samples": True},
            {"backend": "distributed", "backend_workers": 2.5},
            {"backend": "distributed", "backend_workers": True},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            Scenario(**kwargs)

    def test_sentiment_forces_binary_classes(self):
        config = Scenario(dataset="sentiment", num_classes=10)
        assert config.num_classes == 2
        assert config.model in {"text", "mlp"}
        lenet_config = Scenario(dataset="sentiment", model="lenet")
        assert lenet_config.model == "text"

    def test_with_overrides_creates_copy(self):
        base = Scenario(alpha=0.5)
        derived = base.with_overrides(alpha=5.0, attack="collapois")
        assert base.alpha == 0.5 and base.attack == "none"
        assert derived.alpha == 5.0 and derived.attack == "collapois"


class TestExperimentResult:
    def _result(self):
        evaluation = ClientEvaluation(np.array([0.9, 0.7]), np.array([0.8, 0.2]), [0, 1])
        history = TrainingHistory()
        history.append(
            RoundRecord(
                round_idx=0,
                sampled_clients=[0, 1],
                compromised_sampled=[],
                # Deliberately awkward floats: the JSON round-trip must be
                # bit-exact, not approximately equal.
                mean_benign_loss=0.1 + 0.2,
                update_norm=1.0 / 3.0,
                benign_accuracy=0.625,
            )
        )
        return ExperimentResult(
            config=Scenario(), evaluation=evaluation,
            history=history, compromised_ids=[5],
            extras={"server": object()},
        )

    def test_summary_fields(self):
        summary = self._result().summary()
        assert summary["benign_accuracy"] == pytest.approx(0.8)
        assert summary["attack_success_rate"] == pytest.approx(0.5)
        assert summary["num_compromised"] == 1.0

    def test_json_round_trip_is_lossless(self):
        result = self._result()
        reloaded = ExperimentResult.from_json(result.to_json())
        assert reloaded.to_dict() == result.to_dict()
        assert reloaded.config == result.config
        assert reloaded.summary() == result.summary()
        np.testing.assert_array_equal(
            reloaded.evaluation.benign_accuracy, result.evaluation.benign_accuracy
        )
        assert reloaded.history.records[0] == result.history.records[0]
        assert reloaded.compromised_ids == [5]
        assert reloaded.extras == {}  # live objects are not serialised

    def test_save_load_file_round_trip(self, tmp_path):
        result = self._result()
        path = tmp_path / "result.json"
        result.save(path)
        reloaded = ExperimentResult.load(path)
        assert reloaded.to_dict() == result.to_dict()
        # The payload is plain JSON with the documented top-level shape.
        payload = json.loads(path.read_text())
        assert set(payload) == {
            "scenario", "summary", "evaluation", "compromised_ids", "history",
        }

    def test_from_dict_rejects_unknown_keys(self):
        data = self._result().to_dict()
        data["histori"] = data.pop("history")
        with pytest.raises(ValueError, match="histori"):
            ExperimentResult.from_dict(data)

    def test_results_written_with_num_shards_still_load(self):
        # Results JSON written while num_shards split the fold carries it.
        data = json.loads(self._result().to_json())
        data["scenario"]["num_shards"] = 2
        assert ExperimentResult.from_dict(data).config.num_shards == 2

    def test_from_dict_requires_scenario(self):
        data = self._result().to_dict()
        del data["scenario"]
        with pytest.raises(ValueError, match="scenario"):
            ExperimentResult.from_dict(data)

    def test_evaluation_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="benign_acuracy"):
            ClientEvaluation.from_dict({"benign_acuracy": [0.1]})


class TestFormatTable:
    def test_empty_rows(self):
        assert format_table([]) == "(empty table)"

    def test_alignment_and_content(self):
        rows = [
            {"attack": "collapois", "asr": 0.912},
            {"attack": "dpois", "asr": 0.1},
        ]
        table = format_table(rows)
        lines = table.splitlines()
        assert len(lines) == 4
        assert "collapois" in lines[2]
        assert "0.912" in table and "0.100" in table

    def test_column_selection(self):
        rows = [{"a": 1.0, "b": 2.0}]
        table = format_table(rows, columns=["b"])
        assert "a" not in table.splitlines()[0]

    def test_explicit_column_absent_from_all_rows(self):
        # A requested column no row carries renders as empty cells padded to
        # the header width instead of crashing the width computation.
        rows = [{"a": 1.0}, {"a": 2.0}]
        table = format_table(rows, columns=["a", "missing_metric"])
        header, separator, *body = table.splitlines()
        assert "missing_metric" in header
        assert len({len(line) for line in (header, separator, *body)}) == 1
        for line in body:
            assert line.endswith(" " * len("missing_metric"))

    def test_all_columns_absent(self):
        table = format_table([{"a": 1}], columns=["x", "y"])
        header, _separator, body = table.splitlines()
        assert header.split(" | ") == ["x", "y"]
        assert body.replace("|", "").strip() == ""

    def test_explicit_empty_columns_list(self):
        # An explicitly empty selection is honoured (historically it silently
        # fell back to the row keys).
        table = format_table([{"a": 1}], columns=[])
        assert "a" not in table

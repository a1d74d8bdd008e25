"""Smoke tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments.results import ExperimentResult
from repro.experiments.scenario import Scenario
from repro.experiments.suite import Suite


@pytest.fixture()
def tiny_scenario_path(tmp_path):
    Scenario(
        name="cli-smoke",
        num_clients=8,
        samples_per_client=12,
        num_classes=4,
        image_size=12,
        alpha=0.3,
        rounds=2,
        sample_rate=0.5,
        attack="collapois",
        compromised_fraction=0.2,
        trojan_epochs=2,
        seed=3,
        max_test_samples=12,
    ).save(tmp_path / "scenario.json")
    return tmp_path / "scenario.json"


class TestList:
    def test_list_families(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "defense" in out and "attack" in out and "backend" in out

    def test_list_family_members_with_params(self, capsys):
        assert main(["list", "defenses"]) == 0
        out = capsys.readouterr().out
        assert "krum" in out and "num_malicious=1" in out

    def test_unknown_family_fails_cleanly(self, capsys):
        assert main(["list", "gizmos"]) == 2
        assert "unknown component family" in capsys.readouterr().err


class TestRun:
    def test_run_prints_summary(self, tiny_scenario_path, capsys):
        assert main(["run", str(tiny_scenario_path)]) == 0
        out = capsys.readouterr().out
        assert "cli-smoke" in out and "benign_accuracy" in out

    def test_run_with_overrides_and_out(self, tiny_scenario_path, tmp_path, capsys):
        out_path = tmp_path / "results.json"
        rc = main(
            [
                "run",
                str(tiny_scenario_path),
                "--set",
                "defense=norm_bound:max_norm=2.0",
                "--set",
                "rounds=1",
                "--out",
                str(out_path),
            ]
        )
        assert rc == 0
        payload = json.loads(out_path.read_text())
        assert payload["scenario"]["defense"] == "norm_bound"
        assert payload["scenario"]["defense_kwargs"] == {"max_norm": 2.0}
        assert payload["scenario"]["rounds"] == 1
        assert len(payload["history"]["records"]) == 1
        assert "benign_accuracy" in payload["summary"]

    def test_out_file_reloads_as_experiment_result(
        self, tiny_scenario_path, tmp_path, capsys
    ):
        out_path = tmp_path / "results.json"
        assert main(["run", str(tiny_scenario_path), "--out", str(out_path)]) == 0
        result = ExperimentResult.load(out_path)
        assert isinstance(result.config, Scenario)
        assert result.config.name == "cli-smoke"
        assert len(result.history) == 2
        # Lossless: serialising the reloaded result reproduces the file.
        assert result.to_dict() == json.loads(out_path.read_text())

    def test_shards_flag_is_applied(self, tiny_scenario_path, tmp_path, capsys):
        out_path = tmp_path / "results.json"
        rc = main(
            ["run", str(tiny_scenario_path), "--set", "num_shards=4", "--out", str(out_path)]
        )
        assert rc == 0
        assert json.loads(out_path.read_text())["scenario"]["num_shards"] == 4

    def test_shards_flag_rejects_non_positive(self, tiny_scenario_path, capsys):
        assert main(["run", str(tiny_scenario_path), "--set", "num_shards=0"]) == 2
        assert "num_shards" in capsys.readouterr().err

    def test_list_defenses_shows_capabilities(self, capsys):
        assert main(["list", "defenses"]) == 0
        out = capsys.readouterr().out
        assert "caps" in out and "shardable" in out and "buffered" in out

    def test_list_defenses_shows_server_blind_capability(self, capsys):
        assert main(["list", "defenses"]) == 0
        lines = {
            line.split()[0]: line
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        }
        # Sum-folding defenses advertise secagg compatibility; inspection
        # defenses (requires_plaintext_updates) must not.
        for blind in ("mean", "weighted_mean", "norm_bound", "dp", "signsgd", "crfl"):
            assert "server-blind" in lines[blind], blind
        for sighted in ("krum", "median", "trimmed_mean", "rlr", "detector", "flare"):
            assert "server-blind" not in lines[sighted], sighted

    def test_secagg_flag_is_applied(self, tiny_scenario_path, tmp_path, capsys):
        out_path = tmp_path / "results.json"
        rc = main(
            [
                "run", str(tiny_scenario_path),
                "--set", "secure_aggregation=true", "--out", str(out_path),
            ]
        )
        assert rc == 0
        payload = json.loads(out_path.read_text())
        assert payload["scenario"]["secure_aggregation"] is True
        assert payload["ledger"]["totals"]["payload_bytes"] > 0

    def test_secagg_flag_rejects_inspection_defense(self, tiny_scenario_path, capsys):
        rc = main([
            "run", str(tiny_scenario_path),
            "--set", "secure_aggregation=true", "--set", "defense=krum",
        ])
        assert rc == 2
        assert "server-blind" in capsys.readouterr().err

    def test_run_rejects_unknown_scenario_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"allpha": 0.1}')
        assert main(["run", str(bad)]) == 2
        assert "did you mean 'alpha'" in capsys.readouterr().err

    def test_run_missing_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 2


class TestSweep:
    def test_sweep_prints_rows(self, tmp_path, capsys):
        base = Scenario(
            num_clients=8,
            samples_per_client=12,
            num_classes=4,
            image_size=12,
            alpha=0.3,
            rounds=1,
            sample_rate=0.5,
            attack="collapois",
            compromised_fraction=0.2,
            trojan_epochs=2,
            seed=3,
            max_test_samples=12,
        )
        suite_path = tmp_path / "suite.json"
        Suite.grid(base, name="cli-sweep", defense=["mean", "median"]).save(suite_path)
        assert main(["sweep", str(suite_path)]) == 0
        out = capsys.readouterr().out
        assert "cli-sweep" in out and "median" in out and "benign_accuracy" in out

    def test_sweep_out_results_reload_losslessly(self, tmp_path, capsys):
        base = Scenario(
            num_clients=8,
            samples_per_client=12,
            num_classes=4,
            image_size=12,
            alpha=0.3,
            rounds=1,
            sample_rate=0.5,
            seed=3,
            max_test_samples=12,
        )
        suite_path = tmp_path / "suite.json"
        out_path = tmp_path / "sweep_results.json"
        Suite.grid(base, name="cli-sweep", defense=["mean", "median"]).save(suite_path)
        assert main(["sweep", str(suite_path), "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert len(payload["results"]) == 2
        reloaded = [ExperimentResult.from_dict(r) for r in payload["results"]]
        assert [r.config.defense for r in reloaded] == ["mean", "median"]
        for result, raw in zip(reloaded, payload["results"], strict=True):
            assert result.to_dict() == raw
            assert result.summary()["rounds"] == 1.0


class TestListBackendCaps:
    def test_backends_show_capabilities_column(self, capsys):
        assert main(["list", "backends"]) == 0
        out = capsys.readouterr().out
        lines = {line.split()[0]: line for line in out.splitlines() if line.strip()}
        assert "caps" in lines["backend"]
        rows = out.splitlines()[2:]  # below the header and its rule
        assert {row.split()[0] for row in rows if row.strip()} == {
            "batched", "distributed", "serial",
        }
        assert "(none)" in lines["serial"]
        assert "processes" in lines["distributed"]
        assert "multi-host" in lines["distributed"]
        # Cross-client stacked execution advertises itself as a capability.
        assert "batched" in lines["batched"]
        assert "batched" not in lines["serial"]


class TestWorkerSubcommand:
    def test_worker_rejects_malformed_listen_address(self, capsys):
        assert main(["worker", "--listen", "127.0.0.1:notaport"]) == 2
        assert "host:port" in capsys.readouterr().err


class TestTrace:
    def test_telemetry_flag_records_and_trace_renders(
        self, tiny_scenario_path, tmp_path, capsys
    ):
        out_path = tmp_path / "results.json"
        rc = main(
            ["run", str(tiny_scenario_path), "--set", "telemetry=true", "--out", str(out_path)]
        )
        assert rc == 0
        payload = json.loads(out_path.read_text())
        assert payload["scenario"]["telemetry"] is True
        assert payload["telemetry"]["version"] == 1
        assert payload["telemetry"]["spans"]
        capsys.readouterr()

        assert main(["trace", str(out_path)]) == 0
        report = capsys.readouterr().out
        assert "Per-round phase breakdown:" in report
        assert "client_train" in report
        assert "Metrics:" in report

        # A bare RunTelemetry dict (extracted by other tooling) renders too.
        bare = tmp_path / "telemetry.json"
        bare.write_text(json.dumps(payload["telemetry"]))
        assert main(["trace", str(bare), "--top", "1"]) == 0
        assert "Slowest 1 client-training task(s):" in capsys.readouterr().out

    def test_trace_without_telemetry_fails_cleanly(
        self, tiny_scenario_path, tmp_path, capsys
    ):
        out_path = tmp_path / "results.json"
        assert main(["run", str(tiny_scenario_path), "--out", str(out_path)]) == 0
        assert "telemetry" not in json.loads(out_path.read_text())
        capsys.readouterr()
        assert main(["trace", str(out_path)]) == 2
        assert "carries no telemetry" in capsys.readouterr().err

    def test_telemetry_off_is_the_default_and_explicit_off_wins(
        self, tiny_scenario_path, tmp_path, capsys
    ):
        out_path = tmp_path / "results.json"
        rc = main(
            ["run", str(tiny_scenario_path), "--set", "telemetry=false", "--out", str(out_path)]
        )
        assert rc == 0
        assert json.loads(out_path.read_text())["scenario"]["telemetry"] is False


class TestLedgerNotes:
    def test_absent_wire_channel_is_noted(self, tiny_scenario_path, tmp_path, capsys):
        out_path = tmp_path / "results.json"
        assert main(["run", str(tiny_scenario_path), "--out", str(out_path)]) == 0
        capsys.readouterr()
        # A serial run meters only the logical model channel; the report
        # must say why 'wire' is missing rather than imply zero traffic.
        assert main(["ledger", str(out_path)]) == 0
        report = capsys.readouterr().out
        assert "model" in report
        assert "(channel 'wire' absent — recorded only by backend='distributed')" in report
        assert "channel 'model' absent" not in report

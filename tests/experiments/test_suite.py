"""Tests for Suite sweep grids: ordering, reuse, equivalence, round-trip."""

from __future__ import annotations

import pytest

from repro.experiments.attack_comparison import attack_comparison_sweep
from repro.experiments.longevity import RoundSeriesHook, longevity_analysis
from repro.experiments.runner import run_experiment
from repro.experiments.scenario import Scenario
from repro.experiments.suite import Suite


def tiny_scenario(**overrides) -> Scenario:
    base = dict(
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
    )
    base.update(overrides)
    return Scenario(**base)


class TestGrid:
    def test_grid_expands_in_axis_order(self):
        suite = Suite.grid(tiny_scenario(), attack=["dpois", "mrepl"], alpha=[0.1, 0.5])
        cells = suite.cells
        assert cells == [
            {"attack": "dpois", "alpha": 0.1},
            {"attack": "dpois", "alpha": 0.5},
            {"attack": "mrepl", "alpha": 0.1},
            {"attack": "mrepl", "alpha": 0.5},
        ]
        assert len(suite) == 4

    def test_grid_needs_axes(self):
        with pytest.raises(ValueError, match="at least one axis"):
            Suite.grid(tiny_scenario())

    def test_scenarios_resolve_overrides(self):
        suite = Suite.grid(tiny_scenario(), defense=["mean", "krum:num_malicious=1"])
        scenarios = suite.scenarios()
        assert [s.defense for s in scenarios] == ["mean", "krum"]
        assert scenarios[1].defense_kwargs == {"num_malicious": 1}

    def test_filter_drops_cells(self):
        suite = Suite.grid(
            tiny_scenario(), defense=["mean", "krum"], alpha=[0.1, 0.5]
        ).filter(lambda s: s.defense != "krum")
        assert len(suite) == 2
        assert all(s.defense == "mean" for s in suite)

    def test_filter_dropping_everything_leaves_zero_cells(self):
        suite = Suite.grid(tiny_scenario(), defense=["krum", "rlr"]).filter(
            lambda _s: False
        )
        assert len(suite) == 0
        assert suite.run() == []
        assert suite.rows("defense") == []

    def test_empty_grid_axis_means_zero_cells(self):
        assert len(Suite.grid(tiny_scenario(), alpha=[])) == 0
        assert len(Suite(tiny_scenario(), cells=[])) == 0
        # omitting cells entirely still means "run the base once"
        assert len(Suite(tiny_scenario())) == 1

    def test_iteration_yields_scenarios(self):
        suite = Suite.grid(tiny_scenario(), seed=range(3))
        assert [s.seed for s in suite] == [0, 1, 2]


class TestRun:
    def test_results_in_grid_order_with_shared_dataset(self):
        suite = Suite.grid(tiny_scenario(), attack=["none", "dpois"])
        results = suite.run()
        assert [cr.scenario.attack for cr in results] == ["none", "dpois"]
        # one dataset signature -> the same federation object is shared
        d0 = results[0].result.extras["dataset"]
        d1 = results[1].result.extras["dataset"]
        assert d0 is d1

    def test_shared_dataset_results_identical_to_rebuilt(self):
        suite = Suite.grid(tiny_scenario(), attack=["dpois", "mrepl"])
        for cell in suite.run():
            rebuilt = run_experiment(cell.scenario)
            assert rebuilt.extras["dataset"] is not cell.result.extras["dataset"]
            assert cell.result.history.records == rebuilt.history.records

    def test_backend_fanout_override(self):
        suite = Suite.grid(tiny_scenario(), alpha=[0.3])
        (cell,) = suite.run(backend="batched")
        assert cell.scenario.backend == "batched"
        # The worker cap reaches every cell, where batched rejects it.
        with pytest.raises(ValueError, match="backend_workers"):
            suite.run(backend="batched", backend_workers=2)

    def test_hooks_factory_builds_per_cell_hooks(self):
        suite = Suite.grid(tiny_scenario(eval_every=1), attack=["collapois", "mrepl"])
        results = suite.run(hooks_factory=lambda _s: [RoundSeriesHook()])
        hooks = [cr.hooks[0] for cr in results]
        assert hooks[0] is not hooks[1]
        assert all(len(h.rows) == 2 for h in hooks)

    def test_rows_orders_fields_then_metrics(self):
        suite = Suite.grid(tiny_scenario(), attack=["dpois"])
        (row,) = suite.rows("attack", "alpha")
        assert list(row) == ["attack", "alpha", "benign_accuracy", "attack_success_rate"]


class TestSweepEquivalence:
    def test_attack_comparison_matches_hand_rolled_loop(self):
        base = tiny_scenario()
        rows = attack_comparison_sweep(base, alphas=[0.3, 1.0], attacks=["dpois"])
        expected = []
        for attack in ["dpois"]:
            for alpha in [0.3, 1.0]:
                config = base.with_overrides(attack=attack, alpha=alpha)
                result = run_experiment(config)
                expected.append(
                    {
                        "attack": attack,
                        "alpha": alpha,
                        "algorithm": config.algorithm,
                        "benign_accuracy": result.benign_accuracy,
                        "attack_success_rate": result.attack_success_rate,
                    }
                )
        assert rows == expected

    def test_longevity_series_keyed_by_attack(self):
        series = longevity_analysis(
            tiny_scenario(), attacks=["collapois"], eval_every=1
        )
        assert set(series) == {"collapois"}
        assert [row["round"] for row in series["collapois"]] == [0, 1]


class TestSerialization:
    def test_grid_round_trip(self):
        suite = Suite.grid(
            tiny_scenario(),
            name="landscape",
            defense=["mean", ("krum", {"num_malicious": 1})],
            alpha=[0.3],
        )
        restored = Suite.from_json(suite.to_json())
        assert restored.name == "landscape"
        assert restored.base == suite.base
        assert [s.defense for s in restored] == [s.defense for s in suite]
        assert [s.defense_kwargs for s in restored] == [
            s.defense_kwargs for s in suite
        ]

    def test_explicit_cells_round_trip(self):
        suite = Suite(tiny_scenario(), cells=[{"alpha": 0.2}, {"alpha": 0.7}])
        restored = Suite.from_dict(suite.to_dict())
        assert restored.cells == suite.cells

    def test_save_load(self, tmp_path):
        suite = Suite.grid(tiny_scenario(), alpha=[0.2, 0.7])
        path = tmp_path / "suite.json"
        suite.save(path)
        assert Suite.load(path).cells == suite.cells

    def test_unknown_suite_key_rejected(self):
        with pytest.raises(ValueError, match="unknown suite key"):
            Suite.from_dict({"base": {}, "grdi": {}})

    def test_suite_requires_base(self):
        with pytest.raises(ValueError, match="'base'"):
            Suite.from_dict({"grid": {"alpha": [0.1]}})

    def test_cells_and_grid_mutually_exclusive(self):
        with pytest.raises(ValueError, match="either cells or grid"):
            Suite(tiny_scenario(), cells=[{}], grid={"alpha": [0.1]})

"""Integration tests: the paper's headline claims on tiny federations.

These tests run complete federated-training experiments (a few rounds, a few
dozen clients) and assert the *qualitative* results of the paper: CollaPois
transfers the backdoor where baselines do not, converges the global model
toward the Trojaned model, stays stealthy against statistical detection, and
hurts clients whose data resembles the attacker's auxiliary data the most.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.statistics import gradient_indistinguishability
from repro.core.stealth import blend_statistics
from repro.experiments.gradient_geometry import _collect_round_updates
from repro.experiments.runner import run_experiment
from repro.experiments.scenario import Scenario
from repro.federated.client import LocalTrainingConfig
from repro.metrics.client_level import top_k_metrics
from repro.metrics.gradients import angle_summary


@pytest.fixture(scope="module")
def attack_config():
    return Scenario(
        dataset="femnist",
        num_clients=16,
        samples_per_client=30,
        num_classes=8,
        image_size=16,
        alpha=0.3,
        rounds=12,
        sample_rate=0.4,
        attack="collapois",
        compromised_fraction=0.15,
        trojan_epochs=10,
        local=LocalTrainingConfig(epochs=1, batch_size=8, lr=0.05),
        max_test_samples=20,
        seed=3,
    )


@pytest.fixture(scope="module")
def collapois_result(attack_config):
    return run_experiment(attack_config)


@pytest.fixture(scope="module")
def dpois_result(attack_config):
    return run_experiment(attack_config.with_overrides(attack="dpois"))


@pytest.fixture(scope="module")
def clean_result(attack_config):
    return run_experiment(attack_config.with_overrides(attack="none"))


class TestHeadlineClaims:
    def test_collapois_transfers_backdoor(self, collapois_result):
        assert collapois_result.attack_success_rate > 0.5

    def test_collapois_beats_dpois(self, collapois_result, dpois_result):
        assert collapois_result.attack_success_rate > dpois_result.attack_success_rate + 0.2

    def test_clean_training_has_no_backdoor(self, clean_result):
        assert clean_result.attack_success_rate < 0.25

    def test_collapois_preserves_benign_accuracy(self, collapois_result, clean_result):
        assert collapois_result.benign_accuracy > clean_result.benign_accuracy - 0.2

    def test_global_model_converges_toward_trojan(self, collapois_result):
        attack = collapois_result.extras["attack"]
        server = collapois_result.extras["server"]
        initial_model = server.model_factory()
        from repro.nn.serialization import flatten_params

        initial_distance = attack.distance_to_trojan(flatten_params(initial_model))
        final_distance = attack.distance_to_trojan(server.global_params)
        assert final_distance < initial_distance

    def test_top25_clients_hit_harder_than_average(self, collapois_result):
        overall = collapois_result.attack_success_rate
        top25 = top_k_metrics(collapois_result.evaluation, 25.0)["attack_success_rate"]
        assert top25 >= overall


class TestDefensesIntegration:
    def test_krum_suppresses_attack_but_costs_accuracy(self, attack_config, collapois_result):
        defended = run_experiment(
            attack_config.with_overrides(defense="krum", defense_kwargs={"multi": 2})
        )
        assert defended.attack_success_rate < collapois_result.attack_success_rate
        assert defended.benign_accuracy <= collapois_result.benign_accuracy + 0.05

    def test_norm_bound_leaves_attack_effective(self, attack_config):
        # Norm bounding only slows the pull toward X; given enough rounds the
        # backdoor still transfers (the paper's Fig. 9/16 finding).
        defended = run_experiment(
            attack_config.with_overrides(
                rounds=30, defense="norm_bound", defense_kwargs={"max_norm": 2.0}
            )
        )
        assert defended.attack_success_rate > 0.4


class TestPersonalizedAlgorithms:
    def test_feddc_mitigates_dpois_more_than_collapois(self, attack_config):
        feddc_collapois = run_experiment(attack_config.with_overrides(algorithm="feddc"))
        feddc_dpois = run_experiment(
            attack_config.with_overrides(algorithm="feddc", attack="dpois")
        )
        assert feddc_collapois.attack_success_rate > feddc_dpois.attack_success_rate

    def test_metafed_still_vulnerable_to_collapois(self, attack_config):
        result = run_experiment(attack_config.with_overrides(algorithm="metafed", rounds=8))
        assert result.attack_success_rate > 0.3


class TestGradientGeometryIntegration:
    def test_malicious_gradients_more_aligned_than_benign(self, attack_config):
        collected = _collect_round_updates(attack_config.with_overrides(rounds=1), "collapois")
        benign_spread = angle_summary(collected["benign"])["mean"]
        malicious_spread = angle_summary(collected["malicious"])["mean"]
        assert malicious_spread < benign_spread

    def test_benign_gradients_scatter_more_when_non_iid(self, attack_config):
        diverse = _collect_round_updates(attack_config.with_overrides(alpha=0.05), "collapois")
        uniform = _collect_round_updates(attack_config.with_overrides(alpha=50.0), "collapois")
        assert angle_summary(diverse["benign"])["mean"] > angle_summary(uniform["benign"])["mean"]

    def test_statistical_indistinguishability_of_norms(self, attack_config):
        config = attack_config.with_overrides(
            clip_bound=0.5, psi_low=0.95, psi_high=0.99
        )
        collected = _collect_round_updates(config, "collapois")
        stats = blend_statistics(collected["malicious"], collected["benign"])
        # With clipping on, malicious norms stay within the benign range.
        assert stats["malicious_norm_mean"] <= 2.5 * stats["benign_norm_mean"] + 1e-9
        norm_report = gradient_indistinguishability(
            np.linalg.norm(collected["malicious"], axis=1),
            np.linalg.norm(collected["benign"], axis=1),
        )
        assert norm_report["three_sigma_outlier_fraction"] < 0.5

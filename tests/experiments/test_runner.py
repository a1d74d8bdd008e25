"""Unit tests for the experiment runner building blocks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.dba import DBAAttack
from repro.attacks.dpois import DPoisAttack
from repro.attacks.mrepl import MReplAttack
from repro.attacks.triggers import TokenTrigger, WarpingTrigger
from repro.core.collapois import CollaPoisAttack
from repro.experiments.runner import (
    build_attack,
    build_dataset,
    build_model_factory,
    build_trigger,
    run_experiment,
    select_compromised_clients,
)
from repro.experiments.scenario import Scenario


class TestBuilders:
    def test_build_dataset_femnist(self, tiny_config):
        dataset, generator = build_dataset(tiny_config)
        assert dataset.num_clients == tiny_config.num_clients
        assert dataset.num_classes == tiny_config.num_classes

    def test_build_dataset_sentiment(self):
        config = Scenario(dataset="sentiment", num_clients=6, samples_per_client=20)
        dataset, generator = build_dataset(config)
        assert dataset.num_classes == 2
        assert dataset.input_shape == (generator.embedding_dim,)

    def test_model_factory_produces_identical_models(self, tiny_config):
        _, generator = build_dataset(tiny_config)
        factory = build_model_factory(tiny_config, generator)
        from repro.nn.serialization import flatten_params

        np.testing.assert_allclose(flatten_params(factory()), flatten_params(factory()))

    def test_model_factory_matches_input_shape(self, tiny_config):
        dataset, generator = build_dataset(tiny_config)
        model = build_model_factory(tiny_config, generator)()
        sample = dataset.client(0).train.x[:2]
        assert model.forward(sample).shape == (2, tiny_config.num_classes)

    def test_trigger_matches_modality(self, tiny_config):
        _, generator = build_dataset(tiny_config)
        assert isinstance(build_trigger(tiny_config, generator), WarpingTrigger)
        sentiment = Scenario(dataset="sentiment", num_clients=6, samples_per_client=20)
        _, text_gen = build_dataset(sentiment)
        assert isinstance(build_trigger(sentiment, text_gen), TokenTrigger)

    @pytest.mark.parametrize(
        "name,cls",
        [
            ("collapois", CollaPoisAttack),
            ("dpois", DPoisAttack),
            ("mrepl", MReplAttack),
            ("dba", DBAAttack),
        ],
    )
    def test_build_attack_types(self, tiny_config, name, cls):
        config = tiny_config.with_overrides(attack=name)
        assert isinstance(build_attack(config), cls)

    def test_build_attack_none(self, tiny_config):
        assert build_attack(tiny_config) is None


class TestSelectCompromised:
    def test_fraction_zero_gives_empty(self):
        assert select_compromised_clients(100, 0.0) == []

    def test_at_least_one_client(self):
        assert len(select_compromised_clients(100, 0.001)) == 1

    def test_count_matches_fraction(self):
        assert len(select_compromised_clients(100, 0.1, seed=3)) == 10

    def test_never_compromises_everyone(self):
        chosen = select_compromised_clients(5, 0.99)
        assert len(chosen) < 5

    def test_deterministic_for_seed(self):
        assert select_compromised_clients(50, 0.1, seed=4) == select_compromised_clients(50, 0.1, seed=4)


class TestRunExperiment:
    def test_clean_run_reaches_reasonable_accuracy(self, tiny_config):
        result = run_experiment(tiny_config)
        assert result.benign_accuracy > 0.5
        assert result.attack_success_rate < 0.3
        assert len(result.history) == tiny_config.rounds
        assert result.compromised_ids == []

    def test_attacked_run_excludes_compromised_from_evaluation(self, tiny_config):
        config = tiny_config.with_overrides(attack="collapois", rounds=4)
        result = run_experiment(config)
        assert result.compromised_ids
        assert not set(result.compromised_ids) & set(result.evaluation.client_ids)

    def test_eval_every_populates_history(self, tiny_config):
        config = tiny_config.with_overrides(attack="collapois", rounds=4, eval_every=2)
        result = run_experiment(config)
        evaluated = [r for r in result.history.records if r.benign_accuracy is not None]
        assert len(evaluated) == 2

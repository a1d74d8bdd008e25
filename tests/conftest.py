"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

# Fallback so the tests run from a source checkout even when the package has
# not been installed (e.g. straight after cloning).
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.data.femnist import SyntheticFEMNIST
from repro.data.sentiment import SyntheticSentiment
from repro.experiments.scenario import Scenario
from repro.federated.client import LocalTrainingConfig
from repro.federated.population import EagerPopulation
from repro.nn.layers import Flatten
from repro.nn.model import Sequential, make_mlp


@pytest.fixture(scope="session")
def femnist_generator():
    return SyntheticFEMNIST(num_classes=5, image_size=12, seed=3)


@pytest.fixture(scope="session")
def sentiment_generator():
    return SyntheticSentiment(num_classes=2, vocab_size=80, embedding_dim=16, seed=3)


@pytest.fixture(scope="session")
def small_federation(femnist_generator):
    """A small non-IID FEMNIST-like federation shared across tests."""
    return EagerPopulation(
        femnist_generator, num_clients=8, samples_per_client=24, alpha=0.3, seed=11
    )


@pytest.fixture(scope="session")
def iid_federation(femnist_generator):
    """An IID-ish federation (large alpha) for comparison tests."""
    return EagerPopulation(
        femnist_generator, num_clients=8, samples_per_client=24, alpha=50.0, seed=11
    )


@pytest.fixture()
def image_model_factory(femnist_generator):
    """Factory for small MLP classifiers over the synthetic FEMNIST images."""
    image_size = femnist_generator.image_size
    num_classes = femnist_generator.num_classes

    def factory():
        mlp = make_mlp(image_size * image_size, (24,), num_classes, seed=5)
        return Sequential([Flatten(), *mlp.layers])

    return factory


@pytest.fixture()
def tiny_config():
    """A fast Scenario used by the integration tests."""
    return Scenario(
        dataset="femnist",
        num_clients=10,
        samples_per_client=24,
        num_classes=6,
        image_size=16,
        alpha=0.3,
        rounds=6,
        sample_rate=0.5,
        attack="none",
        compromised_fraction=0.1,
        trojan_epochs=6,
        local=LocalTrainingConfig(epochs=1, batch_size=8, lr=0.05),
        max_test_samples=20,
        seed=1,
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(0)

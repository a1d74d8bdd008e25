"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at a reduced,
laptop-friendly scale (tens of clients, tens of rounds instead of thousands
of clients and hundreds of rounds).  The *shape* of each result — who wins,
roughly by how much, and in which direction trends move — is asserted; the
measured rows are printed as a table (run with ``-s`` to see them).
"""

from __future__ import annotations

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.experiments.scenario import Scenario
from repro.federated.client import LocalTrainingConfig


@pytest.fixture(scope="session")
def femnist_bench_config():
    """Reduced-scale stand-in for the paper's FEMNIST setting."""
    return Scenario(
        dataset="femnist",
        num_clients=24,
        samples_per_client=36,
        num_classes=6,
        image_size=16,
        alpha=0.2,
        rounds=18,
        sample_rate=0.3,
        attack="collapois",
        compromised_fraction=0.125,
        trojan_epochs=12,
        local=LocalTrainingConfig(epochs=1, batch_size=8, lr=0.05),
        max_test_samples=25,
        seed=7,
    )


@pytest.fixture(scope="session")
def sentiment_bench_config():
    """Reduced-scale stand-in for the paper's Sentiment setting."""
    return Scenario(
        dataset="sentiment",
        num_clients=24,
        samples_per_client=36,
        alpha=0.2,
        rounds=18,
        sample_rate=0.3,
        attack="collapois",
        compromised_fraction=0.125,
        trojan_epochs=12,
        local=LocalTrainingConfig(epochs=1, batch_size=8, lr=0.05),
        max_test_samples=25,
        seed=7,
    )


ALPHA_SWEEP = [0.05, 0.5, 5.0]

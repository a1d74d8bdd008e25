"""Data substrate: datasets, generators, non-IID partitioning, client data.

The paper evaluates on FEMNIST (image) and Sentiment140 (text), partitioned
over thousands of clients with a symmetric Dirichlet(α) label-distribution
skew.  Neither dataset is available offline, so this package provides
*synthetic equivalents* that preserve the properties the attack exploits:

* class-separable, learnable inputs (prototype + noise images, class-
  conditional embedding clusters for text);
* exact symmetric-Dirichlet label skew across clients, controlled by the same
  concentration parameter α used in the paper;
* per-client train / test / validation splits (70 / 15 / 15) and an auxiliary
  set pooled from the compromised clients' validation data, as in Section V.

The federation itself — which clients exist and which class counts each
holds — is a :class:`~repro.federated.population.ClientPopulation`, built
over one of these generators.
"""

from repro.data.dataset import Dataset, train_test_val_split
from repro.data.federated_data import ClientData
from repro.data.femnist import SyntheticFEMNIST
from repro.data.partition import dirichlet_label_partition, label_distribution, partition_sizes
from repro.data.sentiment import SyntheticSentiment

__all__ = [
    "Dataset",
    "train_test_val_split",
    "ClientData",
    "SyntheticFEMNIST",
    "SyntheticSentiment",
    "dirichlet_label_partition",
    "label_distribution",
    "partition_sizes",
]

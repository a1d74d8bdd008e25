"""One federated client's data: train / test / validation splits and label counts.

A :class:`~repro.federated.population.ClientPopulation` builds every
:class:`ClientData` the library uses, from a synthetic generator, the
client's class counts under the Dirichlet partition, and the 70 / 15 / 15
split; the attacker's auxiliary dataset is the union of the compromised
clients' validation sets (as specified in Section V of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import Dataset


@dataclass
class ClientData:
    """All data belonging to a single federated client."""

    client_id: int
    train: Dataset
    test: Dataset
    val: Dataset
    class_counts: np.ndarray

    @property
    def num_samples(self) -> int:
        return len(self.train) + len(self.test) + len(self.val)

"""Centralised training of the Trojaned model X (Eq. 1 of the paper).

The attacker pools the compromised clients' auxiliary data, poisons it with
the trigger, and trains a model of the same architecture as the global FL
model until it fits both the clean and the Trojaned samples.  The resulting
flat parameter vector X is what CollaPois and MRepl steer the federation
toward.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.federated.client import train_epochs
from repro.nn.optim import SGD
from repro.nn.serialization import flatten_params, unflatten_params


def train_trojan_model(
    model_factory,
    poisoned_data: Dataset,
    epochs: int = 10,
    lr: float = 0.05,
    batch_size: int = 16,
    momentum: float = 0.9,
    seed: int = 0,
    init_params: np.ndarray | None = None,
) -> np.ndarray:
    """Train the Trojaned model X and return its flat parameter vector.

    Parameters
    ----------
    model_factory:
        Callable returning a fresh model with the global architecture (the
        attacker learns the architecture through the compromised clients).
    poisoned_data:
        ``Da ∪ Da_Troj`` — clean auxiliary samples plus triggered samples
        relabelled to the target class (see
        :func:`repro.attacks.triggers.poison_dataset`).
    epochs, lr, batch_size, momentum:
        Centralised training hyper-parameters.
    seed:
        Randomness seed for shuffling.
    init_params:
        Optional flat vector to initialise from (e.g. the current global
        model, for a "semi-ready" Trojaned model as discussed in Section VI).

    Returns
    -------
    numpy.ndarray
        Flat parameter vector of the trained Trojaned model X — the trained
        parameters themselves, not ``init + Δθ``, which is not bit-exact.
    """
    if len(poisoned_data) == 0:
        raise ValueError("cannot train a Trojaned model on an empty dataset")
    if epochs <= 0:
        raise ValueError("epochs must be positive")
    model = model_factory()
    if init_params is not None:
        unflatten_params(model, init_params)
    optimiser = SGD(model, lr=lr, momentum=momentum)
    train_epochs(
        model, poisoned_data, optimiser, epochs, batch_size,
        np.random.default_rng(seed),
    )
    return flatten_params(model)


def trojan_model_quality(
    model_factory,
    trojan_params: np.ndarray,
    clean_data: Dataset,
    triggered_data: Dataset,
) -> dict[str, float]:
    """Accuracy of X on clean data and on triggered (target-labelled) data.

    Used to verify that the Trojaned model behaves like a clean model on
    legitimate inputs while predicting the target class on triggered inputs —
    the defining property of a backdoored model.
    """
    model = model_factory()
    unflatten_params(model, trojan_params)
    metrics: dict[str, float] = {}
    if len(clean_data):
        metrics["clean_accuracy"] = float((model.predict(clean_data.x) == clean_data.y).mean())
    if len(triggered_data):
        metrics["trojan_accuracy"] = float(
            (model.predict(triggered_data.x) == triggered_data.y).mean()
        )
    return metrics

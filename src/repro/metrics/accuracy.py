"""Benign accuracy and attack success rate (Section V of the paper).

Benign AC is the accuracy of each client's (personalised) model on its own
clean test data; Attack SR is the fraction of that client's triggered test
samples classified as the attacker's target class.  Both are reported per
client and averaged over the federation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.attacks.triggers import Trigger
from repro.federated.population.base import ClientPopulation
from repro.nn.serialization import unflatten_params
from repro.registry import reject_unknown_keys


@dataclass
class ClientEvaluation:
    """Per-client and aggregate evaluation results."""

    benign_accuracy: np.ndarray
    attack_success_rate: np.ndarray
    client_ids: list[int] = field(default_factory=list)

    @property
    def mean_benign_accuracy(self) -> float:
        return float(np.mean(self.benign_accuracy)) if self.benign_accuracy.size else 0.0

    @property
    def mean_attack_success_rate(self) -> float:
        return float(np.mean(self.attack_success_rate)) if self.attack_success_rate.size else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "benign_accuracy": self.mean_benign_accuracy,
            "attack_success_rate": self.mean_attack_success_rate,
        }

    def to_dict(self) -> dict:
        """Full per-client JSON form (unlike :meth:`as_dict`, which averages).

        Float64 values survive the JSON round-trip losslessly (``repr``-based
        serialisation is shortest-round-trip exact).
        """
        return {
            "benign_accuracy": [float(v) for v in self.benign_accuracy],
            "attack_success_rate": [float(v) for v in self.attack_success_rate],
            "client_ids": [int(c) for c in self.client_ids],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClientEvaluation":
        reject_unknown_keys(
            data,
            {"benign_accuracy", "attack_success_rate", "client_ids"},
            "client-evaluation",
        )
        return cls(
            benign_accuracy=np.asarray(data.get("benign_accuracy", []), dtype=np.float64),
            attack_success_rate=np.asarray(
                data.get("attack_success_rate", []), dtype=np.float64
            ),
            client_ids=[int(c) for c in data.get("client_ids", [])],
        )


def _evaluate_params_on_client(
    model,
    params: np.ndarray,
    test_x: np.ndarray,
    test_y: np.ndarray,
    trigger: Trigger | None,
    target_class: int | None,
) -> tuple[float, float]:
    """(benign accuracy, attack success rate) for one client's test data."""
    if test_x.shape[0] == 0:
        return 0.0, 0.0
    unflatten_params(model, params)
    preds = model.predict(test_x)
    benign_acc = float((preds == test_y).mean())
    attack_sr = 0.0
    if trigger is not None and target_class is not None:
        # Exclude samples already belonging to the target class so the attack
        # success rate measures genuine label flips.
        mask = test_y != target_class
        if mask.any():
            triggered = trigger.apply(test_x[mask])
            troj_preds = model.predict(triggered)
            attack_sr = float((troj_preds == target_class).mean())
    return benign_acc, attack_sr


def evaluate_clients(
    dataset: ClientPopulation,
    model,
    params_fn,
    trigger: Trigger | None = None,
    target_class: int | None = None,
    client_ids: list[int] | None = None,
    max_test_samples: int | None = None,
) -> ClientEvaluation:
    """Evaluate every (benign) client with its own personalised parameters.

    Parameters
    ----------
    dataset:
        The federation.
    model:
        Reusable model instance whose parameters are overwritten per client.
    params_fn:
        Callable ``client_id -> flat parameter vector`` returning the model
        the client would deploy (global model for FedAvg, personalised model
        for FedDC/MetaFed).
    trigger, target_class:
        The backdoor trigger and target label; when omitted only Benign AC is
        computed.
    client_ids:
        Which clients to evaluate (default: all).
    max_test_samples:
        Optional cap on the number of test samples per client (keeps large
        sweeps fast).
    """
    ids = list(client_ids) if client_ids is not None else list(range(dataset.num_clients))
    benign = np.zeros(len(ids), dtype=np.float64)
    attack = np.zeros(len(ids), dtype=np.float64)
    for pos, client_id in enumerate(ids):
        client = dataset.client(client_id)
        test_x, test_y = client.test.x, client.test.y
        if max_test_samples is not None and test_x.shape[0] > max_test_samples:
            test_x = test_x[:max_test_samples]
            test_y = test_y[:max_test_samples]
        params = params_fn(client_id)
        benign[pos], attack[pos] = _evaluate_params_on_client(
            model, params, test_x, test_y, trigger, target_class
        )
    return ClientEvaluation(benign_accuracy=benign, attack_success_rate=attack, client_ids=ids)


def evaluate_global_model(
    dataset: ClientPopulation,
    model,
    global_params: np.ndarray,
    trigger: Trigger | None = None,
    target_class: int | None = None,
    client_ids: list[int] | None = None,
    max_test_samples: int | None = None,
) -> ClientEvaluation:
    """Evaluate the *global* model on every client's test data (FedAvg view)."""
    return evaluate_clients(
        dataset,
        model,
        params_fn=lambda _cid: global_params,
        trigger=trigger,
        target_class=target_class,
        client_ids=client_ids,
        max_test_samples=max_test_samples,
    )

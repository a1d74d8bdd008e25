"""Attack interface shared by CollaPois and the baseline attacks.

An attack is configured once (``setup``) with everything the threat model
grants the attacker — the compromised clients' local data, the model
architecture (learned through the compromised clients), the trigger, and the
target class — and is then queried each round for the malicious update a
sampled compromised client submits to the server.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.attacks.triggers import Trigger
from repro.federated.client import LocalTrainingConfig
from repro.federated.population.base import ClientPopulation


@dataclass
class AttackContext:
    """Static attacker knowledge assembled by :meth:`BackdoorAttack.setup`."""

    dataset: ClientPopulation
    compromised_ids: list[int]
    trigger: Trigger
    target_class: int
    local_config: LocalTrainingConfig
    seed: int = 0
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.compromised_ids:
            raise ValueError("an attack needs at least one compromised client")
        if not 0 <= self.target_class < self.dataset.num_classes:
            raise ValueError("target_class out of range")


class BackdoorAttack:
    """Base class for all backdoor attacks."""

    name = "attack"

    def __init__(self) -> None:
        self.context: AttackContext | None = None
        self.model_factory = None

    def setup(
        self,
        dataset: ClientPopulation,
        compromised_ids: list[int],
        model_factory,
        trigger: Trigger,
        target_class: int,
        local_config: LocalTrainingConfig | None = None,
        seed: int = 0,
    ) -> None:
        """Configure the attack; subclasses extend this with their own prep."""
        self.context = AttackContext(
            dataset=dataset,
            compromised_ids=list(compromised_ids),
            trigger=trigger,
            target_class=target_class,
            local_config=local_config or LocalTrainingConfig(),
            seed=seed,
        )
        self.model_factory = model_factory

    def _require_context(self) -> AttackContext:
        if self.context is None or self.model_factory is None:
            raise RuntimeError(f"{self.name}: setup() must be called before use")
        return self.context

    def compute_update(
        self,
        client_id: int,
        global_params: np.ndarray,
        round_idx: int,
        model,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Malicious update Δθ submitted by compromised client ``client_id``."""
        raise NotImplementedError

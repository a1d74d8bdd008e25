"""Round planning: the value objects handed to and from an execution backend.

The server turns each sampled round into a :class:`RoundPlan` — an immutable
description of *what* has to be computed — and hands it to an
:class:`~repro.federated.engine.backends.ExecutionBackend`, which decides
*how* (serially, as one stacked model, on worker processes).  Determinism lives
entirely in the plan: every task carries the seed of its private RNG stream,
derived from ``(run seed, round, client)`` by :mod:`repro.federated.rng`, so
the computed updates do not depend on execution order or placement.

Each executed :class:`ClientTask` comes back as one :class:`ClientUpdate`,
built by :meth:`ClientTask.update` where the client's training data is in
hand, so its example count never needs a second dataset lookup.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.federated.rng import client_stream_seed


@dataclass(frozen=True)
class ClientTask:
    """One client's work item within a round.

    ``slot`` is the client's position in the round's aggregation order; the
    aggregator folds updates in it, so the result is identical across
    backends whatever order clients finish in.
    """

    client_id: int
    round_idx: int
    rng_seed: int
    malicious: bool
    slot: int

    def rng(self) -> np.random.Generator:
        """Fresh generator for this task's private random stream."""
        return np.random.default_rng(self.rng_seed)

    def update(
        self, vector: np.ndarray, num_examples: int, loss: float | None = None
    ) -> ClientUpdate:
        """This task's :class:`ClientUpdate` (shares ``vector``, no copy)."""
        return ClientUpdate(
            client_id=self.client_id,
            slot=self.slot,
            update=vector,
            num_examples=num_examples,
            loss=loss,
            malicious=self.malicious,
        )


@dataclass(frozen=True)
class RoundPlan:
    """Immutable description of one federated round's client work.

    ``latencies`` (aligned with ``sampled_clients``; empty means all-zero)
    are the participation model's deterministic per-(seed, round, client)
    latency draws.  Execution backends ignore them — they only order
    *aggregation* under ``aggregation_mode="buffered_async"``, where the
    server folds the first K arrivals by ``(latency, slot)`` and carries the
    rest into the next round.
    """

    round_idx: int
    sampled_clients: tuple[int, ...]
    tasks: tuple[ClientTask, ...]
    latencies: tuple[float, ...] = ()

    @property
    def benign_tasks(self) -> tuple[ClientTask, ...]:
        return tuple(t for t in self.tasks if not t.malicious)

    @property
    def malicious_tasks(self) -> tuple[ClientTask, ...]:
        return tuple(t for t in self.tasks if t.malicious)

    @property
    def compromised_sampled(self) -> list[int]:
        return [t.client_id for t in self.malicious_tasks]

    def __len__(self) -> int:
        return len(self.tasks)


@dataclass
class ClientUpdate:
    """One client's contribution to a round, as the aggregation layer sees it.

    This is the unit flowing between the engine and the server's fold loop
    (:meth:`ExecutionBackend.iter_updates` yields these as clients finish).
    ``slot`` is the client's sampled-slot index — its position in the
    round's canonical aggregation order — which is what lets an
    :class:`~repro.defenses.base.Aggregator` fold out-of-order arrivals
    deterministically.  ``num_examples`` is the size of the client's local
    training set (``0`` when unknown); ``loss`` is the final-epoch training
    loss of a benign client and ``None`` for a malicious one (attacks report
    no loss); ``metadata`` carries per-client extras for hooks and
    weighted/defensive aggregators.
    """

    client_id: int
    slot: int
    update: np.ndarray
    num_examples: int = 0
    loss: float | None = None
    malicious: bool = False
    metadata: dict = field(default_factory=dict)

    @property
    def weight(self) -> float:
        """Aggregation weight (the example count; ``0.0`` means unweighted)."""
        return float(self.num_examples)


def build_round_plan(
    round_idx: int,
    sampled_clients: Iterable[int],
    compromised_ids: set[int] | frozenset[int],
    seed: int,
    attack_active: bool,
    latencies: Iterable[float] | None = None,
) -> RoundPlan:
    """Build the task list for one round in aggregation order."""
    sampled = tuple(int(c) for c in sampled_clients)
    lat = tuple(float(x) for x in latencies) if latencies else ()
    if lat and len(lat) != len(sampled):
        raise ValueError("latencies must align with sampled_clients")
    tasks = tuple(
        ClientTask(
            client_id=client_id,
            round_idx=round_idx,
            rng_seed=client_stream_seed(seed, round_idx, client_id),
            malicious=attack_active and client_id in compromised_ids,
            slot=slot,
        )
        for slot, client_id in enumerate(sampled)
    )
    return RoundPlan(
        round_idx=round_idx, sampled_clients=sampled, tasks=tasks, latencies=lat
    )

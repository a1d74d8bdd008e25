"""Interface shared by the federated training algorithms.

The server round loop (:mod:`repro.federated.server`) is algorithm-agnostic:
an algorithm decides (a) how a *benign* client turns the global model into a
local update, (b) what per-client state it keeps across rounds, and (c) how a
client's *personalised* model — the one the paper evaluates Benign AC and
Attack SR on — is derived from the global model at evaluation time.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.federated.client import LocalTrainingConfig


class FederatedAlgorithm:
    """Base class for FedAvg / FedDC / MetaFed."""

    name = "base"

    def init_state(self, num_clients: int, param_dim: int) -> None:
        """Allocate per-client state (called once before training)."""

    def benign_update(
        self,
        client_id: int,
        model,
        global_params: np.ndarray,
        data: Dataset,
        config: LocalTrainingConfig,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, float]:
        """Compute a benign client's local update ``Δθ`` and training loss."""
        raise NotImplementedError

    def benign_batch_spec(
        self, client_id: int, config: LocalTrainingConfig
    ) -> tuple[LocalTrainingConfig, np.ndarray | None] | None:
        """Describe how this client's benign update maps onto batched training.

        The batched execution path (:mod:`repro.federated.engine.batched`)
        replaces per-client :meth:`benign_update` calls with one stacked
        :func:`~repro.federated.client.local_train_batched` call.  That is
        only valid when the algorithm's benign path *is* ``local_train`` —
        algorithms whose benign path does something else return ``None``
        (the default) and the runner falls back to per-client execution.
        Otherwise the return value is the ``(local_config, drift)`` pair
        :meth:`benign_update` would hand to ``local_train`` for this client.
        """
        return None

    def client_benign_state(self, client_id: int) -> np.ndarray | None:
        """Per-client state that :meth:`benign_update` reads, or ``None``.

        Algorithms whose benign path is a pure function of the global
        parameters (FedAvg, MetaFed — their per-client state only feeds
        ``post_aggregate``/``personalized_params``, which run in the driver)
        return ``None``.  Algorithms like FedDC, whose local training reads
        mutable per-client state, return that client's state vector so the
        distributed backend can ship it with the task and a remote worker
        reproduces the driver's computation bit-for-bit.
        """
        return None

    def set_client_benign_state(self, client_id: int, state: np.ndarray) -> None:
        """Install a shipped per-client state vector (worker side).

        Only called with vectors produced by :meth:`client_benign_state`, so
        the default (stateless) implementation never runs.
        """
        raise NotImplementedError(
            f"{type(self).__name__} declares no per-client benign state"
        )

    def post_aggregate(
        self,
        global_params: np.ndarray,
        updates_by_client: dict[int, np.ndarray],
    ) -> None:
        """Update per-client state after the server aggregated a round."""

    def personalized_params(
        self,
        client_id: int,
        global_params: np.ndarray,
        model,
        data: Dataset,
        config: LocalTrainingConfig,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Parameters of the client's personalised model used for evaluation."""
        raise NotImplementedError


def consumes_updates(algorithm) -> bool:
    """Whether ``algorithm`` (a class or an instance) reads per-client updates.

    True when it overrides :meth:`FederatedAlgorithm.post_aggregate` (FedDC,
    MetaFed).  Secure aggregation withholds those updates from the server,
    so :class:`~repro.experiments.scenario.Scenario` and
    :class:`~repro.federated.server.FederatedServer` reject the pair through
    this one check, and the server retains a round's updates only for an
    algorithm (or a hook) that consumes them.
    """
    cls = algorithm if isinstance(algorithm, type) else type(algorithm)
    return cls.post_aggregate is not FederatedAlgorithm.post_aggregate

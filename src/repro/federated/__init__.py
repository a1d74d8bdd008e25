"""Federated learning substrate.

Implements the synchronous, sampled-client FL protocol from Algorithm 1 of
the paper: at each round the server sends the global model to a sampled set
of clients, benign clients run ``K`` local SGD steps and return their updates,
compromised clients return whatever the active attack produces, and the
server aggregates (optionally through a robust-aggregation defense).

Three training algorithms are provided, matching the paper's evaluation:

* :class:`~repro.federated.algorithms.fedavg.FedAvg`
* :class:`~repro.federated.algorithms.feddc.FedDC` (drift decoupling and
  correction — regularisation-based personalisation)
* :class:`~repro.federated.algorithms.metafed.MetaFed` (cyclic knowledge
  distillation — knowledge-distillation-based personalisation)
"""

from repro.federated.algorithms.base import FederatedAlgorithm
from repro.federated.algorithms.fedavg import FedAvg
from repro.federated.algorithms.feddc import FedDC
from repro.federated.algorithms.metafed import MetaFed
from repro.federated.client import LocalTrainingConfig, local_train
from repro.federated.engine import (
    CallbackHook,
    ClientTask,
    ClientUpdate,
    EvaluationHook,
    ExecutionBackend,
    HookPipeline,
    RoundHook,
    RoundPlan,
    SerialBackend,
    build_round_plan,
    make_backend,
)
from repro.federated.history import RoundRecord, TrainingHistory
from repro.federated.population import (
    ChurnParticipation,
    ClientPopulation,
    EagerPopulation,
    ParticipationContext,
    ParticipationModel,
    ParticipationRound,
    SyntheticPopulation,
    TieredParticipation,
    UniformParticipation,
    uniform_sample,
)
from repro.federated.rng import client_rng, client_stream_seed, personalization_seed
from repro.federated.server import FederatedServer, ServerConfig

__all__ = [
    "FederatedAlgorithm",
    "FedAvg",
    "FedDC",
    "MetaFed",
    "LocalTrainingConfig",
    "local_train",
    "RoundRecord",
    "TrainingHistory",
    "uniform_sample",
    "ClientPopulation",
    "EagerPopulation",
    "SyntheticPopulation",
    "ParticipationModel",
    "ParticipationContext",
    "ParticipationRound",
    "UniformParticipation",
    "ChurnParticipation",
    "TieredParticipation",
    "FederatedServer",
    "ServerConfig",
    "ExecutionBackend",
    "SerialBackend",
    "make_backend",
    "RoundHook",
    "HookPipeline",
    "EvaluationHook",
    "CallbackHook",
    "ClientTask",
    "ClientUpdate",
    "RoundPlan",
    "build_round_plan",
    "client_rng",
    "client_stream_seed",
    "personalization_seed",
]

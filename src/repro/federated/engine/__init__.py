"""Pluggable federated execution engine.

Separates round *orchestration* (what the server decides: sampling,
aggregation, bookkeeping) from client *execution* (how the per-client work
runs: serially, as one stacked model, on worker processes) and
from *instrumentation* (typed round hooks).  See
:mod:`repro.federated.engine.plan`,
:mod:`repro.federated.engine.backends` and
:mod:`repro.federated.engine.hooks`.

The distributed backend (socket-connected worker processes, registered as
``backend="distributed"``) lives in
:mod:`repro.federated.engine.distributed` and is deliberately *not*
re-exported here: its worker side imports the experiment runner, and the
backend registry loads it lazily on first lookup.
"""

from repro.federated.engine.backends import (
    EngineContext,
    ExecutionBackend,
    SerialBackend,
    make_backend,
    run_benign_task,
    run_malicious_task,
)
from repro.federated.engine.batched import (
    BatchedBackend,
    BatchedClientRunner,
)
from repro.federated.engine.hooks import (
    CallbackHook,
    EvaluationHook,
    HookPipeline,
    RoundHook,
)
from repro.federated.engine.ledger import (
    CommunicationLedger,
    LedgerHook,
)
from repro.federated.engine.plan import (
    ClientTask,
    ClientUpdate,
    RoundPlan,
    build_round_plan,
)
from repro.federated.engine.sharding import (
    ShardedAggregator,
    maybe_shard,
    plan_shards,
)

__all__ = [
    "ShardedAggregator",
    "maybe_shard",
    "plan_shards",
    "EngineContext",
    "ExecutionBackend",
    "BatchedBackend",
    "BatchedClientRunner",
    "SerialBackend",
    "make_backend",
    "run_benign_task",
    "run_malicious_task",
    "RoundHook",
    "HookPipeline",
    "EvaluationHook",
    "CallbackHook",
    "CommunicationLedger",
    "LedgerHook",
    "ClientTask",
    "ClientUpdate",
    "RoundPlan",
    "build_round_plan",
]

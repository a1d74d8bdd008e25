"""Distributed execution: coordinator/worker processes over TCP sockets.

The subsystem splits a round's benign client work across worker
*processes* — forked locally from the driver and connected over loopback
TCP, or started standalone (``python -m repro worker``, an interpreter of
its own) on any reachable host — speaking a small versioned,
length-prefixed binary protocol:

* :mod:`~repro.federated.engine.distributed.protocol` — message framing and
  (de)serialization; parameter vectors and client updates travel as raw
  float64 bytes, so remote execution is bit-identical to local execution.
* :mod:`~repro.federated.engine.distributed.worker` — the long-lived worker
  process: forked by the driver or announcing itself when standalone, it
  rebuilds the execution context from a scenario payload (cached across
  rounds by fingerprint), executes benign
  :class:`~repro.federated.engine.plan.ClientTask` objects and streams each
  update back the moment it is computed.
* :mod:`~repro.federated.engine.distributed.coordinator` — the
  ``DistributedBackend`` (registered as ``backend="distributed"``): forks
  or attaches workers, dispatches tasks with work-stealing, implements
  ``iter_updates`` by yielding updates as frames arrive, and re-dispatches
  the unfinished tasks of a dead worker.

This package is intentionally *not* imported by
:mod:`repro.federated.engine`'s ``__init__`` — the worker side pulls in the
experiment runner, and the backend registry loads
:mod:`.coordinator` lazily on first ``backend="distributed"`` lookup.
"""

from repro.federated.engine.distributed.protocol import (
    PROTOCOL_VERSION,
    ConnectionClosed,
    MessageType,
    ProtocolError,
    context_fingerprint,
    context_payload,
)

__all__ = [
    "PROTOCOL_VERSION",
    "ConnectionClosed",
    "MessageType",
    "ProtocolError",
    "context_fingerprint",
    "context_payload",
]

"""Execution backends: how a round plan's client work actually runs.

The server is backend-agnostic: it builds a :class:`RoundPlan` and folds
the :class:`ClientUpdate` objects an :class:`ExecutionBackend` yields from
:meth:`~ExecutionBackend.iter_updates`.  The default backend lives here:
:class:`SerialBackend` runs every client in order on one scratch model.
The ``batched`` backend (:mod:`repro.federated.engine.batched`) trains a
round's benign clients as one stacked model, and the ``distributed`` backend
(:mod:`repro.federated.engine.distributed`) runs them on socket-connected
worker processes.

Whatever trains a client builds its :class:`ClientUpdate`, with the
example count of the training data it already holds: :func:`run_benign_task`
and :func:`run_malicious_task` here, the batched runner, and the distributed
worker (whose UPDATE frame carries the count to the coordinator).  A
driver-side update then passes :meth:`ExecutionBackend.seal`, which masks it
under secure aggregation.

Malicious updates are always computed in the driver process, in task order,
by the one generator :meth:`ExecutionBackend._malicious_updates`: attacks
are stateful by contract (``MRepl.attacked_rounds``, CollaPois'
``psi_history``) and their cross-round state must live where the server can
see it.  Benign updates only *read* shared state (dataset, algorithm state,
global parameters), which is what makes them safe to parallelise.

Because every task draws randomness exclusively from its own
``(seed, round, client)`` stream (see :mod:`repro.federated.rng`), every
backend produces a bit-identical :class:`~repro.federated.history.TrainingHistory`
for the same run seed.  The one exception: models whose layers carry
internal RNG state (``Dropout``) consume that state in backend-dependent
order and void the guarantee — keep such models on the serial backend (the
experiment runner's model factories are dropout-free by default).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from repro.federated.algorithms.base import FederatedAlgorithm
from repro.federated.client import LocalTrainingConfig
from repro.federated.engine.plan import ClientTask, ClientUpdate, RoundPlan
from repro.federated.population.base import ClientPopulation
from repro.registry import BACKENDS


@dataclass
class EngineContext:
    """Everything a backend needs to execute client tasks.

    ``secagg_seed`` enables secure aggregation: when set, every update
    leaving the execution engine is masked with its client's aggregate
    round mask (:mod:`repro.federated.secagg.masking`) before anything
    server-side — hooks, retained lists, the aggregator API — can observe
    it.  The seed is the run seed; mask streams are derived per
    ``(seed, round, pair)``, so remote workers and driver-side backends
    produce identical masked bytes.

    ``telemetry`` is the run's :class:`~repro.telemetry.core.RunTelemetry`
    bundle when span tracing is enabled (``None`` otherwise): task
    execution and dispatch points record spans through it.  Observation
    only — no backend may read it to change what it computes.
    """

    dataset: ClientPopulation
    model_factory: Callable[[], object]
    algorithm: FederatedAlgorithm
    local_config: LocalTrainingConfig
    attack: object | None = None
    secagg_seed: int | None = None
    telemetry: object | None = None


def maybe_span(telemetry, name: str, **attrs):
    """Span context manager when telemetry is on, no-op context when off.

    The single guard every instrumentation point uses: hot paths pay one
    ``None`` check (plus a ``nullcontext`` allocation) when telemetry is
    disabled, which the overhead benchmark pins at ~zero.  It lives in the
    engine, not in :mod:`repro.telemetry` (which re-exports it), because
    that package's ``__init__`` pulls in rendering and result types.
    """
    if telemetry is None:
        return nullcontext()
    return telemetry.tracer.span(name, **attrs)


def run_benign_task(
    ctx: EngineContext,
    task: ClientTask,
    global_params: np.ndarray,
    model,
    train=None,
) -> ClientUpdate:
    """Execute one benign client task on the given scratch model.

    ``train`` is the client's training data when the caller already holds
    it; otherwise it is looked up here, once.
    """
    if train is None:
        train = ctx.dataset.client(task.client_id).train
    with maybe_span(
        ctx.telemetry, "client_train", round=task.round_idx, client=task.client_id
    ):
        update, loss = ctx.algorithm.benign_update(
            task.client_id, model, global_params, train, ctx.local_config, task.rng()
        )
    return task.update(update, len(train), loss)


def run_malicious_task(
    ctx: EngineContext, task: ClientTask, global_params: np.ndarray, model
) -> ClientUpdate:
    """Execute one compromised client task through the active attack.

    The update reports the client's own example count, so a weighted
    defense weighs it like any benign participant of the same size.
    """
    if ctx.attack is None:
        raise RuntimeError("malicious task scheduled without an active attack")
    with maybe_span(
        ctx.telemetry, "client_train",
        round=task.round_idx, client=task.client_id, malicious=True,
    ):
        update = ctx.attack.compute_update(
            client_id=task.client_id,
            global_params=global_params,
            round_idx=task.round_idx,
            model=model,
            rng=task.rng(),
        )
    return task.update(update, len(ctx.dataset.client(task.client_id).train))


class ExecutionBackend:
    """Strategy interface for executing a round plan's client work."""

    name = "base"

    # Capability flags, surfaced by ``repro list backends``:
    #: Client work runs in other OS processes (own address space).
    process_isolation = False
    #: Workers may live on other hosts, reached over sockets.
    distributed = False
    #: Benign clients train as one stacked model (cross-client GEMM batching).
    batched_execution = False

    #: Optional :class:`~repro.federated.engine.ledger.CommunicationLedger`
    #: installed by the experiment runner; backends with a real transport
    #: (the distributed coordinator) meter their wire frames into it.
    ledger = None

    def __init__(self) -> None:
        self._ctx: EngineContext | None = None
        self._driver_model = None

    @property
    def ctx(self) -> EngineContext:
        if self._ctx is None:
            raise RuntimeError(f"{type(self).__name__} is not bound to a server")
        return self._ctx

    def bind(self, ctx: EngineContext) -> None:
        """Attach the backend to a server's execution context."""
        self._ctx = ctx
        # Rebinding to a different server must drop models built by the
        # previous server's factory.
        self._driver_model = None

    def iter_updates(
        self, plan: RoundPlan, global_params: np.ndarray
    ) -> Iterator[ClientUpdate]:
        """Run every task in ``plan``, yielding each :class:`ClientUpdate`.

        Updates may arrive in *any* order — the server keys on
        ``update.slot`` for the canonical aggregation order (the
        :class:`~repro.defenses.base.Aggregator` base class does this
        automatically).  Every backend runs the malicious tasks in the driver
        (see the module docstring) and yields each update the moment it
        exists, so the server folds while slow clients are still training.
        """
        raise NotImplementedError

    def seal(self, update: ClientUpdate, plan: RoundPlan) -> ClientUpdate:
        """Mask a driver-side update under secure aggregation.

        The choke point where driver-computed updates leave the execution
        engine: under secure aggregation (``ctx.secagg_seed``) the vector is
        masked here, in the client's stead, so hooks, retained lists and the
        aggregator API only see ciphertext; otherwise the update passes
        through unchanged.  All round participants mask, compromised clients
        included: an unmasked participant would leave its pairwise terms
        uncancelled in the sum.  Distributed workers mask at the source, so
        the coordinator never seals their updates.
        """
        seed = self.ctx.secagg_seed
        if seed is None:
            return update
        # Imported lazily: the secagg package pulls in plan/defense modules
        # and is only needed when masking is actually on.
        from repro.federated.secagg.masking import mask_update

        with maybe_span(
            self.ctx.telemetry, "secagg_mask",
            round=plan.round_idx, client=update.client_id,
        ):
            masked = mask_update(
                update.update, seed, plan.round_idx, update.client_id,
                plan.sampled_clients,
            )
        return replace(
            update, update=masked, metadata={**update.metadata, "secagg_masked": True}
        )

    def _malicious_updates(
        self, plan: RoundPlan, global_params: np.ndarray
    ) -> Iterator[ClientUpdate]:
        """Run the plan's malicious tasks in the driver, sealing each update.

        Every backend runs them here, on the driver's scratch model, in task
        order (see the module docstring).
        """
        ctx = self.ctx  # an unbound backend fails here, before reading the plan
        for task in plan.malicious_tasks:
            yield self.seal(
                run_malicious_task(ctx, task, global_params, self._get_driver_model()),
                plan,
            )

    def _get_driver_model(self):
        if self._driver_model is None:
            self._driver_model = self.ctx.model_factory()
        return self._driver_model

    def close(self) -> None:
        """Release worker resources (idempotent)."""


@BACKENDS.register("serial")
class SerialBackend(ExecutionBackend):
    """Default backend: every client runs in order on one scratch model."""

    name = "serial"

    def iter_updates(self, plan, global_params):
        # Malicious first on the shared scratch model, then benign in task
        # order; each update is yielded the moment it exists.
        yield from self._malicious_updates(plan, global_params)
        model = self._get_driver_model()
        for task in plan.benign_tasks:
            yield self.seal(run_benign_task(self.ctx, task, global_params, model), plan)


def make_backend(
    name: str, max_workers: int | None = None, **kwargs
) -> ExecutionBackend:
    """Instantiate an execution backend by name or spec.

    ``max_workers`` is the single place the worker-cap special case lives:
    ``None`` means "backend default" and is simply not passed on, so the
    in-process backends (which take no worker cap) and the distributed
    backend share one construction path.
    """
    if max_workers is not None:
        kwargs["max_workers"] = max_workers
    return BACKENDS.create(name, **kwargs)

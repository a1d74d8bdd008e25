"""Execution backends: how a round plan's client work actually runs.

The server is backend-agnostic: it builds a :class:`RoundPlan` and folds
the :class:`ClientUpdate` objects an :class:`ExecutionBackend` yields from
:meth:`~ExecutionBackend.iter_updates`.  Two in-process backends live here:

* :class:`SerialBackend` — one worker model, clients in order; the default.
* :class:`ThreadPoolBackend` — benign clients fan out over a thread pool with
  a per-thread model pool.  NumPy releases the GIL inside its kernels, so
  multi-core machines overlap client training.

The ``batched`` backend (:mod:`repro.federated.engine.batched`) trains a
round's benign clients as one stacked model, and the ``distributed`` backend
(:mod:`repro.federated.engine.distributed`) runs them on socket-connected
worker processes.

Malicious updates are always computed in the driver process, in task order:
attacks are stateful by contract (``MRepl.attacked_rounds``, CollaPois'
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

import os
import queue
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor, as_completed
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.data.federated_data import FederatedDataset
from repro.federated.algorithms.base import FederatedAlgorithm
from repro.federated.client import LocalTrainingConfig
from repro.federated.engine.plan import ClientResult, ClientTask, ClientUpdate, RoundPlan
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

    dataset: FederatedDataset
    model_factory: Callable[[], object]
    algorithm: FederatedAlgorithm
    local_config: LocalTrainingConfig
    attack: object | None = None
    secagg_seed: int | None = None
    telemetry: object | None = None


def telemetry_span(ctx: EngineContext, name: str, **attrs):
    """Span context manager via the context's telemetry; no-op when off."""
    tel = ctx.telemetry
    if tel is None:
        return nullcontext()
    return tel.tracer.span(name, **attrs)


def run_benign_task(
    ctx: EngineContext, task: ClientTask, global_params: np.ndarray, model
) -> ClientResult:
    """Execute one benign client task on the given scratch model."""
    with telemetry_span(
        ctx, "client_train", round=task.round_idx, client=task.client_id
    ):
        update, loss = ctx.algorithm.benign_update(
            task.client_id,
            model,
            global_params,
            ctx.dataset.client(task.client_id).train,
            ctx.local_config,
            task.rng(),
        )
    return ClientResult(task=task, update=update, loss=loss)


def run_malicious_task(
    ctx: EngineContext, task: ClientTask, global_params: np.ndarray, model
) -> ClientResult:
    """Execute one compromised client task through the active attack."""
    if ctx.attack is None:
        raise RuntimeError("malicious task scheduled without an active attack")
    with telemetry_span(
        ctx, "client_train",
        round=task.round_idx, client=task.client_id, malicious=True,
    ):
        update = ctx.attack.compute_update(
            client_id=task.client_id,
            global_params=global_params,
            round_idx=task.round_idx,
            model=model,
            rng=task.rng(),
        )
    return ClientResult(task=task, update=update, loss=None)


class ExecutionBackend:
    """Strategy interface for executing a round plan's client work."""

    name = "base"

    # Capability flags, surfaced by ``repro list backends``:
    #: Client work runs in other OS processes (own interpreter + memory).
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

    def make_update(self, result: ClientResult, plan: RoundPlan) -> ClientUpdate:
        """Wrap an executed result with its client's dataset weight.

        The single choke point where results leave the execution engine:
        under secure aggregation (``ctx.secagg_seed``) the update vector is
        masked here — in the client's stead — unless the result is already
        masked at the source (``secagg_masked`` extra, set by the
        distributed coordinator whose workers mask before the bytes ever
        reach a socket).  All round participants mask, compromised clients
        included: an unmasked participant would leave its pairwise terms
        uncancelled in the sum.
        """
        seed = self.ctx.secagg_seed
        if seed is not None and not result.extras.get("secagg_masked"):
            # Imported lazily: the secagg package pulls in plan/defense
            # modules and is only needed when masking is actually on.
            from repro.federated.secagg.masking import mask_update

            with telemetry_span(
                self.ctx, "secagg_mask",
                round=plan.round_idx, client=result.client_id,
            ):
                masked = mask_update(
                    result.update, seed, plan.round_idx, result.client_id,
                    plan.sampled_clients,
                )
            result = ClientResult(
                task=result.task,
                update=masked,
                loss=result.loss,
                extras={**result.extras, "secagg_masked": True},
            )
        return ClientUpdate.from_result(
            result,
            num_examples=len(self.ctx.dataset.client(result.client_id).train),
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
        ctx = self.ctx
        model = self._get_driver_model()
        for task in plan.malicious_tasks:
            yield self.make_update(run_malicious_task(ctx, task, global_params, model), plan)
        for task in plan.benign_tasks:
            yield self.make_update(run_benign_task(ctx, task, global_params, model), plan)


@BACKENDS.register("thread")
class ThreadPoolBackend(ExecutionBackend):
    """Fan benign clients out over threads with a pooled set of models."""

    name = "thread"

    def __init__(self, max_workers: int | None = None) -> None:
        super().__init__()
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers or min(8, os.cpu_count() or 1)
        self._executor: ThreadPoolExecutor | None = None
        self._models: queue.LifoQueue = queue.LifoQueue()

    def bind(self, ctx: EngineContext) -> None:
        super().bind(ctx)
        self._models = queue.LifoQueue()

    def _borrow_model(self):
        try:
            return self._models.get_nowait()
        except queue.Empty:
            # At most one model per in-flight task ever gets created, so the
            # pool is bounded by ``max_workers``.
            return self.ctx.model_factory()

    def _run_pooled(self, task: ClientTask, global_params: np.ndarray) -> ClientResult:
        model = self._borrow_model()
        try:
            return run_benign_task(self.ctx, task, global_params, model)
        finally:
            self._models.put(model)

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="fed-client"
            )
        return self._executor

    def iter_updates(self, plan, global_params):
        # Submit the benign fan-out first, overlap driver-side malicious
        # computation with the pool, then yield benign updates in completion
        # order via as_completed — this is what lets the server start
        # folding while slow clients are still training.
        executor = self._ensure_executor()
        with telemetry_span(
            self.ctx, "dispatch",
            round=plan.round_idx, tasks=len(plan.benign_tasks), backend="thread",
        ):
            futures = [
                executor.submit(self._run_pooled, task, global_params)
                for task in plan.benign_tasks
            ]
        ctx = self.ctx
        for task in plan.malicious_tasks:
            yield self.make_update(
                run_malicious_task(ctx, task, global_params, self._get_driver_model()),
                plan,
            )
        for future in as_completed(futures):
            yield self.make_update(future.result(), plan)

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


def available_backends() -> list[str]:
    """Names of every registered execution backend."""
    return BACKENDS.names()


def make_backend(
    name: str, max_workers: int | None = None, **kwargs
) -> ExecutionBackend:
    """Instantiate an execution backend by name or spec.

    ``max_workers`` is the single place the worker-cap special case lives:
    ``None`` means "backend default" and is simply not passed on, so the
    serial backend (which takes no worker cap) and the pool backends share
    one construction path.
    """
    if max_workers is not None:
        kwargs["max_workers"] = max_workers
    return BACKENDS.create(name, **kwargs)

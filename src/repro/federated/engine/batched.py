"""Cross-client batched execution: train many clients as one stacked model.

The distributed backend parallelises *around* the math: each benign client
still runs its own tiny forward/backward on a socket worker, dominated by
many small GEMMs NumPy cannot amortise.  This
module stacks clients into a leading array dimension instead: the
:class:`BatchedClientRunner` groups a round's benign tasks by effective local
config, sorts each group by dataset size, and trains it through one
:func:`~repro.federated.client.local_train_batched` call — every layer does
one stacked kernel dispatch per step instead of ``clients`` small ones, and
clients with unequal dataset sizes still stack (the ragged step scheduler
trains whatever sub-range of the stack shares a batch shape on each step).

The headline property is **bit-identity**: per run seed, the batched path
produces the exact :class:`~repro.federated.history.TrainingHistory` bytes of
the serial backend.  That works because

* per-client parameter planes keep client weights strictly separate,
* ``np.matmul`` executes a stacked matmul as one BLAS GEMM per client slice
  with the serial shapes/strides (see :mod:`repro.nn.layers`),
* every reduction (bias gradients, loss means) reduces the same contiguous
  memory the serial reductions do, and
* each client's RNG stream is drawn from its own
  ``(seed, round, client)``-derived generator in the serial consumption
  order.

Fallbacks keep the path safe rather than clever: clients with empty data,
algorithms whose benign path is not plain ``local_train``
(``benign_batch_spec`` returns ``None``), models containing layers without a
batched counterpart (``Dropout``), and singleton groups all run through the
ordinary serial task path — which is bit-identical by construction.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from repro.federated.client import LocalTrainingConfig, local_train_batched
from repro.federated.engine.backends import (
    EngineContext,
    ExecutionBackend,
    maybe_span,
    run_benign_task,
    run_malicious_task,
)
from repro.federated.engine.plan import ClientResult, ClientTask
from repro.nn.model import BatchedSequential, supports_batching
from repro.registry import BACKENDS

# Flat attribute tuple as the group key: ``dataclasses.astuple`` walks the
# dataclass recursively and is ~30x slower, which showed up in round profiles.
_CONFIG_FIELDS = tuple(f.name for f in fields(LocalTrainingConfig))


def _config_key(config: LocalTrainingConfig) -> tuple:
    return tuple(getattr(config, name) for name in _CONFIG_FIELDS)


class BatchedClientRunner:
    """Group benign tasks by effective config and train each group stacked.

    Tasks group by effective local config (all clients share one model
    factory, so architectures already match); within a group, clients are
    sorted by descending dataset size and the ragged step scheduler of
    :func:`local_train_batched` stacks whatever sub-range of them shares a
    batch shape on each step — unequal dataset sizes do not fragment the
    stack.  ``max_group`` optionally caps the stack size to bound the
    working set; stacked models are cached per group size and reused across
    rounds (their parameters are overwritten from the global vector each
    call, like any scratch model).
    """

    def __init__(self, ctx: EngineContext, max_group: int | None = None) -> None:
        if max_group is not None and max_group <= 0:
            raise ValueError("max_group must be positive")
        self.ctx = ctx
        self.max_group = max_group
        self._template = None
        self._batchable: bool | None = None
        self._stacked: dict[int, BatchedSequential] = {}
        self._scratch = None
        #: Benign tasks that took the stacked path (observable by tests).
        self.batched_task_count = 0

    # -- model management ---------------------------------------------------

    def _get_scratch(self):
        if self._scratch is None:
            self._scratch = self.ctx.model_factory()
        return self._scratch

    def _model_batchable(self) -> bool:
        if self._batchable is None:
            self._template = self.ctx.model_factory()
            self._batchable = supports_batching(self._template)
        return self._batchable

    def _stacked_model(self, clients: int) -> BatchedSequential:
        model = self._stacked.get(clients)
        if model is None:
            model = BatchedSequential.from_template(self._template, clients)
            self._stacked[clients] = model
        return model

    # -- execution ----------------------------------------------------------

    def run(
        self, tasks: tuple[ClientTask, ...], global_params: np.ndarray
    ) -> list[ClientResult]:
        """Execute the benign tasks; results come back sorted by plan order."""
        results: dict[int, ClientResult] = {}
        groups: dict[tuple, list[tuple[ClientTask, object, np.ndarray | None]]] = {}
        group_configs: dict[tuple, LocalTrainingConfig] = {}
        batchable = self._model_batchable()
        for task in tasks:
            data = self.ctx.dataset.client(task.client_id).train
            if len(data) == 0:
                # Matches serial local_train: zero update, no RNG draw.
                results[task.order] = ClientResult(
                    task=task, update=np.zeros_like(global_params), loss=0.0
                )
                continue
            spec = (
                self.ctx.algorithm.benign_batch_spec(task.client_id, self.ctx.local_config)
                if batchable
                else None
            )
            if spec is None:
                results[task.order] = run_benign_task(
                    self.ctx, task, global_params, self._get_scratch()
                )
                continue
            config, drift = spec
            key = _config_key(config)
            groups.setdefault(key, []).append((task, data, drift))
            group_configs[key] = config
        for key, members in groups.items():
            config = group_configs[key]
            # Descending size is what the ragged scheduler requires; the
            # plan-order tiebreak keeps the grouping deterministic.
            members.sort(key=lambda member: (-len(member[1]), member[0].order))
            cap = self.max_group or len(members)
            for start in range(0, len(members), cap):
                chunk = members[start : start + cap]
                if len(chunk) == 1:
                    # A stack of one has no amortisation to offer; the plain
                    # task path skips the stacking copies.
                    task = chunk[0][0]
                    results[task.order] = run_benign_task(
                        self.ctx, task, global_params, self._get_scratch()
                    )
                    continue
                self._run_group(chunk, config, global_params, results)
        return [results[order] for order in sorted(results)]

    def _run_group(
        self,
        members: list[tuple[ClientTask, object, np.ndarray | None]],
        config: LocalTrainingConfig,
        global_params: np.ndarray,
        results: dict[int, ClientResult],
    ) -> None:
        tasks = [task for task, _data, _drift in members]
        datasets = [data for _task, data, _drift in members]
        drifts = [drift for _task, _data, drift in members]
        drift_stack = None
        if drifts[0] is not None:
            drift_stack = np.stack(drifts)
        model = self._stacked_model(len(members))
        rngs = [task.rng() for task in tasks]
        with maybe_span(
            self.ctx.telemetry, "client_train",
            round=tasks[0].round_idx, clients=len(tasks), batched=True,
        ):
            updates, losses = local_train_batched(
                model, global_params, datasets, config, rngs,
                drift_corrections=drift_stack,
            )
        self.batched_task_count += len(tasks)
        for i, task in enumerate(tasks):
            # Copy the row out so a result does not pin the whole stack.
            results[task.order] = ClientResult(
                task=task, update=updates[i].copy(), loss=float(losses[i])
            )


@BACKENDS.register("batched")
class BatchedBackend(ExecutionBackend):
    """Benign clients train together as one stacked model per round group.

    ``max_group`` caps how many clients stack into one model (default:
    unlimited — one stack per work-shape group); smaller caps trade GEMM
    amortisation for working-set size.  ``iter_updates`` yields benign
    updates in canonical slot order.
    """

    name = "batched"
    batched_execution = True

    def __init__(self, max_group: int | None = None) -> None:
        super().__init__()
        if max_group is not None and max_group <= 0:
            raise ValueError("max_group must be positive")
        self.max_group = max_group
        self._runner: BatchedClientRunner | None = None

    def bind(self, ctx: EngineContext) -> None:
        super().bind(ctx)
        self._runner = None

    def _get_runner(self) -> BatchedClientRunner:
        if self._runner is None:
            self._runner = BatchedClientRunner(self.ctx, max_group=self.max_group)
        return self._runner

    def iter_updates(self, plan, global_params):
        # Malicious first on the driver model (stateful attacks), then the
        # stacked benign results in slot order — the whole group finishes
        # together, so slot order costs nothing and keeps streams canonical.
        ctx = self.ctx
        for task in plan.malicious_tasks:
            yield self.make_update(
                run_malicious_task(ctx, task, global_params, self._get_driver_model()),
                plan,
            )
        for result in self._get_runner().run(plan.benign_tasks, global_params):
            yield self.make_update(result, plan)

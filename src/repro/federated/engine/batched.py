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

* each client's parameters are its own row of the stack's ``(clients, dim)``
  plane, so client weights stay strictly separate,
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
)
from repro.federated.engine.plan import ClientTask, ClientUpdate
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
    stack.  The runner keeps one stacked model, rebuilt only when a larger
    group arrives; a smaller group trains on a view of its first rows.  Its
    parameters are overwritten from the global vector each call, like any
    scratch model.
    """

    def __init__(self, ctx: EngineContext) -> None:
        self.ctx = ctx
        self._template = None
        self._batchable: bool | None = None
        self._stack: BatchedSequential | None = None
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

    def _stack_for(self, clients: int) -> BatchedSequential:
        if self._stack is None or self._stack.num_clients < clients:
            self._stack = None  # free the smaller planes before allocating
            self._stack = BatchedSequential.from_template(self._template, clients)
        return self._stack.view(0, clients)

    # -- execution ----------------------------------------------------------

    def run(
        self, tasks: tuple[ClientTask, ...], global_params: np.ndarray
    ) -> list[ClientUpdate]:
        """Execute the benign tasks; updates come back sorted by slot.

        Each client's training data is looked up once, here, and every
        update carries its size as ``num_examples``.
        """
        updates: dict[int, ClientUpdate] = {}
        groups: dict[tuple, list[tuple[ClientTask, object, np.ndarray | None]]] = {}
        group_configs: dict[tuple, LocalTrainingConfig] = {}
        batchable = self._model_batchable()
        for task in tasks:
            data = self.ctx.dataset.client(task.client_id).train
            if len(data) == 0:
                # Matches serial local_train: zero update, no RNG draw.
                updates[task.slot] = task.update(np.zeros_like(global_params), 0, 0.0)
                continue
            spec = (
                self.ctx.algorithm.benign_batch_spec(task.client_id, self.ctx.local_config)
                if batchable
                else None
            )
            if spec is None:
                updates[task.slot] = run_benign_task(
                    self.ctx, task, global_params, self._get_scratch(), data
                )
                continue
            config, drift = spec
            key = _config_key(config)
            groups.setdefault(key, []).append((task, data, drift))
            group_configs[key] = config
        for key, members in groups.items():
            if len(members) == 1:
                # A stack of one has no amortisation to offer; the plain
                # task path skips the stacking copies.
                task, data, _drift = members[0]
                updates[task.slot] = run_benign_task(
                    self.ctx, task, global_params, self._get_scratch(), data
                )
                continue
            # Descending size is what the ragged scheduler requires; the
            # slot tiebreak keeps the grouping deterministic.
            members.sort(key=lambda member: (-len(member[1]), member[0].slot))
            self._run_group(members, group_configs[key], global_params, updates)
        return [updates[slot] for slot in sorted(updates)]

    def _run_group(
        self,
        members: list[tuple[ClientTask, object, np.ndarray | None]],
        config: LocalTrainingConfig,
        global_params: np.ndarray,
        updates: dict[int, ClientUpdate],
    ) -> None:
        tasks = [task for task, _data, _drift in members]
        datasets = [data for _task, data, _drift in members]
        drifts = [drift for _task, _data, drift in members]
        drift_stack = None
        if drifts[0] is not None:
            drift_stack = np.stack(drifts)
        model = self._stack_for(len(members))
        rngs = [task.rng() for task in tasks]
        with maybe_span(
            self.ctx.telemetry, "client_train",
            round=tasks[0].round_idx, clients=len(tasks), batched=True,
        ):
            stacked, losses = local_train_batched(
                model, global_params, datasets, config, rngs,
                drift_corrections=drift_stack,
            )
        self.batched_task_count += len(tasks)
        for i, task in enumerate(tasks):
            # Copy the row out so an update does not pin the whole stack.
            updates[task.slot] = task.update(
                stacked[i].copy(), len(datasets[i]), float(losses[i])
            )


@BACKENDS.register("batched")
class BatchedBackend(ExecutionBackend):
    """Benign clients train together as one stacked model per config group.

    ``iter_updates`` yields benign updates in canonical slot order.
    """

    name = "batched"
    batched_execution = True

    def __init__(self) -> None:
        super().__init__()
        self._runner: BatchedClientRunner | None = None

    def bind(self, ctx: EngineContext) -> None:
        super().bind(ctx)
        self._runner = None

    def _get_runner(self) -> BatchedClientRunner:
        if self._runner is None:
            self._runner = BatchedClientRunner(self.ctx)
        return self._runner

    def iter_updates(self, plan, global_params):
        # Malicious first on the driver model (stateful attacks), then the
        # stacked benign updates in slot order — the whole group finishes
        # together, so slot order costs nothing and keeps streams canonical.
        yield from self._malicious_updates(plan, global_params)
        for update in self._get_runner().run(plan.benign_tasks, global_params):
            yield self.seal(update, plan)

"""Local client-side training.

``local_train`` is the single routine every benign client (and the DPois
baseline attack) uses to turn a global parameter vector into a local update
``Δθ = θ_local − θ_global`` after ``K`` epochs of mini-batch SGD — exactly
lines 6–11 of Algorithm 1 in the paper.  Its epoch loop,
:func:`train_epochs`, also trains the attacker's Trojaned model X
(:func:`repro.core.trojan.train_trojan_model`).

The ``model`` argument is a *scratch* instance: its parameters are
overwritten with ``global_params`` before training, so execution backends
(:mod:`repro.federated.engine.backends`) can freely reuse one model per
worker process.  Training randomness (batch shuffling) comes from the
caller-provided ``rng`` stream.  Caveat: a model containing layers with
internal RNG state (``Dropout``) additionally draws from that layer's own
generator, whose consumption order depends on the execution backend — such
models are only run-to-run deterministic on the serial backend.  Every model
built by the experiment runner is dropout-free by default.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.data.dataset import Dataset
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.optim import SGD, BatchedSGD
from repro.nn.serialization import unflatten_params
from repro.registry import is_count


@dataclass
class LocalTrainingConfig:
    """Hyper-parameters of a client's local training.

    Defaults follow Section V of the paper: SGD with learning rate 0.001 for
    local models, one local epoch, small mini-batches.
    """

    epochs: int = 1
    batch_size: int = 16
    lr: float = 0.05
    momentum: float = 0.0
    weight_decay: float = 0.0
    proximal_mu: float = 0.0

    def __post_init__(self) -> None:
        for name in ("epochs", "batch_size"):
            if not is_count(getattr(self, name)):
                raise ValueError(f"{name} must be a positive integer")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be a positive finite number, got {self.lr!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum!r}")
        for name in ("weight_decay", "proximal_mu"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a non-negative finite number, got {value!r}")


def train_epochs(
    model,
    data: Dataset,
    optimiser: SGD,
    epochs: int,
    batch_size: int,
    rng: np.random.Generator,
    proximal_mu: float = 0.0,
    anchor: np.ndarray | None = None,
) -> list[float]:
    """Train ``model`` in place for ``epochs`` shuffled passes over ``data``.

    Every mini-batch takes one ``optimiser`` step on the softmax
    cross-entropy loss; a positive ``proximal_mu`` first adds
    ``proximal_mu * (params - anchor)`` to the gradient.  Each epoch draws
    its shuffle from ``rng``.  Returns the final epoch's per-batch losses,
    the only scalar losses it evaluates.  ``model.backward`` overwrites
    every gradient, so a step does not zero them first.
    """
    criterion = SoftmaxCrossEntropy()
    losses: list[float] = []
    for epoch in range(epochs):
        last_epoch = epoch == epochs - 1
        for batch_x, batch_y in data.batches(batch_size, rng=rng):
            criterion.prepare(model.forward(batch_x, training=True), batch_y)
            if last_epoch:
                losses.append(criterion.loss())
            model.backward(criterion.backward())
            if proximal_mu > 0.0:
                model.grads += proximal_mu * (model.params - anchor)
            optimiser.step()
    return losses


def local_train(
    model,
    global_params: np.ndarray,
    data: Dataset,
    config: LocalTrainingConfig,
    rng: np.random.Generator,
    drift_correction: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Run local SGD from the global model and return ``(Δθ, final loss)``.

    Parameters
    ----------
    model:
        A model instance (reused across calls to avoid re-allocation); its
        parameters are overwritten with ``global_params`` before training.
    global_params:
        Flat global parameter vector θ_t received from the server.
    data:
        The client's local training dataset.
    config:
        Local optimisation hyper-parameters.  ``proximal_mu`` adds a FedProx /
        FedDC-style proximal term pulling local weights toward the global
        model.
    rng:
        Randomness source for mini-batch shuffling.
    drift_correction:
        Optional FedDC per-client drift vector added to the parameter vector
        seen by the proximal term (see :class:`repro.federated.algorithms.feddc.FedDC`).

    Returns
    -------
    (update, loss):
        ``update`` is the flat local update Δθ = θ_local − θ_global; ``loss``
        is the mean training loss of the final epoch.
    """
    if len(data) == 0:
        return np.zeros_like(global_params), 0.0
    unflatten_params(model, global_params)
    optimiser = SGD(model, lr=config.lr, momentum=config.momentum,
                    weight_decay=config.weight_decay)
    anchor = global_params if drift_correction is None else global_params - drift_correction
    losses = train_epochs(
        model, data, optimiser, config.epochs, config.batch_size, rng,
        proximal_mu=config.proximal_mu, anchor=anchor,
    )
    mean_loss = float(np.mean(losses)) if losses else 0.0
    return model.params - global_params, mean_loss


def _plan_step_runs(
    sizes: Sequence[int], batch_size: int
) -> list[tuple[int, list[tuple[int, int, int]]]]:
    """Partition size-sorted clients into per-step runs of equal batch size.

    ``sizes`` must be non-increasing.  For every mini-batch step ``t`` (batch
    rows ``[t*bs, t*bs + bs)`` of each client's shuffled epoch), the clients
    still holding data at that offset form a prefix of the stack, and clients
    sharing the same (possibly partial, end-of-dataset) batch size form
    contiguous runs within it.  Returns ``[(start, [(a, b, size), ...]), ...]``
    — one entry per step, each run covering client rows ``[a, b)`` training
    on ``size`` samples.
    """
    runs_per_step = []
    max_n = sizes[0]
    for start in range(0, max_n, batch_size):
        runs = []
        a = 0
        while a < len(sizes) and sizes[a] > start:
            size_a = min(batch_size, sizes[a] - start)
            b = a + 1
            while b < len(sizes) and min(batch_size, max(sizes[b] - start, 0)) == size_a:
                b += 1
            runs.append((a, b, size_a))
            a = b
        runs_per_step.append((start, runs))
    return runs_per_step


def local_train_batched(
    model,
    global_params: np.ndarray,
    datasets: Sequence[Dataset],
    config: LocalTrainingConfig,
    rngs: Sequence[np.random.Generator],
    drift_corrections: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run :func:`local_train` for many clients as one stacked computation.

    ``model`` is a :class:`~repro.nn.model.BatchedSequential` sized for
    ``len(datasets)`` clients; datasets must be non-empty and ordered by
    non-increasing size (the batched runner sorts its groups so this holds),
    and every client trains under the same ``config``.  Clients of *different*
    sizes batch together: each mini-batch step runs over the contiguous runs
    of clients sharing a batch size at that offset (see
    :func:`_plan_step_runs`), through row views of the stacked ``(clients,
    dim)`` parameter plane — clients that exhaust their data simply drop out
    of later steps, exactly as their serial loop would have ended.  A view
    over the first rows of a larger stack is a valid ``model`` too; the
    batched runner trains smaller groups that way.

    Per-client randomness comes from ``rngs`` — each generator is consumed
    exactly as the serial path consumes it (one permutation per epoch), so
    the returned rows are *bitwise* equal to the serial per-client results:

    * forward/backward matmuls run one BLAS GEMM per client slice with the
      serial shapes and strides (see :mod:`repro.nn.layers`);
    * bias/weight-gradient reductions and per-client loss means reduce the
      same contiguous memory the serial reductions do;
    * the SGD step, proximal term and ``Δθ`` subtraction are elementwise and
      touch only the rows of clients that trained on the step.

    Returns
    -------
    (updates, losses):
        ``updates`` is ``(clients, dim)`` — row ``c`` is client ``c``'s
        ``Δθ`` — and ``losses`` the per-client mean final-epoch loss.
    """
    clients = model.num_clients
    if len(datasets) != clients or len(rngs) != clients:
        raise ValueError(
            f"batched model is sized for {clients} clients, got "
            f"{len(datasets)} datasets and {len(rngs)} rng streams"
        )
    if drift_corrections is not None and drift_corrections.shape[0] != clients:
        raise ValueError("drift_corrections must carry one row per client")
    sizes = [len(data) for data in datasets]
    if any(n == 0 for n in sizes):
        raise ValueError("batched clients must have non-empty datasets")
    if any(sizes[i] < sizes[i + 1] for i in range(clients - 1)):
        raise ValueError("datasets must be ordered by non-increasing size")
    model.load_global(global_params)
    optimiser = BatchedSGD(model, lr=config.lr, momentum=config.momentum,
                           weight_decay=config.weight_decay)
    criterion = SoftmaxCrossEntropy()
    anchors = np.broadcast_to(global_params, model.params.shape)
    if drift_corrections is not None:
        anchors = anchors - drift_corrections
    max_n = sizes[0]
    step_runs = _plan_step_runs(sizes, config.batch_size)
    # One shuffled-epoch gather buffer: row ``c`` holds client ``c``'s
    # permuted samples (padded rows stay untouched past ``sizes[c]``).  Step
    # slices of it are views, so the per-step stacking cost of the naive
    # approach — one fancy-index copy per client per step — disappears; the
    # same bytes are gathered once per epoch, matching the serial path's
    # total copy volume.
    x_epoch = np.empty((clients, max_n) + datasets[0].x.shape[1:], dtype=datasets[0].x.dtype)
    y_epoch = np.empty((clients, max_n), dtype=datasets[0].y.dtype)
    last_epoch_losses: list[list[float]] = [[] for _ in range(clients)]
    for epoch in range(config.epochs):
        last_epoch = epoch == config.epochs - 1
        for c, data in enumerate(datasets):
            order = rngs[c].permutation(sizes[c])
            x_epoch[c, : sizes[c]] = data.x[order]
            y_epoch[c, : sizes[c]] = data.y[order]
        for start, runs in step_runs:
            for a, b, size in runs:
                sub = model.view(a, b)
                logits = sub.forward(x_epoch[a:b, start : start + size], training=True)
                criterion.prepare(logits, y_epoch[a:b, start : start + size])
                if last_epoch:
                    for i, loss in enumerate(criterion.loss().tolist()):
                        last_epoch_losses[a + i].append(loss)
                sub.backward(criterion.backward())
                if config.proximal_mu > 0.0:
                    sub.grads += config.proximal_mu * (sub.params - anchors[a:b])
                optimiser.step_slice(a, b)
    updates = model.params - global_params
    # Per-client mean over a list of python floats — the exact reduction the
    # serial path's ``float(np.mean(last_epoch_losses))`` performs.
    mean_losses = np.array(
        [float(np.mean(losses)) for losses in last_epoch_losses],
        dtype=np.float64,
    )
    return updates, mean_losses


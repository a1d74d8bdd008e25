"""Loss functions.

Every loss exposes ``forward(logits, targets)`` returning a scalar and
``backward()`` returning the gradient with respect to the logits (already
averaged over the batch), matching the convention used by the training loops
in :mod:`repro.federated`.  The cross-entropy losses split ``forward`` into
``prepare`` (the softmax ``backward`` needs) and ``loss`` (the scalar), so a
training step whose loss nobody reads skips it.
"""

from __future__ import annotations

import numpy as np


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


class SoftmaxCrossEntropy:
    """Combined softmax + cross-entropy loss with integer class targets.

    ``forward`` is :meth:`prepare` then :meth:`loss`.
    """

    def __init__(self) -> None:
        self._probs: np.ndarray | None = None
        self._targets: np.ndarray | None = None
        # batch size -> np.arange(batch); a trainer sees one or two sizes.
        self._rows: dict[int, np.ndarray] = {}

    def _arange(self, batch: int) -> np.ndarray:
        rows = self._rows.get(batch)
        if rows is None:
            rows = self._rows[batch] = np.arange(batch)
        return rows

    def prepare(self, logits: np.ndarray, targets: np.ndarray) -> None:
        """Cache the batch's softmax and labels for :meth:`loss` and :meth:`backward`."""
        if logits.ndim != 2:
            raise ValueError("logits must be (batch, num_classes)")
        if targets.ndim != 1 or targets.shape[0] != logits.shape[0]:
            raise ValueError("targets must be (batch,) integer labels")
        self._probs = softmax(logits)
        self._targets = targets.astype(np.int64, copy=False)

    def loss(self) -> float:
        """Mean cross-entropy of the prepared batch.

        ``np.maximum`` and ``np.add.reduce(...) / batch`` are what
        ``np.clip(picked, 1e-12, None)`` and ``.mean()`` run, bit for bit.
        """
        if self._probs is None or self._targets is None:
            raise RuntimeError("loss called before prepare")
        batch = self._probs.shape[0]
        picked = self._probs[self._arange(batch), self._targets]
        return float(np.add.reduce(-np.log(np.maximum(picked, 1e-12))) / batch)

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        self.prepare(logits, targets)
        return self.loss()

    def backward(self) -> np.ndarray:
        if self._probs is None or self._targets is None:
            raise RuntimeError("backward called before forward")
        batch = self._probs.shape[0]
        grad = self._probs.copy()
        grad[self._arange(batch), self._targets] -= 1.0
        return grad / batch

    def __call__(self, logits: np.ndarray, targets: np.ndarray) -> float:
        return self.forward(logits, targets)


class BatchedSoftmaxCrossEntropy:
    """Client-stacked softmax cross-entropy over ``(clients, batch, classes)``.

    ``forward`` returns a ``(clients,)`` loss vector; each entry is bitwise
    equal to what :class:`SoftmaxCrossEntropy` computes for that client's
    ``(batch, classes)`` slice alone — the softmax reductions run over the
    (contiguous) last axis, and the per-client mean reduces a contiguous row,
    both of which NumPy evaluates exactly as in the 2-D case.
    """

    def __init__(self) -> None:
        self._probs: np.ndarray | None = None
        self._targets: np.ndarray | None = None
        # (clients, batch) -> broadcastable arange pair, cached because the
        # ragged step scheduler revisits the same handful of shapes per epoch
        # and index construction showed up in round profiles.
        self._index_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def _indices(self, clients: int, batch: int) -> tuple[np.ndarray, np.ndarray]:
        cached = self._index_cache.get((clients, batch))
        if cached is None:
            cached = (np.arange(clients)[:, None], np.arange(batch)[None, :])
            self._index_cache[(clients, batch)] = cached
        return cached

    def prepare(self, logits: np.ndarray, targets: np.ndarray) -> None:
        """Cache the batch's softmax and labels for :meth:`loss` and :meth:`backward`."""
        if logits.ndim != 3:
            raise ValueError("logits must be (clients, batch, num_classes)")
        if targets.shape != logits.shape[:2]:
            raise ValueError("targets must be (clients, batch) integer labels")
        self._probs = softmax(logits)
        self._targets = targets.astype(np.int64, copy=False)

    def loss(self) -> np.ndarray:
        """Per-client mean cross-entropy of the prepared batch, ``(clients,)``."""
        if self._probs is None or self._targets is None:
            raise RuntimeError("loss called before prepare")
        clients, batch, _ = self._probs.shape
        rows, cols = self._indices(clients, batch)
        picked = self._probs[rows, cols, self._targets]
        return np.add.reduce(-np.log(np.maximum(picked, 1e-12)), axis=-1) / batch

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
        self.prepare(logits, targets)
        return self.loss()

    def backward(self) -> np.ndarray:
        if self._probs is None or self._targets is None:
            raise RuntimeError("backward called before forward")
        clients, batch, _ = self._probs.shape
        grad = self._probs.copy()
        rows, cols = self._indices(clients, batch)
        grad[rows, cols, self._targets] -= 1.0
        return grad / batch

    def __call__(self, logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
        return self.forward(logits, targets)


class MSELoss:
    """Mean squared error; used by the knowledge-distillation step in MetaFed."""

    def __init__(self) -> None:
        self._diff: np.ndarray | None = None

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        if predictions.shape != targets.shape:
            raise ValueError("predictions and targets must have identical shapes")
        self._diff = predictions - targets
        return float(np.mean(self._diff**2))

    def backward(self) -> np.ndarray:
        if self._diff is None:
            raise RuntimeError("backward called before forward")
        return 2.0 * self._diff / self._diff.size

    def __call__(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        return self.forward(predictions, targets)

"""The training loss: softmax cross-entropy over integer class labels.

:class:`SoftmaxCrossEntropy` exposes ``forward(logits, targets)`` returning
the mean loss and ``backward()`` returning the gradient with respect to the
logits (already averaged over the batch), the convention of the training
loops in :mod:`repro.federated`.  It splits ``forward`` into ``prepare``
(the softmax ``backward`` needs) and ``loss`` (the mean), so a training step
whose loss nobody reads skips it.  Like the layers, it works over leading
axes: ``(batch, classes)`` logits give one loss, a client stack's
``(clients, batch, classes)`` logits one loss per client.
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

    Logits are ``(*lead, batch, classes)`` and targets ``(*lead, batch)``.
    Each leading slice's loss and gradient equal, bit for bit, what its
    ``(batch, classes)`` logits give alone: the softmax reduces the
    contiguous last axis, the mean reduces a contiguous row, and the labels
    index a flattened ``(rows, classes)`` view of the probabilities.
    ``forward`` is :meth:`prepare` then :meth:`loss`.
    """

    def __init__(self) -> None:
        self._probs: np.ndarray | None = None
        # (row indices, labels) into the probabilities' (rows, classes) view.
        self._picks: tuple[np.ndarray, np.ndarray] | None = None
        # row count -> np.arange(rows); a trainer sees a handful of sizes.
        self._rows: dict[int, np.ndarray] = {}

    def prepare(self, logits: np.ndarray, targets: np.ndarray) -> None:
        """Cache the batch's softmax and labels for :meth:`loss` and :meth:`backward`."""
        if logits.ndim < 2:
            raise ValueError("logits must be (batch, num_classes)")
        if targets.shape != logits.shape[:-1]:
            raise ValueError("targets must be integer labels shaped like logits[..., 0]")
        self._probs = softmax(logits)
        labels = targets.astype(np.int64, copy=False).reshape(-1)
        rows = self._rows.get(labels.shape[0])
        if rows is None:
            rows = self._rows[labels.shape[0]] = np.arange(labels.shape[0])
        self._picks = (rows, labels)

    def loss(self) -> float | np.ndarray:
        """Mean cross-entropy of the prepared batch, one per leading slice.

        A float for ``(batch, classes)`` logits, else a ``lead``-shaped
        array.  ``np.maximum`` and ``np.add.reduce(...) / batch`` are what
        ``np.clip(picked, 1e-12, None)`` and ``.mean()`` run, bit for bit.
        """
        probs = self._probs
        if probs is None:
            raise RuntimeError("loss called before prepare")
        picked = probs.reshape(-1, probs.shape[-1])[self._picks].reshape(probs.shape[:-1])
        losses = np.add.reduce(-np.log(np.maximum(picked, 1e-12)), axis=-1) / probs.shape[-2]
        return float(losses) if probs.ndim == 2 else losses

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float | np.ndarray:
        self.prepare(logits, targets)
        return self.loss()

    def backward(self) -> np.ndarray:
        if self._probs is None:
            raise RuntimeError("backward called before forward")
        grad = self._probs.copy()
        grad.reshape(-1, grad.shape[-1])[self._picks] -= 1.0
        return grad / grad.shape[-2]

    def __call__(self, logits: np.ndarray, targets: np.ndarray) -> float | np.ndarray:
        return self.forward(logits, targets)

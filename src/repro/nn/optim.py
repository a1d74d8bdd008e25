"""Optimisers for local client training.

The paper uses SGD with learning rate 0.01 (global) and 0.001 (local models);
this module provides SGD with optional momentum and weight decay.  It steps a
model's flat ``params`` buffer with its ``grads`` buffer (see
:mod:`repro.nn.model`): one step is a few elementwise operations over the
whole vector, or over client rows of a stacked model's ``(clients, dim)``
planes.
"""

from __future__ import annotations

import numpy as np


class SGD:
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        model,
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if weight_decay < 0.0:
            raise ValueError("weight decay must be non-negative")
        self.model = model
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        # One velocity array shaped like the parameter buffer, and one scratch
        # array for ``lr * update`` so a step allocates nothing.
        self._velocity = np.zeros_like(model.params) if momentum else None
        self._scratch = np.empty_like(model.params)

    def step(self) -> None:
        """Apply one update using the gradients the model's ``backward`` wrote."""
        self._update(self.model.params, self.model.grads, self._velocity, self._scratch)

    def _update(self, params, grads, velocity, scratch) -> None:
        """``θ -= lr·v`` with ``v = m·v + g + wd·θ``, in place and elementwise."""
        update = grads
        if self.weight_decay:
            np.multiply(params, self.weight_decay, out=scratch)
            scratch += grads
            update = scratch
        if velocity is not None:
            velocity *= self.momentum
            velocity += update
            update = velocity
        np.multiply(update, self.lr, out=scratch)
        params -= scratch

    def zero_grad(self) -> None:
        """Zero the gradients of the underlying model."""
        self.model.zero_grad()


class BatchedSGD(SGD):
    """SGD over a batched model's ``(clients, dim)`` parameter plane.

    Every rule of :meth:`SGD.step` is elementwise, so applying it to the
    stacked plane performs each client's serial update exactly: one
    vectorised step replaces ``clients`` small ones, bit-for-bit.  Row ``c``
    of the velocity is client ``c``'s, mirroring the fresh velocity of a
    serial optimiser created per client.

    :meth:`step_slice` applies the update to a contiguous sub-range of
    clients only — the ragged step scheduler uses it to step exactly the
    clients that trained on the current mini-batch, the way each serial
    optimiser steps only its own client.
    """

    def __init__(
        self,
        model,
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        if not hasattr(model, "num_clients"):
            raise ValueError(
                "BatchedSGD requires a client-stacked model (BatchedSequential)"
            )
        super().__init__(model, lr=lr, momentum=momentum, weight_decay=weight_decay)

    def step(self) -> None:
        self.step_slice(0, self.model.num_clients)

    def step_slice(self, a: int, b: int) -> None:
        """Apply one update to client rows ``[a, b)`` of the planes.

        A client's velocity row persists across steps regardless of which
        run (full-batch prefix or partial-batch tail) it lands in.
        """
        if not 0 <= a < b <= self.model.num_clients:
            raise ValueError(
                f"invalid client range [{a}, {b}) for {self.model.num_clients} clients"
            )
        velocity = None if self._velocity is None else self._velocity[a:b]
        self._update(
            self.model.params[a:b], self.model.grads[a:b], velocity, self._scratch[a:b]
        )

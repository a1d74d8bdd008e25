"""Flat parameter vectors.

Federated learning, the CollaPois attack, and every robust-aggregation defense
in this library operate on *flat parameter vectors*: a client update is
``Δθ = θ_local − θ_global``.  A model already stores its parameters as one
such vector, ``model.params``, in the canonical order (layer order, then
parameter-name order within each layer; see :mod:`repro.nn.model`), so
flattening and unflattening are one copy each and
``unflatten_params(model, flatten_params(model))`` is the identity.  The
distributed wire protocol ships these vectors as raw float64
(:mod:`repro.federated.engine.distributed.protocol`).
"""

from __future__ import annotations

import numpy as np


def flatten_params(model) -> np.ndarray:
    """A copy of ``model``'s flat parameter vector."""
    return model.params.copy()


def unflatten_params(model, vector: np.ndarray) -> None:
    """Write ``vector`` into the model's parameters in place.

    On a client-stacked model the vector is written into every client's row.

    Raises
    ------
    ValueError
        If the vector length does not match the model's parameter count.
    """
    expected = model.params.shape[-1]
    if vector.ndim != 1 or vector.shape[0] != expected:
        raise ValueError(
            f"parameter vector has length {vector.shape}, model expects ({expected},)"
        )
    model.params[...] = vector


def parameter_count(model) -> int:
    """Total number of trainable scalars in ``model``."""
    return int(model.params.size)

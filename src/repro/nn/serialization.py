"""Flat parameter vectors and their wire encoding.

Federated learning, the CollaPois attack, and every robust-aggregation defense
in this library operate on *flat parameter vectors*: a client update is
``Δθ = θ_local − θ_global``.  A model already stores its parameters as one
such vector, ``model.params``, in the canonical order (layer order, then
parameter-name order within each layer; see :mod:`repro.nn.model`), so
flattening and unflattening are one copy each and
``unflatten_params(model, flatten_params(model))`` is the identity.
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


#: Wire encodings a flat vector may ship as: tag → little-endian NumPy dtype.
#: ``float64`` round-trips bit-for-bit (the default everywhere); ``float32``
#: halves the bytes on the wire at ~1e-7 relative rounding per element.
WIRE_DTYPES = {"float64": "<f8", "float32": "<f4"}


def wire_dtype(tag: str) -> np.dtype:
    """Resolve a wire dtype tag, rejecting anything outside :data:`WIRE_DTYPES`."""
    try:
        return np.dtype(WIRE_DTYPES[tag])
    except KeyError:
        known = ", ".join(sorted(WIRE_DTYPES))
        raise ValueError(f"unknown wire dtype {tag!r} (known: {known})") from None


def vector_to_bytes(vector: np.ndarray, dtype: str = "float64") -> bytes:
    """Canonical wire encoding of a flat parameter vector.

    The distributed execution protocol ships parameter vectors and client
    updates as raw little-endian floats.  The default ``float64`` matches the
    dtype :func:`flatten_params` produces, so a vector round-trips through
    :func:`vector_from_bytes` bit-for-bit — what keeps remote execution
    bit-identical to local execution.  ``float32`` is a lossy opt-in that
    halves wire traffic.
    """
    arr = np.ascontiguousarray(vector, dtype=wire_dtype(dtype))
    if arr.ndim != 1:
        raise ValueError(f"expected a flat vector, got shape {arr.shape}")
    return arr.tobytes()


def vector_from_bytes(data, dtype: str = "float64") -> np.ndarray:
    """Decode :func:`vector_to_bytes` output back into a float64 vector.

    Accepts ``bytes`` or a ``memoryview`` (the protocol decoder passes
    zero-copy views into the received frame).
    """
    dt = wire_dtype(dtype)
    nbytes = data.nbytes if isinstance(data, memoryview) else len(data)
    if nbytes % dt.itemsize:
        raise ValueError(
            f"vector payload of {nbytes} bytes is not {dtype}-aligned"
        )
    # Copy (astype): frombuffer views are read-only and would pin the message
    # buffer alive.
    return np.frombuffer(data, dtype=dt).astype(np.float64)

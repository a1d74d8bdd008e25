"""Differentiable layers with explicit forward/backward passes.

Every layer follows the same contract:

* ``forward(x, training=False)`` consumes a numpy array and returns a numpy
  array, caching whatever is needed for the backward pass.
* ``backward(grad_out)`` consumes the gradient of the loss with respect to the
  layer output and returns the gradient with respect to the layer input,
  writing the parameter gradients into ``self.grads``: a layer with
  parameters overwrites them (``np.matmul``/``np.sum`` with ``out=``), so
  two calls leave what one call leaves and no ``zero_grad`` is needed
  between steps.
* ``backward_params(grad_out)`` writes the same parameter gradients and
  computes no input gradient.  A model calls it on its first layer with
  parameters, whose input gradient nothing reads (see
  :meth:`repro.nn.model.Sequential.backward`).
* ``params`` / ``grads`` are dictionaries keyed by parameter name.  A
  standalone layer owns its arrays; inside a model they are reshaped views
  of the model's flat ``params`` / ``grads`` buffers (see
  :mod:`repro.nn.model`), so every write below lands in the buffers and an
  entry must be updated in place, never rebound.

The design intentionally mirrors the subset of PyTorch used by the paper's
models (LeNet-style CNN, MLP heads) while staying dependency-free.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.nn.init import glorot_uniform, he_uniform

#: Seed of the generator a layer builds when the caller passes neither a
#: Generator nor a seed.  Constructing a layer must be deterministic — an
#: unseeded ``default_rng()`` here would draw OS entropy and break the
#: bit-identical-per-seed guarantee (and the rng-discipline lint rule).
_DEFAULT_INIT_SEED = 0


def _resolve_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Normalise a layer's ``rng`` argument into a deterministic Generator.

    An explicit ``None`` (or omitted argument) falls back to a fixed-seed
    generator rather than OS entropy; integers seed a fresh generator (note
    ``seed=0`` is a valid seed, not a missing one).
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(_DEFAULT_INIT_SEED if rng is None else rng)


class Layer:
    """Base class for all layers.

    Subclasses with trainable parameters populate ``self.params`` and
    ``self.grads`` with identically-keyed numpy arrays.
    """

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward_params(self, grad_out: np.ndarray) -> None:
        """Write the parameter gradients for ``grad_out``; skip the input gradient.

        The weight layers override this to leave out the input-gradient
        work; any other layer runs its whole ``backward``.
        """
        self.backward(grad_out)

    def zero_grad(self) -> None:
        """Reset the parameter gradients to zero, in place."""
        for grad in self.grads.values():
            grad.fill(0.0)

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)


class Linear(Layer):
    """Fully connected layer ``y = x W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear layer dimensions must be positive")
        rng = _resolve_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.params["W"] = glorot_uniform((in_features, out_features), rng)
        self.params["b"] = np.zeros(out_features, dtype=np.float64)
        self.grads["W"] = np.zeros_like(self.params["W"])
        self.grads["b"] = np.zeros_like(self.params["b"])
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Linear expected input of shape (batch, {self.in_features}), got {x.shape}"
            )
        self._x = x
        return x @ self.params["W"] + self.params["b"]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        self.backward_params(grad_out)
        return grad_out @ self.params["W"].T

    def backward_params(self, grad_out: np.ndarray) -> None:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        np.matmul(self._x.T, grad_out, out=self.grads["W"])
        np.sum(grad_out, axis=0, out=self.grads["b"])


class ReLU(Layer):
    """Rectified linear activation."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._mask


class Tanh(Layer):
    """Hyperbolic tangent activation."""

    def __init__(self) -> None:
        super().__init__()
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._y = np.tanh(x)
        return self._y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("backward called before forward")
        return grad_out * (1.0 - self._y**2)


class Sigmoid(Layer):
    """Logistic sigmoid activation."""

    def __init__(self) -> None:
        super().__init__()
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._y = 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
        return self._y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._y * (1.0 - self._y)


class Flatten(Layer):
    """Reshape ``(batch, *dims)`` into ``(batch, prod(dims))``."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        return grad_out.reshape(self._shape)


class Dropout(Layer):
    """Inverted dropout; identity at evaluation time."""

    def __init__(
        self, p: float = 0.5, rng: np.random.Generator | int | None = None
    ) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = _resolve_rng(rng)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.p == 0.0:
            self._mask = None
            return x
        self._mask = (self._rng.random(x.shape) >= self.p) / (1.0 - self.p)
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return grad_out * self._mask


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int) -> tuple[np.ndarray, int, int]:
    """Extract sliding patches from ``(batch, C, H, W)`` into columns.

    Returns an array of shape ``(batch, out_h, out_w, C * kh * kw)`` together
    with the output spatial dimensions.
    """
    batch, channels, height, width = x.shape
    out_h = (height - kh) // stride + 1
    out_w = (width - kw) // stride + 1
    shape = (batch, channels, out_h, out_w, kh, kw)
    strides = (
        x.strides[0],
        x.strides[1],
        x.strides[2] * stride,
        x.strides[3] * stride,
        x.strides[2],
        x.strides[3],
    )
    patches = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    cols = patches.transpose(0, 2, 3, 1, 4, 5).reshape(batch, out_h, out_w, channels * kh * kw)
    return cols, out_h, out_w


class Conv2d(Layer):
    """2-D convolution (valid padding unless ``padding`` is given), stride 1+.

    Input/output layout is ``(batch, channels, height, width)``, matching the
    PyTorch convention used by the paper's LeNet model.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        if kernel_size <= 0 or stride <= 0 or padding < 0:
            raise ValueError("invalid convolution geometry")
        rng = _resolve_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.params["W"] = he_uniform((out_channels, in_channels, kernel_size, kernel_size), fan_in, rng)
        self.params["b"] = np.zeros(out_channels, dtype=np.float64)
        self.grads["W"] = np.zeros_like(self.params["W"])
        self.grads["b"] = np.zeros_like(self.params["b"])
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, ...] | None = None

    def _pad(self, x: np.ndarray) -> np.ndarray:
        if self.padding == 0:
            return x
        pad = self.padding
        return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2d expected (batch, {self.in_channels}, H, W), got {x.shape}"
            )
        xp = self._pad(x)
        self._x_shape = xp.shape
        k = self.kernel_size
        cols, out_h, out_w = _im2col(xp, k, k, self.stride)
        self._cols = cols
        w_mat = self.params["W"].reshape(self.out_channels, -1)
        out = cols @ w_mat.T + self.params["b"]
        return out.transpose(0, 3, 1, 2)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_2d = self._backward_params(grad_out)
        batch, _, out_h, out_w = grad_out.shape
        k = self.kernel_size
        w_mat = self.params["W"].reshape(self.out_channels, -1)
        grad_cols = grad_2d @ w_mat
        grad_cols = grad_cols.reshape(batch, out_h, out_w, self.in_channels, k, k)

        # col2im scatter-add, vectorised over the output grid: instead of one
        # small add per output position (out_h × out_w iterations) do one big
        # strided add per kernel offset (k × k iterations).  Overlapping
        # windows accumulate because the strided views cover disjoint slices
        # per offset.
        grad_x = np.zeros(self._x_shape, dtype=np.float64)
        stride = self.stride
        offset_grads = grad_cols.transpose(0, 3, 4, 5, 1, 2)  # (B, C, kh, kw, oh, ow)
        for ki in range(k):
            for kj in range(k):
                grad_x[
                    :, :, ki : ki + stride * out_h : stride, kj : kj + stride * out_w : stride
                ] += offset_grads[:, :, ki, kj]
        if self.padding:
            pad = self.padding
            grad_x = grad_x[:, :, pad:-pad, pad:-pad]
        return grad_x

    def backward_params(self, grad_out: np.ndarray) -> None:
        self._backward_params(grad_out)

    def _backward_params(self, grad_out: np.ndarray) -> np.ndarray:
        """Write the parameter gradients; return ``grad_out`` as (positions, channels)."""
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        grad_2d = grad_out.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        cols_2d = self._cols.reshape(-1, self._cols.shape[-1])
        np.matmul(grad_2d.T, cols_2d, out=self.grads["W"].reshape(self.out_channels, -1))
        np.sum(grad_2d, axis=0, out=self.grads["b"])
        return grad_2d


class MaxPool2d(Layer):
    """Max pooling with square window and matching stride.

    Spatial dims that are not multiples of ``kernel_size`` are floored (the
    trailing remainder rows/columns are cropped, PyTorch's default); the
    backward pass routes zero gradient into the cropped region.
    """

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("pool size must be positive")
        self.kernel_size = kernel_size
        self._x_shape: tuple[int, ...] | None = None
        self._argmax: np.ndarray | None = None
        self._out_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        k = self.kernel_size
        batch, channels, height, width = x.shape
        out_h, out_w = height // k, width // k
        if out_h == 0 or out_w == 0:
            raise ValueError(
                f"MaxPool2d({k}) input of {height}x{width} is smaller than its window"
            )
        self._x_shape = x.shape
        cropped = x[:, :, : out_h * k, : out_w * k]
        windows = cropped.reshape(batch, channels, out_h, k, out_w, k).transpose(0, 1, 2, 4, 3, 5)
        windows = windows.reshape(batch, channels, out_h, out_w, k * k)
        self._argmax = windows.argmax(axis=-1)
        self._out_shape = (batch, channels, out_h, out_w)
        return windows.max(axis=-1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None or self._argmax is None or self._out_shape is None:
            raise RuntimeError("backward called before forward")
        k = self.kernel_size
        batch, channels, out_h, out_w = self._out_shape
        grad_windows = np.zeros((batch, channels, out_h, out_w, k * k), dtype=np.float64)
        idx = np.indices((batch, channels, out_h, out_w))
        grad_windows[idx[0], idx[1], idx[2], idx[3], self._argmax] = grad_out
        grad_windows = grad_windows.reshape(batch, channels, out_h, out_w, k, k)
        region = grad_windows.transpose(0, 1, 2, 4, 3, 5).reshape(
            batch, channels, out_h * k, out_w * k
        )
        grad_x = np.zeros(self._x_shape, dtype=np.float64)
        grad_x[:, :, : out_h * k, : out_w * k] = region
        return grad_x


# ---------------------------------------------------------------------------
# Batched (stacked-client) kernels.
#
# These layers train ``clients`` identically-shaped models at once by giving
# every array a leading ``clients`` dimension: inputs are
# ``(clients, batch, ...)`` and parameters are per-client planes
# ``(clients, *shape)`` (inside a ``BatchedSequential``, views of its
# ``(clients, dim)`` buffers whose per-client slices stay C-contiguous), so
# client weights never mix.  The per-slice math is
# dispatched through ``np.matmul``'s gufunc, which runs one BLAS GEMM per
# leading-dimension slice with exactly the shapes/strides the serial layers
# use — that is what makes the batched path *bitwise* identical to running
# each client through the serial layer, not merely numerically close.
#
# They keep the serial layers' contract: ``backward`` and ``backward_params``
# OVERWRITE ``self.grads`` (``out=``), as every trainer performs exactly one
# backward per optimiser step.  One deviation, in the name of round
# throughput: matmul results land in per-layer persistent buffers (``out=``)
# keyed by shape, so steady-state training does no large allocations.  A
# buffer is only valid until the same layer's next call with that shape,
# which the strictly sequential step loop of ``local_train_batched``
# guarantees.
# ---------------------------------------------------------------------------


class _BufferMixin:
    """Shape-keyed persistent output buffers for the batched layers."""

    def _buf(self, tag: str, shape: tuple[int, ...]) -> np.ndarray:
        key = (tag, shape)
        buf = self._bufs.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=np.float64)
            self._bufs[key] = buf
        return buf


class BatchedLinear(_BufferMixin, Layer):
    """Per-client fully connected layer: ``y[c] = x[c] @ W[c] + b[c]``."""

    def __init__(self, num_clients: int, in_features: int, out_features: int) -> None:
        super().__init__()
        if num_clients <= 0:
            raise ValueError("num_clients must be positive")
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear layer dimensions must be positive")
        self.num_clients = num_clients
        self.in_features = in_features
        self.out_features = out_features
        self.params["W"] = np.zeros((num_clients, in_features, out_features), dtype=np.float64)
        self.params["b"] = np.zeros((num_clients, out_features), dtype=np.float64)
        self.grads["W"] = np.zeros_like(self.params["W"])
        self.grads["b"] = np.zeros_like(self.params["b"])
        self._x: np.ndarray | None = None
        self._bufs: dict = {}

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 3 or x.shape[0] != self.num_clients or x.shape[2] != self.in_features:
            raise ValueError(
                f"BatchedLinear expected ({self.num_clients}, batch, "
                f"{self.in_features}), got {x.shape}"
            )
        self._x = x
        out = self._buf("fwd", (x.shape[0], x.shape[1], self.out_features))
        np.matmul(x, self.params["W"], out=out)
        out += self.params["b"][:, None, :]
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        self.backward_params(grad_out)
        grad_x = self._buf("bwd", self._x.shape)
        np.matmul(grad_out, self.params["W"].transpose(0, 2, 1), out=grad_x)
        return grad_x

    def backward_params(self, grad_out: np.ndarray) -> None:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        np.matmul(self._x.transpose(0, 2, 1), grad_out, out=self.grads["W"])
        np.sum(grad_out, axis=1, out=self.grads["b"])


class BatchedFlatten(Layer):
    """Reshape ``(clients, batch, *dims)`` into ``(clients, batch, prod(dims))``."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], x.shape[1], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        return grad_out.reshape(self._shape)


def _im2col_clients(
    x: np.ndarray, kh: int, kw: int, stride: int
) -> tuple[np.ndarray, int, int]:
    """Client-stacked :func:`_im2col`: ``(clients, batch, C, H, W)`` input.

    Returns ``(clients, batch, out_h, out_w, C * kh * kw)`` columns; each
    client slice is byte-identical to what ``_im2col`` extracts from that
    client's own ``(batch, C, H, W)`` array.
    """
    clients, batch, channels, height, width = x.shape
    out_h = (height - kh) // stride + 1
    out_w = (width - kw) // stride + 1
    shape = (clients, batch, channels, out_h, out_w, kh, kw)
    strides = (
        x.strides[0],
        x.strides[1],
        x.strides[2],
        x.strides[3] * stride,
        x.strides[4] * stride,
        x.strides[3],
        x.strides[4],
    )
    patches = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    cols = patches.transpose(0, 1, 3, 4, 2, 5, 6).reshape(
        clients, batch, out_h, out_w, channels * kh * kw
    )
    return cols, out_h, out_w


class BatchedConv2d(_BufferMixin, Layer):
    """Per-client 2-D convolution over ``(clients, batch, C, H, W)`` input."""

    def __init__(
        self,
        num_clients: int,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
    ) -> None:
        super().__init__()
        if num_clients <= 0:
            raise ValueError("num_clients must be positive")
        if kernel_size <= 0 or stride <= 0 or padding < 0:
            raise ValueError("invalid convolution geometry")
        self.num_clients = num_clients
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.params["W"] = np.zeros(
            (num_clients, out_channels, in_channels, kernel_size, kernel_size),
            dtype=np.float64,
        )
        self.params["b"] = np.zeros((num_clients, out_channels), dtype=np.float64)
        self.grads["W"] = np.zeros_like(self.params["W"])
        self.grads["b"] = np.zeros_like(self.params["b"])
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, ...] | None = None
        self._bufs: dict = {}

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 5 or x.shape[0] != self.num_clients or x.shape[2] != self.in_channels:
            raise ValueError(
                f"BatchedConv2d expected ({self.num_clients}, batch, "
                f"{self.in_channels}, H, W), got {x.shape}"
            )
        if self.padding:
            pad = self.padding
            x = np.pad(x, ((0, 0), (0, 0), (0, 0), (pad, pad), (pad, pad)))
        self._x_shape = x.shape
        k = self.kernel_size
        cols, out_h, out_w = _im2col_clients(x, k, k, self.stride)
        self._cols = cols
        w_mat = self.params["W"].reshape(self.num_clients, self.out_channels, -1)
        # Indexing (not reshape) adds the broadcast axes so each per-(client,
        # image, row) slice runs the *same* (ow, ckk) @ (ckk, out) GEMM the
        # serial forward's broadcast ``cols @ w_mat.T`` runs — flattening rows
        # into one big GEMM changes dgemm's accumulation order at some shapes
        # (observed at the second conv of the default LeNet) and breaks
        # bit-identity, so the row-sliced form is load-bearing, not stylistic.
        w_t = w_mat.transpose(0, 2, 1)[:, None, None, :, :]
        out = self._buf("fwd", cols.shape[:-1] + (self.out_channels,))
        np.matmul(cols, w_t, out=out)
        out += self.params["b"][:, None, None, None, :]
        return out.transpose(0, 1, 4, 2, 3)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_2d = self._backward_params(grad_out)
        clients, batch, _, out_h, out_w = grad_out.shape
        k = self.kernel_size
        ckk = self._cols.shape[-1]
        w_mat = self.params["W"].reshape(clients, self.out_channels, -1)
        grad_cols = self._buf("bwd", (clients, grad_2d.shape[1], ckk))
        np.matmul(grad_2d, w_mat, out=grad_cols)
        grad_cols = grad_cols.reshape(
            clients, batch, out_h, out_w, self.in_channels, k, k
        )

        grad_x = np.zeros(self._x_shape, dtype=np.float64)
        stride = self.stride
        offset_grads = grad_cols.transpose(0, 1, 4, 5, 6, 2, 3)  # (C, B, ch, kh, kw, oh, ow)
        for ki in range(k):
            for kj in range(k):
                grad_x[
                    :, :, :, ki : ki + stride * out_h : stride, kj : kj + stride * out_w : stride
                ] += offset_grads[:, :, :, ki, kj]
        if self.padding:
            pad = self.padding
            grad_x = grad_x[:, :, :, pad:-pad, pad:-pad]
        return grad_x

    def backward_params(self, grad_out: np.ndarray) -> None:
        self._backward_params(grad_out)

    def _backward_params(self, grad_out: np.ndarray) -> np.ndarray:
        """Write the parameter gradients; return ``grad_out`` as (clients, positions, channels)."""
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        clients = grad_out.shape[0]
        ckk = self._cols.shape[-1]
        grad_2d = grad_out.transpose(0, 1, 3, 4, 2).reshape(clients, -1, self.out_channels)
        cols_2d = self._cols.reshape(clients, -1, ckk)
        np.matmul(
            grad_2d.transpose(0, 2, 1),
            cols_2d,
            out=self.grads["W"].reshape(clients, self.out_channels, ckk),
        )
        np.sum(grad_2d, axis=1, out=self.grads["b"])
        return grad_2d


class BatchedMaxPool2d(Layer):
    """Per-client max pooling over ``(clients, batch, C, H, W)`` input."""

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("pool size must be positive")
        self.kernel_size = kernel_size
        self._x_shape: tuple[int, ...] | None = None
        self._argmax: np.ndarray | None = None
        self._out_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        k = self.kernel_size
        clients, batch, channels, height, width = x.shape
        out_h, out_w = height // k, width // k
        if out_h == 0 or out_w == 0:
            raise ValueError(
                f"MaxPool2d({k}) input of {height}x{width} is smaller than its window"
            )
        self._x_shape = x.shape
        cropped = x[:, :, :, : out_h * k, : out_w * k]
        windows = cropped.reshape(
            clients, batch, channels, out_h, k, out_w, k
        ).transpose(0, 1, 2, 3, 5, 4, 6)
        windows = windows.reshape(clients, batch, channels, out_h, out_w, k * k)
        self._argmax = windows.argmax(axis=-1)
        self._out_shape = (clients, batch, channels, out_h, out_w)
        return windows.max(axis=-1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None or self._argmax is None or self._out_shape is None:
            raise RuntimeError("backward called before forward")
        k = self.kernel_size
        clients, batch, channels, out_h, out_w = self._out_shape
        grad_windows = np.zeros(
            (clients, batch, channels, out_h, out_w, k * k), dtype=np.float64
        )
        idx = np.indices((clients, batch, channels, out_h, out_w))
        grad_windows[idx[0], idx[1], idx[2], idx[3], idx[4], self._argmax] = grad_out
        grad_windows = grad_windows.reshape(clients, batch, channels, out_h, out_w, k, k)
        region = grad_windows.transpose(0, 1, 2, 3, 5, 4, 6).reshape(
            clients, batch, channels, out_h * k, out_w * k
        )
        grad_x = np.zeros(self._x_shape, dtype=np.float64)
        grad_x[:, :, :, : out_h * k, : out_w * k] = region
        return grad_x


#: Activations whose math is elementwise and shape-agnostic: the serial layer
#: classes operate on client-stacked arrays unchanged.
_ELEMENTWISE_LAYERS = (ReLU, Tanh, Sigmoid)


def has_batched_counterpart(layer: Layer) -> bool:
    """Whether :func:`batch_layer` can stack this layer across clients.

    ``Dropout`` is the notable exception: it draws from a layer-internal RNG
    whose consumption order is execution-dependent, which would void the
    batched ≡ serial bit-identity guarantee.
    """
    return isinstance(
        layer, (Linear, Conv2d, MaxPool2d, Flatten) + _ELEMENTWISE_LAYERS
    )


def batch_layer(layer: Layer, num_clients: int) -> Layer:
    """Build the client-stacked counterpart of a serial layer.

    Only geometry is copied — parameters are fresh zero planes, to be
    filled by ``BatchedSequential.load_global``.
    """
    if isinstance(layer, Linear):
        return BatchedLinear(num_clients, layer.in_features, layer.out_features)
    if isinstance(layer, Conv2d):
        return BatchedConv2d(
            num_clients,
            layer.in_channels,
            layer.out_channels,
            layer.kernel_size,
            stride=layer.stride,
            padding=layer.padding,
        )
    if isinstance(layer, MaxPool2d):
        return BatchedMaxPool2d(layer.kernel_size)
    if isinstance(layer, Flatten):
        return BatchedFlatten()
    if isinstance(layer, _ELEMENTWISE_LAYERS):
        return type(layer)()
    raise ValueError(
        f"{type(layer).__name__} has no batched counterpart; run these "
        "clients on a serial execution path"
    )


def slice_clients(layer: Layer, a: int, b: int) -> Layer:
    """A view-layer over client rows ``[a, b)`` of a batched layer.

    Parameter and gradient entries are basic-slice *views* into the parent
    layer's planes — math done through the view lands directly in the parent's
    storage, which is how the ragged step scheduler in
    :func:`repro.federated.client.local_train_batched` trains a sub-range of
    a client stack (clients whose datasets ran out of full batches) without
    copying weights in or out.  Activation caches and output buffers are
    per-view, so interleaving a view with its parent is safe as long as each
    forward/backward pair completes before the next begins.
    """
    if not 0 <= a < b <= getattr(layer, "num_clients", b):
        raise ValueError(f"invalid client slice [{a}, {b})")
    if isinstance(layer, (BatchedLinear, BatchedConv2d)):
        clone = copy.copy(layer)
        clone.num_clients = b - a
        clone.params = {name: plane[a:b] for name, plane in layer.params.items()}
        clone.grads = {name: plane[a:b] for name, plane in layer.grads.items()}
        clone._bufs = {}
        if isinstance(layer, BatchedLinear):
            clone._x = None
        else:
            clone._cols = None
            clone._x_shape = None
        return clone
    if isinstance(layer, BatchedMaxPool2d):
        return BatchedMaxPool2d(layer.kernel_size)
    if isinstance(layer, BatchedFlatten):
        return BatchedFlatten()
    if isinstance(layer, _ELEMENTWISE_LAYERS):
        return type(layer)()
    raise ValueError(f"{type(layer).__name__} cannot be client-sliced")

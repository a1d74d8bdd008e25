"""Differentiable layers with explicit forward/backward passes.

Every layer follows the same contract:

* ``forward(x, training=False)`` consumes a numpy array and returns a numpy
  array, caching whatever is needed for the backward pass.
* ``backward(grad_out)`` consumes the gradient of the loss with respect to the
  layer output and returns the gradient with respect to the layer input,
  writing the parameter gradients into ``self.grads``: a layer with
  parameters overwrites them (``np.matmul``/``np.add.reduce`` with ``out=``), so
  two calls leave what one call leaves and nothing zeroes them between
  steps.
* ``backward_params(grad_out)`` writes the same parameter gradients and
  computes no input gradient.  A model calls it on its first layer with
  parameters, whose input gradient nothing reads (see
  :meth:`repro.nn.model.Sequential.backward`).
* ``params`` / ``grads`` are dictionaries keyed by parameter name.  A
  standalone layer owns its arrays; inside a model they are reshaped views
  of the model's flat ``params`` / ``grads`` buffers (see
  :mod:`repro.nn.model`), so every write below lands in the buffers and an
  entry must be updated in place, never rebound.

Every layer works over leading axes: a serial model feeds it ``(batch,
...)`` arrays, and a client stack (:class:`repro.nn.model.BatchedSequential`)
feeds shallow copies of the same layers ``(clients, batch, ...)`` arrays.  A
weight layer reads which from its own parameters — ``(*shape)`` serially,
``(clients, *shape)`` views of the stack's planes in a stack — and
:class:`Flatten` keeps its first ``start_axis`` axes.  Each client slice of
a stacked call runs that client's serial arithmetic bit for bit:
``np.matmul`` runs a stacked matmul as one BLAS GEMM per leading slice with
the serial shapes and strides, and every reduction sums the same contiguous
memory.  ``Dropout`` is the one layer that cannot stack (``stackable``).

The design intentionally mirrors the subset of PyTorch used by the paper's
models (LeNet-style CNN, MLP heads) while staying dependency-free.
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import glorot_uniform, he_uniform
from repro.registry import is_count

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


def _require_counts(**values) -> None:
    """Raise a ``ValueError`` naming the first value that is not a positive int."""
    for name, value in values.items():
        if not is_count(value):
            raise ValueError(f"{name} must be a positive integer, got {value!r}")


class Layer:
    """Base class for all layers.

    Subclasses with trainable parameters populate ``self.params`` and
    ``self.grads`` with identically-keyed numpy arrays.
    """

    #: Whether a client stack may hold a shallow copy of this layer.
    stackable = True

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

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)


class Linear(Layer):
    """Fully connected layer ``y = x W + b``, per leading slice in a stack."""

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
        w = self.params["W"]
        if x.ndim != w.ndim or x.shape[-1] != self.in_features:
            raise ValueError(
                f"Linear expected input of shape ({'clients, ' * (w.ndim - 2)}batch, "
                f"{self.in_features}), got {x.shape}"
            )
        self._x = x
        return x @ w + self.params["b"][..., None, :]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        self.backward_params(grad_out)
        return grad_out @ self.params["W"].mT

    def backward_params(self, grad_out: np.ndarray) -> None:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        np.matmul(self._x.mT, grad_out, out=self.grads["W"])
        # What np.sum(axis=-2) runs, bit for bit, without its Python wrapper.
        np.add.reduce(grad_out, axis=-2, out=self.grads["b"])


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
    """Reshape ``(*lead, *dims)`` into ``(*lead, prod(dims))``.

    ``lead`` is the first ``start_axis`` axes: ``(batch,)`` in a serial
    model; a client stack's copy keeps ``(clients, batch)``.
    """

    def __init__(self) -> None:
        super().__init__()
        self.start_axis = 1
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[: self.start_axis] + (-1,))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        return grad_out.reshape(self._shape)


class Dropout(Layer):
    """Inverted dropout; identity at evaluation time.

    Not stackable: its mask comes from the layer's own generator in call
    order, so a client stack would draw the clients' masks in another order
    than serial training does.
    """

    stackable = False

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


def _im2col(x: np.ndarray, k: int, stride: int) -> np.ndarray:
    """Extract sliding ``k`` × ``k`` patches of ``(*lead, C, H, W)`` into columns.

    Returns ``(*lead, out_h, out_w, C * k * k)``; each leading slice holds
    exactly the columns its own ``(C, H, W)`` image gives.
    """
    *lead, channels, height, width = x.shape
    out_h = (height - k) // stride + 1
    out_w = (width - k) // stride + 1
    *lead_strides, s_c, s_h, s_w = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x,
        shape=(*lead, channels, out_h, out_w, k, k),
        strides=(*lead_strides, s_c, s_h * stride, s_w * stride, s_h, s_w),
    )
    n = len(lead)
    cols = patches.transpose(*range(n), n + 1, n + 2, n, n + 3, n + 4)
    return cols.reshape(*lead, out_h, out_w, channels * k * k)


class Conv2d(Layer):
    """2-D convolution (valid padding unless ``padding`` is given), stride 1+.

    Input/output layout is ``(batch, channels, height, width)``, matching the
    PyTorch convention used by the paper's LeNet model, with a leading
    ``clients`` axis in a stack.
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
        _require_counts(
            in_channels=in_channels,
            out_channels=out_channels,
            kernel_size=kernel_size,
            stride=stride,
        )
        if not isinstance(padding, int) or isinstance(padding, bool) or padding < 0:
            raise ValueError(f"padding must be a non-negative integer, got {padding!r}")
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

    def _w_mat(self) -> np.ndarray:
        """``W`` as ``(*lead, out_channels, C * k * k)``."""
        w = self.params["W"]
        return w.reshape(w.shape[:-3] + (-1,))

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        w_ndim = self.params["W"].ndim
        if x.ndim != w_ndim or x.shape[-3] != self.in_channels:
            raise ValueError(
                f"Conv2d expected ({'clients, ' * (w_ndim - 4)}batch, "
                f"{self.in_channels}, H, W), got {x.shape}"
            )
        if self.padding:
            pad = self.padding
            x = np.pad(x, [(0, 0)] * (x.ndim - 2) + [(pad, pad), (pad, pad)])
        self._x_shape = x.shape
        cols = _im2col(x, self.kernel_size, self.stride)
        self._cols = cols
        # The two broadcast axes make matmul run one (out_w, ckk) @ (ckk,
        # out) GEMM per (image, output row), the weights a transposed view.
        # Flattening the rows into one big GEMM changes dgemm's accumulation
        # order at some shapes (the default LeNet's second conv) and breaks
        # bit-identity with every recorded history, so this form is
        # load-bearing; tests/nn/test_layers.py pins it.
        w_t = self._w_mat().mT[..., None, None, :, :]
        out = cols @ w_t + self.params["b"][..., None, None, None, :]
        return np.moveaxis(out, -1, -3)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_2d = self._backward_params(grad_out)
        *lead, _, out_h, out_w = grad_out.shape
        k = self.kernel_size
        grad_cols = (grad_2d @ self._w_mat()).reshape(
            *lead, out_h, out_w, self.in_channels, k, k
        )

        # col2im scatter-add, vectorised over the output grid: instead of one
        # small add per output position (out_h × out_w iterations) do one big
        # strided add per kernel offset (k × k iterations).  Overlapping
        # windows accumulate because the strided views cover disjoint slices
        # per offset.
        grad_x = np.zeros(self._x_shape, dtype=np.float64)
        stride = self.stride
        offset_grads = np.moveaxis(grad_cols, (-5, -4), (-2, -1))  # (..., C, kh, kw, oh, ow)
        for ki in range(k):
            for kj in range(k):
                grad_x[
                    ..., ki : ki + stride * out_h : stride, kj : kj + stride * out_w : stride
                ] += offset_grads[..., ki, kj, :, :]
        if self.padding:
            pad = self.padding
            grad_x = grad_x[..., pad:-pad, pad:-pad]
        return grad_x

    def backward_params(self, grad_out: np.ndarray) -> None:
        self._backward_params(grad_out)

    def _backward_params(self, grad_out: np.ndarray) -> np.ndarray:
        """Write the parameter gradients; return ``grad_out`` as (*lead, positions, channels).

        The weight gradient is one GEMM per client over all its positions.
        """
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        lead = self.params["W"].shape[:-4]
        grad_2d = np.moveaxis(grad_out, -3, -1).reshape(*lead, -1, self.out_channels)
        cols_2d = self._cols.reshape(*lead, -1, self._cols.shape[-1])
        grad_w = self.grads["W"].reshape(*lead, self.out_channels, -1)
        np.matmul(grad_2d.mT, cols_2d, out=grad_w)
        np.add.reduce(grad_2d, axis=-2, out=self.grads["b"])
        return grad_2d


class MaxPool2d(Layer):
    """Max pooling with square window and matching stride.

    Spatial dims that are not multiples of ``kernel_size`` are floored (the
    trailing remainder rows/columns are cropped, PyTorch's default); the
    backward pass routes zero gradient into the cropped region.  Pools the
    last two axes of any ``(..., H, W)`` input.
    """

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        _require_counts(kernel_size=kernel_size)
        self.kernel_size = kernel_size
        self._x_shape: tuple[int, ...] | None = None
        self._argmax: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        k = self.kernel_size
        *lead, height, width = x.shape
        out_h, out_w = height // k, width // k
        if out_h == 0 or out_w == 0:
            raise ValueError(
                f"MaxPool2d({k}) input of {height}x{width} is smaller than its window"
            )
        self._x_shape = x.shape
        cropped = x[..., : out_h * k, : out_w * k]
        windows = cropped.reshape(*lead, out_h, k, out_w, k).swapaxes(-3, -2)
        windows = windows.reshape(*lead, out_h, out_w, k * k)
        self._argmax = windows.argmax(axis=-1)
        return windows.max(axis=-1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None or self._argmax is None:
            raise RuntimeError("backward called before forward")
        k = self.kernel_size
        *lead, out_h, out_w = self._argmax.shape
        grad_windows = np.zeros((*lead, out_h, out_w, k * k), dtype=np.float64)
        np.put_along_axis(grad_windows, self._argmax[..., None], grad_out[..., None], axis=-1)
        region = grad_windows.reshape(*lead, out_h, out_w, k, k).swapaxes(-3, -2)
        grad_x = np.zeros(self._x_shape, dtype=np.float64)
        grad_x[..., : out_h * k, : out_w * k] = region.reshape(*lead, out_h * k, out_w * k)
        return grad_x

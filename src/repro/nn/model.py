"""Model containers and factories for the architectures used in the paper.

The paper (Section V, Supplementary E) uses:

* a LeNet-based network (two convolution + two fully connected layers) for
  the FEMNIST image task — reproduced by :func:`make_lenet`;
* a two-layer fully connected task head on top of frozen BERT features for
  the Sentiment text task — reproduced by :func:`make_text_head`;
* plain MLPs for ablations and quick experiments — :func:`make_mlp`.

Every model owns one flat float64 parameter buffer ``params`` and one
gradient buffer ``grads`` — the representation federated learning, the
attack and the defenses work on (``Δθ = params − θ_global``).  Layers hold
reshaped views of them (see :func:`_pack`), so the layer kernels write into
the buffers directly, and ``zero_grad``, the optimiser step, the proximal
term and (un)flattening each work on the whole vector at once.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from repro.nn.layers import (
    Conv2d,
    Dropout,
    Flatten,
    Layer,
    Linear,
    MaxPool2d,
    ReLU,
    batch_layer,
    has_batched_counterpart,
    slice_clients,
)
from repro.nn.losses import softmax
from repro.nn.serialization import unflatten_params
from repro.registry import MODELS


def _pack(layers: list[Layer], lead: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Move every layer's parameters and gradients into one buffer pair.

    Returns ``(params, grads)`` of shape ``(*lead, dim)`` — ``lead`` is ``()``
    for a serial model and ``(clients,)`` for a stacked one.  Each parameter
    takes the next slice of the last axis in the canonical order (layer
    order, then sorted name) and the layer's ``params[name]``/``grads[name]``
    become reshaped views of that slice, so a stacked client's parameter is
    C-contiguous with the serial GEMM's shape and strides.  Parameter values
    are copied in; gradients start at zero.
    """
    slots = [(layer, name) for layer in layers for name in sorted(layer.params)]
    shapes = [layer.params[name].shape[len(lead):] for layer, name in slots]
    dim = sum(math.prod(shape) for shape in shapes)
    params = np.empty(lead + (dim,), dtype=np.float64)
    grads = np.zeros(lead + (dim,), dtype=np.float64)
    offset = 0
    for (layer, name), shape in zip(slots, shapes, strict=True):
        end = offset + math.prod(shape)
        view = params[..., offset:end].reshape(lead + shape)
        view[...] = layer.params[name]
        layer.params[name] = view
        layer.grads[name] = grads[..., offset:end].reshape(lead + shape)
        offset = end
    return params, grads


def _first_weight_layer(layers: list[Layer]) -> int:
    """Index of the first layer with parameters (0 if none has any)."""
    return next((i for i, layer in enumerate(layers) if layer.params), 0)


def _backward(layers: list[Layer], first: int, grad_out: np.ndarray) -> None:
    """Back-propagate ``grad_out`` from the top layer down to ``layers[first]``."""
    grad = grad_out
    for layer in layers[:first:-1]:
        grad = layer.backward(grad)
    layers[first].backward_params(grad)


class Sequential:
    """Ordered container of layers with whole-model forward/backward.

    ``params``/``grads`` are the model's flat buffers; the layers' own
    arrays are views of them (:func:`_pack`).  Also provides the prediction
    helpers used by the metrics code.
    """

    def __init__(self, layers: list[Layer]) -> None:
        if not layers:
            raise ValueError("Sequential requires at least one layer")
        self.layers = list(layers)
        self.params, self.grads = _pack(self.layers, ())
        self._first_weighted = _first_weight_layer(self.layers)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def backward(self, grad_out: np.ndarray) -> None:
        """Write ``grads`` for the last forward batch from the output gradient.

        Every weight layer overwrites its gradients, so ``grads`` holds this
        batch's gradient alone and a training step needs no ``zero_grad``.
        Back-propagation stops at the first layer with parameters, which
        computes no input gradient (``backward_params``); the layers below
        it hold no parameters and are not visited, since nothing reads the
        gradient with respect to the model input.
        """
        _backward(self.layers, self._first_weighted, grad_out)

    def zero_grad(self) -> None:
        self.grads.fill(0.0)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities for a batch of inputs (evaluation mode)."""
        return softmax(self.forward(x, training=False))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Hard class predictions for a batch of inputs."""
        return self.forward(x, training=False).argmax(axis=-1)

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)


def supports_batching(model: Sequential) -> bool:
    """Whether every layer of ``model`` has a client-stacked counterpart."""
    return all(has_batched_counterpart(layer) for layer in model.layers)


class BatchedSequential:
    """Train ``num_clients`` copies of one architecture as a single model.

    ``params``/``grads`` are ``(clients, dim)`` planes: row ``c`` is client
    ``c``'s flat vector in the template model's canonical order, and each
    batched layer's ``(clients, *shape)`` arrays are views of them.  All
    activations carry a leading ``clients`` dimension, so one
    forward/backward pass trains every client at once — with per-slice math
    bitwise identical to running each client through the serial
    :class:`Sequential` (see the batched-kernel notes in
    :mod:`repro.nn.layers`).
    """

    def __init__(self, layers: list[Layer], num_clients: int) -> None:
        if not layers:
            raise ValueError("BatchedSequential requires at least one layer")
        if num_clients <= 0:
            raise ValueError("num_clients must be positive")
        self.layers = list(layers)
        self.num_clients = num_clients
        self.params, self.grads = _pack(self.layers, (num_clients,))
        self._first_weighted = _first_weight_layer(self.layers)
        self._views: dict[tuple[int, int], BatchedSequential] = {}

    @classmethod
    def from_template(cls, template: Sequential, num_clients: int) -> "BatchedSequential":
        """Stack a serial model's architecture across ``num_clients`` clients."""
        return cls(
            [batch_layer(layer, num_clients) for layer in template.layers], num_clients
        )

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def backward(self, grad_out: np.ndarray) -> None:
        """The client-stacked :meth:`Sequential.backward`: writes every ``grads`` row."""
        _backward(self.layers, self._first_weighted, grad_out)

    def zero_grad(self) -> None:
        self.grads.fill(0.0)

    def load_global(self, vector: np.ndarray) -> None:
        """Write one flat global parameter vector into every client's row."""
        unflatten_params(self, vector)

    def view(self, a: int, b: int) -> "BatchedSequential":
        """A cached sub-model over client rows ``[a, b)`` sharing storage.

        The view's ``params``/``grads`` are rows ``[a, b)`` of this model's
        planes and its layers' arrays are views of those rows (see
        :func:`repro.nn.layers.slice_clients`), so training through the view
        updates the parent in place.  Views are cached per range — the ragged
        step scheduler revisits the same handful of prefixes every epoch.
        """
        if a == 0 and b == self.num_clients:
            return self
        if not 0 <= a < b <= self.num_clients:
            raise ValueError(
                f"invalid client range [{a}, {b}) for {self.num_clients} clients"
            )
        cached = self._views.get((a, b))
        if cached is None:
            cached = copy.copy(self)
            cached.layers = [slice_clients(layer, a, b) for layer in self.layers]
            cached.num_clients = b - a
            cached.params = self.params[a:b]
            cached.grads = self.grads[a:b]
            cached._views = {}
            self._views[(a, b)] = cached
        return cached

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)


@MODELS.register("mlp")
def make_mlp(
    in_features: int,
    hidden: tuple[int, ...],
    num_classes: int,
    seed: int = 0,
    dropout: float = 0.0,
) -> Sequential:
    """Multi-layer perceptron with ReLU activations.

    Parameters
    ----------
    in_features:
        Input feature dimension.
    hidden:
        Sizes of the hidden layers; may be empty for a linear classifier.
    num_classes:
        Output dimension (logits).
    seed:
        Seed for weight initialisation; the same seed yields byte-identical
        models, which federated learning relies on for a shared ``θ¹``.
    dropout:
        Optional dropout probability applied after each hidden activation.
    """
    rng = np.random.default_rng(seed)
    layers: list[Layer] = []
    prev = in_features
    for width in hidden:
        layers.append(Linear(prev, width, rng=rng))
        layers.append(ReLU())
        if dropout > 0.0:
            layers.append(Dropout(dropout, rng=np.random.default_rng(seed + 1)))
        prev = width
    layers.append(Linear(prev, num_classes, rng=rng))
    return Sequential(layers)


@MODELS.register("lenet")
def make_lenet(
    image_size: int = 16,
    in_channels: int = 1,
    num_classes: int = 10,
    conv_channels: tuple[int, int] = (6, 16),
    fc_width: int = 64,
    seed: int = 0,
) -> Sequential:
    """LeNet-style CNN: two conv+pool blocks followed by two dense layers.

    The default geometry is sized for the synthetic FEMNIST-like images used
    in this reproduction (``image_size`` × ``image_size`` single-channel),
    mirroring the paper's "LeNet-based network with two convolution and two
    fully connected layers".
    """
    if image_size % 4 != 0:
        raise ValueError("image_size must be divisible by 4 for the two pooling stages")
    rng = np.random.default_rng(seed)
    c1, c2 = conv_channels
    layers: list[Layer] = [
        Conv2d(in_channels, c1, kernel_size=3, padding=1, rng=rng),
        ReLU(),
        MaxPool2d(2),
        Conv2d(c1, c2, kernel_size=3, padding=1, rng=rng),
        ReLU(),
        MaxPool2d(2),
        Flatten(),
        Linear(c2 * (image_size // 4) ** 2, fc_width, rng=rng),
        ReLU(),
        Linear(fc_width, num_classes, rng=rng),
    ]
    return Sequential(layers)


@MODELS.register("text")
def make_text_head(
    embedding_dim: int = 32,
    hidden: int = 64,
    num_classes: int = 2,
    seed: int = 0,
) -> Sequential:
    """Two-layer fully connected task head over frozen text embeddings.

    Stands in for the paper's "BERT tokenizer with a two-layer fully connected
    task head": the encoder is frozen in the paper, so federated training only
    updates this head.
    """
    rng = np.random.default_rng(seed)
    layers: list[Layer] = [
        Linear(embedding_dim, hidden, rng=rng),
        ReLU(),
        Linear(hidden, num_classes, rng=rng),
    ]
    return Sequential(layers)

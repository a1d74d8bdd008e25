"""Pure-numpy neural-network substrate.

The paper trains LeNet-style image classifiers and a small text-classification
head on top of frozen BERT features, using PyTorch.  This reproduction is
framework-free: every layer implements explicit ``forward`` / ``backward``
passes over numpy arrays.  A model keeps all its parameters in one flat
vector ``params`` (and its gradients in ``grads``) — the representation the
attack and the defenses operate on — and its layers hold reshaped views of
those buffers, so the optimiser and (un)flattening work on one vector.

Public API
----------
Layers:      :class:`Linear`, :class:`Conv2d`, :class:`MaxPool2d`,
             :class:`ReLU`, :class:`Tanh`, :class:`Sigmoid`, :class:`Flatten`,
             :class:`Dropout`
Containers:  :class:`Sequential`
Losses:      :class:`SoftmaxCrossEntropy`, :class:`MSELoss`
Optimisers:  :class:`SGD`
Models:      :func:`make_mlp`, :func:`make_lenet`, :func:`make_text_head`
Utilities:   :func:`flatten_params`, :func:`unflatten_params`,
             :func:`parameter_count`
"""

from repro.nn.layers import (
    Conv2d,
    Dropout,
    Flatten,
    Layer,
    Linear,
    MaxPool2d,
    ReLU,
    Sigmoid,
    Tanh,
)
from repro.nn.losses import MSELoss, SoftmaxCrossEntropy
from repro.nn.model import Sequential, make_lenet, make_mlp, make_text_head
from repro.nn.optim import SGD
from repro.nn.serialization import (
    flatten_params,
    parameter_count,
    unflatten_params,
)

__all__ = [
    "Layer",
    "Linear",
    "Conv2d",
    "MaxPool2d",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Flatten",
    "Dropout",
    "Sequential",
    "SoftmaxCrossEntropy",
    "MSELoss",
    "SGD",
    "make_mlp",
    "make_lenet",
    "make_text_head",
    "flatten_params",
    "unflatten_params",
    "parameter_count",
]

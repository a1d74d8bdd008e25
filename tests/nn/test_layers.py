"""Unit tests for the numpy layers, including numerical gradient checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers import (
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Sigmoid,
    Tanh,
)
from repro.nn.model import BatchedSequential, make_lenet


def numerical_gradient(fn, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = x[idx]
        x[idx] = original + eps
        plus = fn()
        x[idx] = original - eps
        minus = fn()
        x[idx] = original
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(4, 3, rng=rng)
        out = layer.forward(rng.normal(size=(5, 4)))
        assert out.shape == (5, 3)

    def test_forward_matches_matmul(self, rng):
        layer = Linear(4, 3, rng=rng)
        x = rng.normal(size=(2, 4))
        expected = x @ layer.params["W"] + layer.params["b"]
        np.testing.assert_allclose(layer.forward(x), expected)

    def test_rejects_bad_input_shape(self, rng):
        layer = Linear(4, 3, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(rng.normal(size=(5, 7)))

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 3)

    def test_backward_input_gradient_matches_numerical(self, rng):
        layer = Linear(4, 3, rng=rng)
        x = rng.normal(size=(3, 4))

        def loss():
            return float(np.sum(layer.forward(x) ** 2))

        layer.forward(x)
        grad_out = 2.0 * layer.forward(x)
        analytic = layer.backward(grad_out)
        numeric = numerical_gradient(loss, x)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    def test_backward_weight_gradient_matches_numerical(self, rng):
        layer = Linear(3, 2, rng=rng)
        x = rng.normal(size=(4, 3))

        def loss():
            return float(np.sum(layer.forward(x) ** 2))

        out = layer.forward(x)
        layer.backward(2.0 * out)
        numeric = numerical_gradient(loss, layer.params["W"])
        np.testing.assert_allclose(layer.grads["W"], numeric, atol=1e-5)

    def test_backward_before_forward_raises(self, rng):
        layer = Linear(3, 2, rng=rng)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 2)))


class TestActivations:
    def test_relu_forward(self):
        layer = ReLU()
        x = np.array([[-1.0, 0.0, 2.0]])
        np.testing.assert_allclose(layer.forward(x), [[0.0, 0.0, 2.0]])

    def test_relu_backward_masks_negative(self):
        layer = ReLU()
        x = np.array([[-1.0, 0.5, 2.0]])
        layer.forward(x)
        grad = layer.backward(np.ones_like(x))
        np.testing.assert_allclose(grad, [[0.0, 1.0, 1.0]])

    def test_tanh_gradient_matches_numerical(self, rng):
        layer = Tanh()
        x = rng.normal(size=(2, 3))

        def loss():
            return float(np.sum(layer.forward(x) ** 2))

        out = layer.forward(x)
        analytic = layer.backward(2.0 * out)
        numeric = numerical_gradient(loss, x)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    def test_sigmoid_range_and_gradient(self, rng):
        layer = Sigmoid()
        x = rng.normal(size=(2, 3)) * 5
        out = layer.forward(x)
        assert np.all(out > 0) and np.all(out < 1)

        def loss():
            return float(np.sum(layer.forward(x) ** 2))

        out = layer.forward(x)
        analytic = layer.backward(2.0 * out)
        numeric = numerical_gradient(loss, x)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    def test_sigmoid_saturation_is_finite(self):
        layer = Sigmoid()
        out = layer.forward(np.array([[1e4, -1e4]]))
        assert np.all(np.isfinite(out))

    def test_backward_before_forward_raises(self):
        for layer in (ReLU(), Tanh(), Sigmoid()):
            with pytest.raises(RuntimeError):
                layer.backward(np.ones((1, 1)))


class TestFlattenDropout:
    def test_flatten_roundtrip(self, rng):
        layer = Flatten()
        x = rng.normal(size=(2, 3, 4, 4))
        out = layer.forward(x)
        assert out.shape == (2, 48)
        back = layer.backward(out)
        assert back.shape == x.shape


    def test_dropout_eval_mode_is_identity(self, rng):
        layer = Dropout(0.5, rng=rng)
        x = rng.normal(size=(4, 6))
        np.testing.assert_allclose(layer.forward(x, training=False), x)

    def test_dropout_training_zeroes_some_and_scales(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        x = np.ones((1, 1000))
        out = layer.forward(x, training=True)
        zero_fraction = float((out == 0).mean())
        assert 0.35 < zero_fraction < 0.65
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 2.0)

    def test_dropout_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestConv2d:
    def test_forward_shape_valid_and_padded(self, rng):
        x = rng.normal(size=(2, 1, 8, 8))
        conv = Conv2d(1, 3, kernel_size=3, rng=rng)
        assert conv.forward(x).shape == (2, 3, 6, 6)
        conv_padded = Conv2d(1, 3, kernel_size=3, padding=1, rng=rng)
        assert conv_padded.forward(x).shape == (2, 3, 8, 8)

    def test_forward_matches_naive_convolution(self, rng):
        conv = Conv2d(2, 1, kernel_size=2, rng=rng)
        x = rng.normal(size=(1, 2, 4, 4))
        out = conv.forward(x)
        w, b = conv.params["W"], conv.params["b"]
        expected = np.zeros((1, 1, 3, 3))
        for i in range(3):
            for j in range(3):
                patch = x[0, :, i : i + 2, j : j + 2]
                expected[0, 0, i, j] = np.sum(patch * w[0]) + b[0]
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_backward_input_gradient_matches_numerical(self, rng):
        conv = Conv2d(1, 2, kernel_size=3, rng=rng)
        x = rng.normal(size=(1, 1, 5, 5))

        def loss():
            return float(np.sum(conv.forward(x) ** 2))

        out = conv.forward(x)
        analytic = conv.backward(2.0 * out)
        numeric = numerical_gradient(loss, x)
        np.testing.assert_allclose(analytic, numeric, atol=1e-4)

    def test_backward_weight_gradient_matches_numerical(self, rng):
        conv = Conv2d(1, 2, kernel_size=3, padding=1, rng=rng)
        x = rng.normal(size=(2, 1, 4, 4))

        def loss():
            return float(np.sum(conv.forward(x) ** 2))

        out = conv.forward(x)
        conv.backward(2.0 * out)
        numeric = numerical_gradient(loss, conv.params["W"])
        np.testing.assert_allclose(conv.grads["W"], numeric, atol=1e-4)

    def test_rejects_wrong_channel_count(self, rng):
        conv = Conv2d(3, 2, kernel_size=3, rng=rng)
        with pytest.raises(ValueError):
            conv.forward(rng.normal(size=(1, 1, 8, 8)))

    @pytest.mark.parametrize(
        "field,kwargs",
        [
            ("in_channels", {"in_channels": 0}),
            ("in_channels", {"in_channels": 2.0}),
            ("out_channels", {"out_channels": 0}),
            ("out_channels", {"out_channels": -3}),
            ("kernel_size", {"kernel_size": 0}),
            ("kernel_size", {"kernel_size": 1.5}),
            ("stride", {"stride": 0}),
            ("stride", {"stride": True}),
            ("padding", {"padding": -1}),
            ("padding", {"padding": 0.5}),
        ],
    )
    def test_rejects_bad_geometry(self, field, kwargs):
        geometry = {"in_channels": 2, "out_channels": 3, "kernel_size": 3, **kwargs}
        with pytest.raises(ValueError, match=field):
            Conv2d(**geometry)


class TestMaxPool2d:
    def test_forward_picks_maximum(self):
        pool = MaxPool2d(2)
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = pool.forward(x)
        np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_backward_routes_gradient_to_argmax(self):
        pool = MaxPool2d(2)
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        pool.forward(x)
        grad = pool.backward(np.ones((1, 1, 2, 2)))
        assert grad.sum() == 4.0
        assert grad[0, 0, 1, 1] == 1.0 and grad[0, 0, 3, 3] == 1.0
        assert grad[0, 0, 0, 0] == 0.0

    def test_floors_nondivisible_dims(self, rng):
        # 7x5 input under a 3-window floors to 2x1; the remainder rows and
        # columns are cropped, exactly as if the input had been pre-cropped.
        pool = MaxPool2d(3)
        x = rng.normal(size=(2, 3, 7, 5))
        out = pool.forward(x)
        assert out.shape == (2, 3, 2, 1)
        np.testing.assert_array_equal(out, MaxPool2d(3).forward(x[:, :, :6, :3]))

    def test_backward_zeroes_cropped_region(self, rng):
        pool = MaxPool2d(3)
        x = rng.normal(size=(2, 3, 7, 5))
        out = pool.forward(x)
        grad_out = rng.normal(size=out.shape)
        grad = pool.backward(grad_out)
        assert grad.shape == x.shape
        assert np.all(grad[:, :, 6:, :] == 0.0)
        assert np.all(grad[:, :, :, 3:] == 0.0)
        # Each window routes its whole incoming gradient to one argmax cell.
        np.testing.assert_allclose(grad.sum(), grad_out.sum())

    def test_rejects_input_smaller_than_window(self, rng):
        pool = MaxPool2d(3)
        with pytest.raises(ValueError):
            pool.forward(rng.normal(size=(1, 1, 2, 4)))

    @pytest.mark.parametrize("kernel_size", [0, -2, 1.5, True])
    def test_rejects_bad_kernel_size(self, kernel_size):
        with pytest.raises(ValueError, match="kernel_size"):
            MaxPool2d(kernel_size)


class TestDeterministicConstruction:
    """Layer construction must never draw OS entropy (rng-discipline RNG001)."""

    def test_default_construction_is_deterministic(self):
        a, b = Linear(4, 3), Linear(4, 3)
        np.testing.assert_array_equal(a.params["W"], b.params["W"])
        c, d = Conv2d(2, 3, 3), Conv2d(2, 3, 3)
        np.testing.assert_array_equal(c.params["W"], d.params["W"])

    def test_integer_seed_matches_explicit_generator(self):
        # Seed 0 is a valid seed, not a missing one (the old ``rng or
        # default_rng()`` fallback treated it as falsy).
        np.testing.assert_array_equal(
            Linear(4, 3, rng=0).params["W"],
            Linear(4, 3, rng=np.random.default_rng(0)).params["W"],
        )
        np.testing.assert_array_equal(
            Conv2d(2, 3, 3, rng=7).params["W"],
            Conv2d(2, 3, 3, rng=np.random.default_rng(7)).params["W"],
        )

    def test_distinct_seeds_differ(self):
        a = Linear(4, 3, rng=1)
        b = Linear(4, 3, rng=2)
        assert not np.array_equal(a.params["W"], b.params["W"])

    def test_dropout_default_rng_is_deterministic(self):
        x = np.ones((4, 5))
        first = Dropout(0.5).forward(x, training=True)
        second = Dropout(0.5).forward(x, training=True)
        np.testing.assert_array_equal(first, second)

    def test_passed_generator_still_honoured(self, rng):
        state = rng.bit_generator.state
        a = Linear(4, 3, rng=rng)
        rng.bit_generator.state = state
        b = Linear(4, 3, rng=rng)
        np.testing.assert_array_equal(a.params["W"], b.params["W"])


class TestWeightLayerGradients:
    # name -> (layer factory, input shape)
    LAYERS = {
        "linear": (lambda rng: Linear(4, 3, rng=rng), (5, 4)),
        "conv": (lambda rng: Conv2d(2, 3, kernel_size=3, padding=1, rng=rng), (2, 2, 5, 5)),
    }

    @pytest.mark.parametrize("kind", sorted(LAYERS))
    def test_backward_overwrites_parameter_gradients(self, kind, rng):
        # A second backward call leaves what one call leaves, and
        # backward_params writes every gradient backward writes.
        make, shape = self.LAYERS[kind]
        layer = make(rng)
        out = layer.forward(rng.normal(size=shape))
        grad_out = rng.normal(size=out.shape)
        layer.backward(grad_out)
        once = {name: grad.copy() for name, grad in layer.grads.items()}
        assert all(grad.any() for grad in once.values())
        layer.backward(grad_out)
        twice = {name: grad.copy() for name, grad in layer.grads.items()}
        for grad in layer.grads.values():
            grad.fill(np.nan)
        layer.backward_params(grad_out)
        for name, grad in once.items():
            np.testing.assert_array_equal(twice[name], grad)
            np.testing.assert_array_equal(layer.grads[name], grad)


def _columns(x: np.ndarray, k: int, pad: int) -> np.ndarray:
    """Stride-1 patches of ``(batch, C, H, W)`` as ``(batch, out_h, out_w, C * k * k)``."""
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    batch, _, height, width = xp.shape
    out_h, out_w = height - k + 1, width - k + 1
    cols = np.empty((batch, out_h, out_w, xp.shape[1] * k * k))
    for r in range(out_h):
        for c in range(out_w):
            cols[:, r, c] = xp[:, :, r : r + k, c : c + k].reshape(batch, -1)
    return cols


class TestConvGemmForm:
    """The conv's BLAS calls, pinned host-free at ``make_lenet()``'s geometry.

    Every recorded history depends on which GEMMs the conv runs, not only on
    the numbers they stand for: the forward runs one ``cols[n, r] @ W.T``
    GEMM per (image, output row), and the weight gradient one
    ``grad_2dᵀ @ cols_2d`` GEMM per client.  Other forms compute the same
    sums in another order; flattening the forward's rows into one GEMM, for
    one, differs in the last bits at the second conv.  These checks compare
    ``Conv2d`` with those explicit GEMMs bit for bit, serially and on a
    3-client stack, so a form change fails on any host.
    """

    CONVS = (0, 3)  # the layer indices of make_lenet()'s two convs
    BATCH = 4

    def _check(self, conv, w, b, x, grad_out, out, grad_w, grad_b):
        cols = _columns(x, conv.kernel_size, conv.padding)
        w_mat = w.reshape(conv.out_channels, -1)
        for n in range(cols.shape[0]):
            for r in range(cols.shape[1]):
                np.testing.assert_array_equal(out[n, :, r, :], (cols[n, r] @ w_mat.T + b).T)
        grad_2d = grad_out.transpose(0, 2, 3, 1).reshape(-1, conv.out_channels)
        cols_2d = cols.reshape(-1, cols.shape[-1])
        np.testing.assert_array_equal(grad_w.reshape(w_mat.shape), grad_2d.T @ cols_2d)
        np.testing.assert_array_equal(grad_b, grad_2d.sum(axis=0))

    def _inputs(self, model, rng, lead=()):
        """Random parameters, and each conv's input as the model feeds it."""
        model.params[...] = rng.normal(size=model.params.shape)
        x = rng.normal(size=(*lead, self.BATCH, 1, 16, 16))
        inputs = {}
        for i, layer in enumerate(model.layers[: self.CONVS[-1] + 1]):
            inputs[i] = x
            x = layer.forward(x, training=True)
        return inputs

    @pytest.mark.parametrize("index", CONVS)
    def test_serial_conv_runs_the_pinned_gemms(self, index, rng):
        model = make_lenet()
        x = self._inputs(model, rng)[index]
        conv = model.layers[index]
        out = conv.forward(x, training=True)
        grad_out = rng.normal(size=out.shape)
        conv.backward_params(grad_out)
        self._check(
            conv, conv.params["W"], conv.params["b"], x, grad_out,
            out, conv.grads["W"], conv.grads["b"],
        )

    @pytest.mark.parametrize("index", CONVS)
    def test_stacked_conv_runs_the_pinned_gemms(self, index, rng):
        stack = BatchedSequential.from_template(make_lenet(), 3)
        x = self._inputs(stack, rng, lead=(3,))[index]
        conv = stack.layers[index]
        out = conv.forward(x, training=True)
        grad_out = rng.normal(size=out.shape)
        conv.backward_params(grad_out)
        for c in range(3):
            self._check(
                conv, conv.params["W"][c], conv.params["b"][c], x[c], grad_out[c],
                out[c], conv.grads["W"][c], conv.grads["b"][c],
            )

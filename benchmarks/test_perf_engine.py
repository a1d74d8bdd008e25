"""Performance bench for the col2im Conv2d backward.

``test_conv2d_backward_col2im`` times the vectorised kernel-offset
scatter-add against the historical Python double loop over output positions
(the exact code shipped before the optimisation), on identical inputs.

Timings are always recorded (``extra_info``); the speedup assertion only
runs off-CI — wall-clock thresholds are too noisy on shared CI runners to
gate a pipeline on.
"""

from __future__ import annotations

import os
import time

import numpy as np

from benchmarks.conftest import run_once
from repro.nn.layers import Conv2d


def _backward_reference_loop(conv: Conv2d, grad_out: np.ndarray) -> np.ndarray:
    """The pre-optimisation Conv2d.backward input-gradient path, verbatim."""
    batch, _, out_h, out_w = grad_out.shape
    k = conv.kernel_size
    grad = grad_out.transpose(0, 2, 3, 1)
    grad_2d = grad.reshape(-1, conv.out_channels)
    w_mat = conv.params["W"].reshape(conv.out_channels, -1)
    grad_cols = (grad_2d @ w_mat).reshape(batch, out_h, out_w, conv.in_channels, k, k)
    grad_x = np.zeros(conv._x_shape, dtype=np.float64)
    stride = conv.stride
    for i in range(out_h):
        hi = i * stride
        for j in range(out_w):
            wj = j * stride
            grad_x[:, :, hi : hi + k, wj : wj + k] += grad_cols[:, i, j]
    if conv.padding:
        pad = conv.padding
        grad_x = grad_x[:, :, pad:-pad, pad:-pad]
    return grad_x


def _time(fn, repeats: int = 10) -> float:
    fn()  # warm-up
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats


def test_conv2d_backward_col2im(benchmark):
    """Vectorised col2im must match the loop bit-for-bit-ish and beat it."""
    rng = np.random.default_rng(0)
    conv = Conv2d(4, 8, kernel_size=3, padding=1, rng=rng)
    x = rng.normal(size=(16, 4, 32, 32))
    grad_out = rng.normal(size=conv.forward(x, training=True).shape)

    reference = _backward_reference_loop(conv, grad_out)
    conv.zero_grad()
    vectorized = conv.backward(grad_out)
    # Same math, different floating-point summation order.
    np.testing.assert_allclose(vectorized, reference, rtol=1e-10, atol=1e-12)

    loop_time = _time(lambda: _backward_reference_loop(conv, grad_out))
    vec_time = run_once(benchmark, lambda: _time(lambda: conv.backward(grad_out)))
    speedup = loop_time / vec_time
    benchmark.extra_info["loop_ms"] = loop_time * 1000
    benchmark.extra_info["vectorized_ms"] = vec_time * 1000
    benchmark.extra_info["speedup"] = speedup
    print(
        f"\nConv2d.backward col2im: loop {loop_time * 1000:.2f} ms -> "
        f"vectorized {vec_time * 1000:.2f} ms ({speedup:.2f}x)"
    )
    if not os.environ.get("CI"):
        assert speedup > 1.1, f"vectorised col2im should beat the loop, got {speedup:.2f}x"

"""Synthetic FEMNIST-like image data.

The real FEMNIST dataset (LEAF) contains handwritten characters from 3,400
writers and is not available offline.  This generator produces a *synthetic
equivalent* with the properties the paper's experiments depend on:

* a fixed number of classes, each with a distinctive prototype glyph;
* per-writer style variation (small affine jitter of the prototype) so that
  clients' data is genuinely heterogeneous beyond label skew;
* pixel noise so the classification task is non-trivial but learnable by a
  small LeNet/MLP;
* deterministic generation from a seed.

Images are returned in NCHW layout with values in [0, 1].

Determinism contract: a client's images come from one generator seeded with
``client_seed``.  It first draws every class's writer style in class order
(a 2-vector shift, then a zoom), held classes or not, and then the pixel
noise in one ``normal`` call, one ``H×W`` plane per sample in class order
(a ``Generator`` keeps no state between calls, so this equals one call per
class).  Reordering these draws changes every client of every seed.

The image arithmetic is pinned too, because every recorded history starts
from these bytes:

* a prototype glyph is low-passed by a Gaussian of ``sigma = 0.6`` and
  radius ``r = int(4 * sigma + 0.5)``, whose weights are
  ``exp(-0.5 / sigma**2 * x**2)`` over ``x = -r .. r``, normalised by their
  sum.  It filters axis 0, then axis 1, on half-sample-symmetric padding
  (``d c b a | a b c d | d c b a``).  Each output pixel is ``x[i] * w[r]``
  plus ``(x[i - j] + x[i + j]) * w[r - j]`` for ``j = r`` down to 1;
* a writer's shift, then zoom about the image centre, resample at order 1
  with zeros outside.  A coordinate ``t`` on an axis of length ``n`` is
  inside when ``0 <= t <= n - 1``; its weights are
  ``w0 = 1 - (t - floor(t))`` and ``w1 = 1 - w0``.  A pixel sums its four
  corner products ``value * w_row * w_col`` onto ``0.0``, row-major, and a
  pixel outside on either axis is ``0.0``.

``tests/data/test_generators.py`` pins both to their reference
implementations byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset, class_count_vector
from repro.registry import DATASETS


def _gaussian_filter(images: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian-smooth the last two axes of ``images`` as the module docstring states."""
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    weights = phi / phi.sum()
    for _ in range(2):
        # Filter the second-to-last axis first, then the last one.
        images = images.swapaxes(-1, -2)
        n = images.shape[-1]
        padded = np.pad(
            images, [(0, 0)] * (images.ndim - 1) + [(radius, radius)], mode="symmetric"
        )
        taps = [padded[..., d : d + n] for d in range(2 * radius + 1)]
        out = taps[radius] * weights[radius]
        for j in range(radius, 0, -1):
            out = out + (taps[radius - j] + taps[radius + j]) * weights[radius - j]
        images = out
    return images


def _linear_taps(coords: np.ndarray, n: int):
    """Order-1 taps ``(lower, upper, w0, w1)`` of coordinates on an axis of length ``n``.

    A coordinate outside ``[0, n - 1]`` gets zero weights.  At ``n - 1`` the
    upper tap is clamped onto the last pixel, whose weight there is zero.
    """
    lower = np.floor(coords)
    w0 = 1.0 - (coords - lower)
    w1 = 1.0 - w0
    inside = (coords >= 0) & (coords <= n - 1)
    w0 *= inside
    w1 *= inside
    lower = lower.clip(0, n - 1).astype(np.intp)
    return lower, np.minimum(lower + 1, n - 1), w0, w1


def _resample(images: np.ndarray, row_taps, col_taps) -> np.ndarray:
    """Order-1 resample of each ``(n, n)`` image on its own separable grid.

    ``row_taps`` and ``col_taps`` are the :func:`_linear_taps` of
    ``(count, m)`` coordinate arrays.  ``out[k, i, j]`` interpolates
    ``images[k]`` at its ``i``-th row and ``j``-th column coordinate, with
    the module docstring's arithmetic.  ``images`` must be finite: a zero
    weight stands in for a read outside the image.
    """
    count, n, _ = images.shape
    r0, r1, wr0, wr1 = (a[:, :, None] for a in row_taps)
    c0, c1, wc0, wc1 = (a[:, None, :] for a in col_taps)
    flat = images.reshape(-1)
    base = (np.arange(count) * (n * n))[:, None, None]
    r0, r1 = base + r0 * n, base + r1 * n
    out = 0.0 + flat[r0 + c0] * wr0 * wc0
    out += flat[r0 + c1] * wr0 * wc1
    out += flat[r1 + c0] * wr1 * wc0
    out += flat[r1 + c1] * wr1 * wc1
    return out


@DATASETS.register("femnist")
class SyntheticFEMNIST:
    """Generator of FEMNIST-like prototype+noise character images."""

    def __init__(
        self,
        num_classes: int = 10,
        image_size: int = 16,
        noise_std: float = 0.15,
        style_jitter: float = 0.12,
        seed: int = 0,
    ) -> None:
        if num_classes < 2:
            raise ValueError("need at least two classes")
        if image_size < 8:
            raise ValueError("image_size must be at least 8")
        self.num_classes = num_classes
        self.image_size = image_size
        self.noise_std = noise_std
        self.style_jitter = style_jitter
        self.seed = seed
        self._prototypes = self._build_prototypes()
        # Every class's writer-style bounds: shift row, shift column, zoom.
        reach = style_jitter * image_size / 4
        self._style_bounds = np.tile([reach, reach, style_jitter], num_classes)

    def _build_prototypes(self) -> np.ndarray:
        """One smooth, class-specific glyph per class.

        Each prototype is a sum of a few Gaussian blobs whose positions are
        drawn deterministically per class, low-pass filtered so the glyphs are
        smooth shapes rather than white noise.
        """
        size = self.image_size
        canvases = np.zeros((self.num_classes, size, size), dtype=np.float64)
        grid = np.arange(size)
        yy, xx = np.meshgrid(grid, grid, indexing="ij")
        for cls, canvas in enumerate(canvases):
            cls_rng = np.random.default_rng(self.seed * 1000 + cls)
            for _ in range(4):
                cy, cx = cls_rng.uniform(2, size - 2, size=2)
                sigma = cls_rng.uniform(1.2, 2.5)
                canvas += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2))
        protos = _gaussian_filter(canvases, sigma=0.6)
        protos -= protos.min(axis=(1, 2), keepdims=True)
        peak = protos.max(axis=(1, 2), keepdims=True)
        np.divide(protos, peak, out=protos, where=peak > 0)
        return protos

    @property
    def prototypes(self) -> np.ndarray:
        """Class prototype images, shape ``(num_classes, H, W)``."""
        return self._prototypes.copy()

    def sample_client(
        self,
        class_counts: np.ndarray,
        client_seed: int,
    ) -> Dataset:
        """Generate one client's dataset from a per-class count vector.

        Parameters
        ----------
        class_counts:
            Length-``num_classes`` integer vector (e.g. produced by
            :func:`repro.data.partition.dirichlet_label_partition`).
        client_seed:
            Seed controlling the client's writer style and sample noise.
        """
        class_counts = class_count_vector(class_counts, self.num_classes)
        writer_rng = np.random.default_rng(client_seed)
        # One call draws what one call per class drew, in class order: shift
        # row, shift column, zoom, through the same uniform arithmetic.
        styles = writer_rng.uniform(-self._style_bounds, self._style_bounds).reshape(-1, 3)
        held = np.flatnonzero(class_counts)
        styles = styles[held]
        size, center = self.image_size, (self.image_size - 1) / 2.0
        pixels = np.arange(size)
        # The shift reads pixel (i, j) at (i - s0, j - s1); the zoom about
        # the centre reads (i - center) / zoom + center on both axes.
        rows, cols = (_linear_taps(pixels - s[:, None], size) for s in styles[:, :2].T)
        zoom = _linear_taps((pixels - center) / (1.0 + styles[:, 2:]) + center, size)
        styled = _resample(_resample(self._prototypes[held], rows, cols), zoom, zoom)
        x = writer_rng.normal(0.0, self.noise_std, size=(int(class_counts.sum()), 1, size, size))
        x += np.repeat(styled, class_counts[held], axis=0)[:, None]
        np.clip(x, 0.0, 1.0, out=x)
        y = np.repeat(np.arange(self.num_classes, dtype=np.int64), class_counts)
        return Dataset(x, y)

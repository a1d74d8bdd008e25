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
noise class by class, in class order, one ``H×W`` plane per sample.
Reordering these draws changes every client of every seed.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset, class_count_vector
from repro.registry import DATASETS


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
        # Pixel coordinates relative to the image centre, which a writer's
        # zoom scales about.
        center = (image_size - 1) / 2.0
        self._offsets = np.stack(
            np.meshgrid(np.arange(image_size), np.arange(image_size), indexing="ij")
        ) - center

    def _build_prototypes(self) -> np.ndarray:
        """One smooth, class-specific glyph per class.

        Each prototype is a sum of a few Gaussian blobs whose positions are
        drawn deterministically per class, low-pass filtered so the glyphs are
        smooth shapes rather than white noise.
        """
        from scipy import ndimage

        protos = np.zeros((self.num_classes, self.image_size, self.image_size), dtype=np.float64)
        grid = np.arange(self.image_size)
        yy, xx = np.meshgrid(grid, grid, indexing="ij")
        for cls in range(self.num_classes):
            cls_rng = np.random.default_rng(self.seed * 1000 + cls)
            canvas = np.zeros((self.image_size, self.image_size), dtype=np.float64)
            for _ in range(4):
                cy, cx = cls_rng.uniform(2, self.image_size - 2, size=2)
                sigma = cls_rng.uniform(1.2, 2.5)
                canvas += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2))
            canvas = ndimage.gaussian_filter(canvas, sigma=0.6)
            canvas -= canvas.min()
            peak = canvas.max()
            if peak > 0:
                canvas /= peak
            protos[cls] = canvas
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
        from scipy import ndimage

        class_counts = class_count_vector(class_counts, self.num_classes)
        writer_rng = np.random.default_rng(client_seed)
        reach = self.style_jitter * self.image_size / 4
        styles = [
            (writer_rng.uniform(-reach, reach, size=2),
             1.0 + writer_rng.uniform(-self.style_jitter, self.style_jitter))
            for _ in range(self.num_classes)
        ]
        size, center = self.image_size, (self.image_size - 1) / 2.0
        x = np.empty((int(class_counts.sum()), 1, size, size))
        start = 0
        for cls, count in enumerate(class_counts):
            if count == 0:
                continue
            shift, zoom = styles[cls]
            shifted = ndimage.shift(
                self._prototypes[cls], shift, order=1, mode="constant", cval=0.0
            )
            styled = ndimage.map_coordinates(
                shifted, self._offsets / zoom + center, order=1, mode="constant", cval=0.0
            )
            noise = writer_rng.normal(0.0, self.noise_std, size=(count, size, size))
            np.clip(styled + noise, 0.0, 1.0, out=x[start : start + count, 0])
            start += count
        y = np.repeat(np.arange(self.num_classes, dtype=np.int64), class_counts)
        return Dataset(x, y)

    def sample_iid(self, num_samples: int, seed: int = 12345) -> Dataset:
        """Generate an IID dataset (uniform class mix) — used for global test sets."""
        rng = np.random.default_rng(seed)
        counts = np.bincount(rng.integers(0, self.num_classes, size=num_samples),
                             minlength=self.num_classes)
        return self.sample_client(counts, client_seed=seed)

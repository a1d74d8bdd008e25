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
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
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
        self._rng = np.random.default_rng(seed)
        self._prototypes = self._build_prototypes()

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

    def _writer_transform(self, image: np.ndarray, writer_rng: np.random.Generator) -> np.ndarray:
        """Apply a small writer-specific shift and scale to a prototype."""
        from scipy import ndimage

        shift = writer_rng.uniform(-self.style_jitter * self.image_size / 4,
                                   self.style_jitter * self.image_size / 4, size=2)
        zoom = 1.0 + writer_rng.uniform(-self.style_jitter, self.style_jitter)
        shifted = ndimage.shift(image, shift, order=1, mode="constant", cval=0.0)
        center = (self.image_size - 1) / 2.0
        coords = np.meshgrid(np.arange(self.image_size), np.arange(self.image_size), indexing="ij")
        coords = [(c - center) / zoom + center for c in coords]
        return ndimage.map_coordinates(shifted, coords, order=1, mode="constant", cval=0.0)

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
        class_counts = np.asarray(class_counts, dtype=np.int64)
        if class_counts.shape != (self.num_classes,):
            raise ValueError("class_counts must have one entry per class")
        writer_rng = np.random.default_rng(client_seed)
        styled = np.stack(
            [self._writer_transform(self._prototypes[c], writer_rng) for c in range(self.num_classes)]
        )
        images: list[np.ndarray] = []
        labels: list[int] = []
        for cls, count in enumerate(class_counts):
            for _ in range(int(count)):
                noisy = styled[cls] + writer_rng.normal(0.0, self.noise_std, size=styled[cls].shape)
                images.append(np.clip(noisy, 0.0, 1.0))
                labels.append(cls)
        if not images:
            x = np.zeros((0, 1, self.image_size, self.image_size), dtype=np.float64)
            y = np.zeros(0, dtype=np.int64)
            return Dataset(x, y)
        x = np.stack(images)[:, None, :, :]
        y = np.asarray(labels, dtype=np.int64)
        return Dataset(x, y)

    def sample_iid(self, num_samples: int, seed: int = 12345) -> Dataset:
        """Generate an IID dataset (uniform class mix) — used for global test sets."""
        rng = np.random.default_rng(seed)
        counts = np.bincount(rng.integers(0, self.num_classes, size=num_samples),
                             minlength=self.num_classes)
        return self.sample_client(counts, client_seed=seed)

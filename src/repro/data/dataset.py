"""Lightweight dataset container and split utilities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Dataset:
    """A supervised dataset: inputs ``x`` and integer labels ``y``.

    ``x`` may be 2-D (features) or 4-D (images, NCHW); ``y`` is always a 1-D
    integer array aligned with the first axis of ``x``.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"inputs and labels disagree on sample count: {self.x.shape[0]} vs {self.y.shape[0]}"
            )
        if self.y.ndim != 1:
            raise ValueError("labels must be a 1-D integer array")
        # Training indexes class columns with the labels: a float label would
        # be truncated and a negative one would wrap to the last class.
        if not np.issubdtype(self.y.dtype, np.integer):
            raise ValueError(f"y must hold integer labels, got dtype {self.y.dtype}")
        if len(self.y) and self.y.min() < 0:
            raise ValueError(f"y must hold non-negative labels, got {self.y.min()}")

    def __len__(self) -> int:
        return int(self.x.shape[0])

    def subset(self, indices: np.ndarray) -> "Dataset":
        """New dataset containing only the given sample indices."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.x[idx], self.y[idx])

    def shuffled(self, rng: np.random.Generator) -> "Dataset":
        """Return a copy with samples in a random order."""
        perm = rng.permutation(len(self))
        return self.subset(perm)

    def batches(self, batch_size: int, rng: np.random.Generator | None = None):
        """Yield mini-batches ``(x, y)``; shuffles when an rng is provided."""
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        order = np.arange(len(self))
        if rng is not None:
            order = rng.permutation(len(self))
        for start in range(0, len(self), batch_size):
            idx = order[start : start + batch_size]
            yield self.x[idx], self.y[idx]

    def class_counts(self, num_classes: int) -> np.ndarray:
        """Number of samples per class, as a length-``num_classes`` vector."""
        return np.bincount(self.y, minlength=num_classes).astype(np.int64)

    def concat(self, other: "Dataset") -> "Dataset":
        """Concatenate two datasets along the sample axis."""
        return Dataset(np.concatenate([self.x, other.x]), np.concatenate([self.y, other.y]))


def class_count_vector(class_counts, num_classes: int) -> np.ndarray:
    """Check a per-class sample count vector and return it as ``int64``.

    Every generator's ``sample_client`` takes one: a length-``num_classes``
    vector of non-negative counts, whose labels come back in class order.
    """
    counts = np.asarray(class_counts, dtype=np.int64)
    if counts.shape != (num_classes,):
        raise ValueError("class_counts must have one entry per class")
    if (counts < 0).any():
        raise ValueError(f"class_counts must be non-negative, got {counts.tolist()}")
    return counts


def train_test_val_split(
    data: Dataset,
    train_frac: float = 0.70,
    test_frac: float = 0.15,
    rng: np.random.Generator | None = None,
) -> tuple[Dataset, Dataset, Dataset]:
    """Split a dataset into train / test / validation parts.

    The paper uses 70% / 15% / 15% per client; the validation parts of the
    compromised clients are pooled into the attacker's auxiliary set.
    Every sample lands in exactly one split even for tiny datasets.
    """
    if not 0.0 < train_frac < 1.0 or not 0.0 < test_frac < 1.0:
        raise ValueError("split fractions must be in (0, 1)")
    if train_frac + test_frac >= 1.0:
        raise ValueError("train_frac + test_frac must be below 1")
    n = len(data)
    order = np.arange(n)
    if rng is not None:
        order = rng.permutation(n)
    n_train = max(1, int(round(train_frac * n))) if n else 0
    n_test = max(1, int(round(test_frac * n))) if n > 1 else 0
    n_train = min(n_train, n)
    n_test = min(n_test, n - n_train)
    train_idx = order[:n_train]
    test_idx = order[n_train : n_train + n_test]
    val_idx = order[n_train + n_test :]
    return data.subset(train_idx), data.subset(test_idx), data.subset(val_idx)

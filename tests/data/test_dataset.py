"""Unit tests for the Dataset container and split utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import Dataset, train_test_val_split


def _toy_dataset(n=20, dim=4, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(n, dim)), rng.integers(0, classes, size=n))


class TestDataset:
    def test_length_and_shapes(self):
        data = _toy_dataset(15)
        assert len(data) == 15

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(4, dtype=int))

    def test_labels_must_be_1d(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros((3, 1), dtype=int))

    def test_float_labels_raise(self):
        with pytest.raises(ValueError, match="y must hold integer labels"):
            Dataset(np.zeros((3, 2)), np.array([0.0, 1.0, 2.0]))

    def test_negative_labels_raise(self):
        with pytest.raises(ValueError, match="y must hold non-negative labels, got -1"):
            Dataset(np.zeros((3, 2)), np.array([0, 1, -1]))

    def test_subset_selects_rows(self):
        data = _toy_dataset(10)
        sub = data.subset(np.array([0, 3, 5]))
        assert len(sub) == 3
        np.testing.assert_allclose(sub.x[1], data.x[3])

    def test_shuffled_preserves_multiset(self, rng):
        data = _toy_dataset(12)
        shuffled = data.shuffled(rng)
        assert sorted(shuffled.y.tolist()) == sorted(data.y.tolist())

    def test_batches_cover_all_samples(self, rng):
        data = _toy_dataset(11)
        total = sum(len(by) for _, by in data.batches(4, rng=rng))
        assert total == 11

    def test_batches_rejects_nonpositive_size(self):
        data = _toy_dataset(5)
        with pytest.raises(ValueError):
            list(data.batches(0))

    def test_class_counts(self):
        data = Dataset(np.zeros((5, 2)), np.array([0, 0, 1, 2, 2]))
        np.testing.assert_array_equal(data.class_counts(4), [2, 1, 2, 0])

    def test_concat(self):
        a, b = _toy_dataset(4, seed=1), _toy_dataset(6, seed=2)
        merged = a.concat(b)
        assert len(merged) == 10
        np.testing.assert_allclose(merged.x[:4], a.x)


class TestSplit:
    def test_split_fractions(self, rng):
        data = _toy_dataset(100)
        train, test, val = train_test_val_split(data, rng=rng)
        assert len(train) == 70
        assert len(test) == 15
        assert len(val) == 15

    def test_split_is_a_partition(self, rng):
        data = Dataset(np.arange(40, dtype=float).reshape(20, 2), np.zeros(20, dtype=int))
        train, test, val = train_test_val_split(data, rng=rng)
        seen = np.concatenate([train.x[:, 0], test.x[:, 0], val.x[:, 0]])
        assert sorted(seen.tolist()) == sorted(data.x[:, 0].tolist())

    def test_tiny_dataset_still_splits(self, rng):
        data = _toy_dataset(3)
        train, test, val = train_test_val_split(data, rng=rng)
        assert len(train) + len(test) + len(val) == 3
        assert len(train) >= 1

    def test_invalid_fractions_raise(self):
        data = _toy_dataset(10)
        with pytest.raises(ValueError):
            train_test_val_split(data, train_frac=0.9, test_frac=0.2)
        with pytest.raises(ValueError):
            train_test_val_split(data, train_frac=0.0)

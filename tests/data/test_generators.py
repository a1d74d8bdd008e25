"""Unit tests for the synthetic FEMNIST and Sentiment generators.

Both ``sample_client`` methods are vectorised.  The reference functions below
are the per-sample loops they replaced; the ``Matches`` tests pin the two byte
for byte.  A numpy change that breaks an equivalence the samplers rely on
(``choice(p=...)`` as ``searchsorted`` on its CDF, one bulk ``normal`` call as
many small ones, ``.mean`` as ``.sum / n``) fails here.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import ndimage

from repro.data.dataset import Dataset
from repro.data.femnist import SyntheticFEMNIST
from repro.data.sentiment import SyntheticSentiment


def reference_sentiment(gen: SyntheticSentiment, class_counts, client_seed: int) -> Dataset:
    """One ``rng.choice(p=...)``, one mean and one ``normal`` per sample."""
    rng = np.random.default_rng(client_seed)
    features, labels = [], []
    for cls, count in enumerate(class_counts):
        for _ in range(int(count)):
            tokens = rng.choice(gen.vocab_size, size=gen.tokens_per_sample,
                                p=gen.token_probs[cls])
            feat = gen.embeddings[tokens].mean(axis=0)
            features.append(feat + rng.normal(0.0, gen.noise_std, size=feat.shape))
            labels.append(cls)
    if not features:
        return Dataset(np.zeros((0, gen.embedding_dim)), np.zeros(0, dtype=np.int64))
    return Dataset(np.stack(features), np.asarray(labels, dtype=np.int64))


def reference_femnist(gen: SyntheticFEMNIST, class_counts, client_seed: int) -> Dataset:
    """Every class's writer transform, then one ``normal`` and ``clip`` per sample."""
    size = gen.image_size
    writer_rng = np.random.default_rng(client_seed)
    styled = []
    for proto in gen.prototypes:
        shift = writer_rng.uniform(-gen.style_jitter * size / 4,
                                   gen.style_jitter * size / 4, size=2)
        zoom = 1.0 + writer_rng.uniform(-gen.style_jitter, gen.style_jitter)
        shifted = ndimage.shift(proto, shift, order=1, mode="constant", cval=0.0)
        center = (size - 1) / 2.0
        coords = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
        coords = [(c - center) / zoom + center for c in coords]
        styled.append(ndimage.map_coordinates(shifted, coords, order=1, mode="constant", cval=0.0))
    images, labels = [], []
    for cls, count in enumerate(class_counts):
        for _ in range(int(count)):
            noisy = styled[cls] + writer_rng.normal(0.0, gen.noise_std, size=styled[cls].shape)
            images.append(np.clip(noisy, 0.0, 1.0))
            labels.append(cls)
    if not images:
        return Dataset(np.zeros((0, 1, size, size)), np.zeros(0, dtype=np.int64))
    return Dataset(np.stack(images)[:, None, :, :], np.asarray(labels, dtype=np.int64))


def count_vectors(rng: np.random.Generator, num_classes: int) -> list[np.ndarray]:
    """All-zero, single-class, sparse Dirichlet and large count vectors."""
    single = np.zeros(num_classes, dtype=np.int64)
    single[rng.integers(num_classes)] = rng.integers(1, 40)
    sparse = rng.multinomial(rng.integers(1, 60), rng.dirichlet(np.full(num_classes, 0.1)))
    return [np.zeros(num_classes, dtype=np.int64), single, sparse,
            rng.integers(100, 250, size=num_classes)]


def assert_same_bytes(got: Dataset, want: Dataset) -> None:
    assert got.x.dtype == want.x.dtype and got.y.dtype == want.y.dtype
    np.testing.assert_array_equal(got.x.view(np.uint64), want.x.view(np.uint64))
    np.testing.assert_array_equal(got.y, want.y)


SENTIMENT_GEOMETRIES = [
    {},
    {"num_classes": 5, "vocab_size": 40, "tokens_per_sample": 1, "embedding_dim": 1},
    {"num_classes": 3, "vocab_size": 500, "tokens_per_sample": 37, "embedding_dim": 9},
    {"num_classes": 4, "vocab_size": 97, "tokens_per_sample": 8, "embedding_dim": 64},
]

FEMNIST_GEOMETRIES = [
    {},
    {"num_classes": 2, "image_size": 8},
    {"num_classes": 7, "image_size": 23},
    {"num_classes": 12, "image_size": 13},
]


class TestMatchesPerSampleLoop:
    @pytest.mark.parametrize("seed", range(52))
    def test_sentiment(self, seed):
        rng = np.random.default_rng(seed)
        gen = SyntheticSentiment(**SENTIMENT_GEOMETRIES[seed % 4], seed=seed)
        for counts in count_vectors(rng, gen.num_classes):
            client_seed = int(rng.integers(2**40))
            assert_same_bytes(gen.sample_client(counts, client_seed),
                              reference_sentiment(gen, counts, client_seed))

    @pytest.mark.parametrize("seed", range(52))
    def test_femnist(self, seed):
        rng = np.random.default_rng(seed)
        gen = SyntheticFEMNIST(**FEMNIST_GEOMETRIES[seed % 4], seed=seed)
        for counts in count_vectors(rng, gen.num_classes):
            client_seed = int(rng.integers(2**40))
            assert_same_bytes(gen.sample_client(counts, client_seed),
                              reference_femnist(gen, counts, client_seed))


class TestRejectsBadInput:
    @pytest.mark.parametrize("make", [
        lambda: SyntheticFEMNIST(num_classes=3, image_size=8),
        lambda: SyntheticSentiment(num_classes=3, vocab_size=12),
    ], ids=["femnist", "sentiment"])
    def test_negative_count_raises(self, make):
        with pytest.raises(ValueError, match="non-negative"):
            make().sample_client(np.array([2, -1, 3]), client_seed=0)

    @pytest.mark.parametrize("tokens", [0, -2])
    def test_sentiment_needs_a_token_per_sample(self, tokens):
        with pytest.raises(ValueError, match="tokens_per_sample"):
            SyntheticSentiment(tokens_per_sample=tokens)


class TestSyntheticFEMNIST:
    def test_sample_shapes_and_range(self, femnist_generator):
        counts = np.array([3, 2, 0, 1, 0])
        data = femnist_generator.sample_client(counts, client_seed=1)
        assert data.x.shape == (6, 1, 12, 12)
        assert data.x.min() >= 0.0 and data.x.max() <= 1.0
        np.testing.assert_array_equal(np.bincount(data.y, minlength=5), counts)

    def test_prototypes_are_distinct(self, femnist_generator):
        protos = femnist_generator.prototypes
        for i in range(len(protos)):
            for j in range(i + 1, len(protos)):
                assert np.abs(protos[i] - protos[j]).mean() > 0.01

    def test_generation_is_deterministic(self, femnist_generator):
        counts = np.array([2, 2, 2, 0, 0])
        a = femnist_generator.sample_client(counts, client_seed=9)
        b = femnist_generator.sample_client(counts, client_seed=9)
        np.testing.assert_allclose(a.x, b.x)

    def test_different_clients_have_different_styles(self, femnist_generator):
        counts = np.array([2, 0, 0, 0, 0])
        a = femnist_generator.sample_client(counts, client_seed=1)
        b = femnist_generator.sample_client(counts, client_seed=2)
        assert not np.allclose(a.x, b.x)

    def test_empty_counts_give_empty_dataset(self, femnist_generator):
        data = femnist_generator.sample_client(np.zeros(5, dtype=int), client_seed=0)
        assert len(data) == 0

    def test_wrong_count_length_raises(self, femnist_generator):
        with pytest.raises(ValueError):
            femnist_generator.sample_client(np.array([1, 2]), client_seed=0)

    def test_classes_are_learnable(self, femnist_generator):
        """A nearest-prototype classifier should beat chance by a wide margin."""
        data = femnist_generator.sample_iid(100, seed=5)
        protos = femnist_generator.prototypes.reshape(5, -1)
        flat = data.x.reshape(len(data), -1)
        distances = ((flat[:, None, :] - protos[None, :, :]) ** 2).sum(axis=2)
        preds = distances.argmin(axis=1)
        assert (preds == data.y).mean() > 0.5

    def test_invalid_constructor_args(self):
        with pytest.raises(ValueError):
            SyntheticFEMNIST(num_classes=1)
        with pytest.raises(ValueError):
            SyntheticFEMNIST(image_size=4)


class TestSyntheticSentiment:
    def test_sample_shapes(self, sentiment_generator):
        counts = np.array([4, 3])
        data = sentiment_generator.sample_client(counts, client_seed=1)
        assert data.x.shape == (7, 16)
        np.testing.assert_array_equal(np.bincount(data.y, minlength=2), counts)

    def test_classes_are_separable(self, sentiment_generator):
        data = sentiment_generator.sample_iid(200, seed=3)
        mean_pos = data.x[data.y == 1].mean(axis=0)
        mean_neg = data.x[data.y == 0].mean(axis=0)
        assert np.linalg.norm(mean_pos - mean_neg) > 0.1

    def test_trigger_embedding_dimension(self, sentiment_generator):
        assert sentiment_generator.trigger_embedding().shape == (16,)

    def test_deterministic_generation(self, sentiment_generator):
        counts = np.array([3, 3])
        a = sentiment_generator.sample_client(counts, client_seed=4)
        b = sentiment_generator.sample_client(counts, client_seed=4)
        np.testing.assert_allclose(a.x, b.x)

    def test_invalid_vocab_raises(self):
        with pytest.raises(ValueError):
            SyntheticSentiment(num_classes=4, vocab_size=8)

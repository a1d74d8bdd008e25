"""Unit tests for the synthetic FEMNIST and Sentiment generators.

Both ``sample_client`` methods are vectorised.  The reference functions below
are the per-sample loops they replaced; the ``Matches`` tests pin the two byte
for byte.  A numpy change that breaks an equivalence the samplers rely on
(``choice(p=...)`` as ``searchsorted`` on its CDF, one bulk ``normal`` call as
many small ones, ``.mean`` as ``.sum / n``) fails here.

The FEMNIST generator does scipy.ndimage's image arithmetic in NumPy, so
that building a federation imports no scipy; ``TestMatchesNdimage`` keeps
scipy as the reference for the glyph filter and the writer resample.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import ndimage

from repro.data import femnist
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


def reference_prototypes(gen: SyntheticFEMNIST) -> np.ndarray:
    """Every class's blobs, ``ndimage.gaussian_filter``, then min-max scaling."""
    size = gen.image_size
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    protos = []
    for cls in range(gen.num_classes):
        cls_rng = np.random.default_rng(gen.seed * 1000 + cls)
        canvas = np.zeros((size, size))
        for _ in range(4):
            cy, cx = cls_rng.uniform(2, size - 2, size=2)
            sigma = cls_rng.uniform(1.2, 2.5)
            canvas += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2))
        canvas = ndimage.gaussian_filter(canvas, sigma=0.6)
        canvas -= canvas.min()
        peak = canvas.max()
        if peak > 0:
            canvas /= peak
        protos.append(canvas)
    return np.stack(protos)


def numpy_resample(image: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The generator's order-1 resample of one image on the grid ``rows × cols``."""
    n = len(image)
    row_taps = femnist._linear_taps(rows[None], n)
    col_taps = femnist._linear_taps(cols[None], n)
    return femnist._resample(image[None], row_taps, col_taps)[0]


def signed_image(n: int, seed: int) -> np.ndarray:
    """Signed pixels, some of them ``-0.0``."""
    rng = np.random.default_rng(seed)
    image = rng.normal(size=(n, n))
    image[rng.random((n, n)) < 0.2] = -0.0
    return image


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


def assert_same_image(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestMatchesNdimage:
    @pytest.mark.parametrize("geometry", FEMNIST_GEOMETRIES, ids=str)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_prototypes_are_gaussian_filtered_blobs(self, geometry, seed):
        gen = SyntheticFEMNIST(**geometry, seed=seed)
        assert_same_image(gen.prototypes, reference_prototypes(gen))

    @pytest.mark.parametrize("n", [8, 13, 16, 28])
    def test_gaussian_filter(self, n):
        image = signed_image(n, seed=n)
        assert_same_image(femnist._gaussian_filter(image[None], 0.6)[0],
                          ndimage.gaussian_filter(image, sigma=0.6))

    @pytest.mark.parametrize("n", [8, 13, 16])
    def test_coordinates_at_and_one_ulp_around_the_edges(self, n):
        edges = np.array([0.0, n - 1.0])
        coords = np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            [-0.0, 0.5, n / 2 + 0.25, n - 1.5, -1.0, float(n)],
        ])
        image = signed_image(n, seed=n)
        for rows, cols in [(coords, coords), (coords, coords[::-1]), (coords[3:], coords)]:
            grid = np.stack(np.meshgrid(rows, cols, indexing="ij"))
            want = ndimage.map_coordinates(image, grid, order=1, mode="constant", cval=0.0)
            assert_same_image(numpy_resample(image, rows, cols), want)

    @pytest.mark.parametrize("shift", [
        (0.0, 0.0), (1.0, -3.0), (-2.0, 5.0), (0.25, -0.75),
        (np.nextafter(0.0, 1.0), -np.nextafter(0.0, 1.0)), (17.0, 0.5), (-0.5, -40.0),
    ], ids=["none", "integer", "integer-2", "fraction", "one-ulp", "past-rows", "past-cols"])
    def test_shift(self, shift):
        n = 16
        image = signed_image(n, seed=3)
        pixels = np.arange(n)
        got = numpy_resample(image, pixels - shift[0], pixels - shift[1])
        assert_same_image(got, ndimage.shift(image, shift, order=1, mode="constant", cval=0.0))
        if max(abs(s) for s in shift) >= n:
            assert not got.any(), "a shift past the image leaves nothing"

    @pytest.mark.parametrize("style_jitter", [0.0, 0.12, 0.3])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    @pytest.mark.parametrize("n", [12, 16, 28])
    def test_zoom(self, style_jitter, sign, n):
        zoom = 1.0 + sign * style_jitter
        center = (n - 1) / 2.0
        image = signed_image(n, seed=n)
        offsets = np.stack(np.meshgrid(np.arange(n), np.arange(n), indexing="ij")) - center
        want = ndimage.map_coordinates(image, offsets / zoom + center, order=1,
                                       mode="constant", cval=0.0)
        coords = (np.arange(n) - center) / zoom + center
        assert_same_image(numpy_resample(image, coords, coords), want)


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
        data = femnist_generator.sample_client(np.full(5, 20), client_seed=5)
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
        data = sentiment_generator.sample_client(np.full(2, 100), client_seed=3)
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

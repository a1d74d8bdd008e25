"""Unit and property-based tests for the trigger library."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.attacks import triggers
from repro.attacks.triggers import (
    PixelPatchTrigger,
    TokenTrigger,
    WarpingTrigger,
    poison_dataset,
)
from repro.data.dataset import Dataset


def reference_warp(trigger: WarpingTrigger, x: np.ndarray) -> np.ndarray:
    """``map_coordinates(order=1, mode="reflect")`` per image and channel."""
    n = trigger.image_size
    grid = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    coords = [grid[0] + trigger.displacement[0], grid[1] + trigger.displacement[1]]
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        for c in range(x.shape[1]):
            out[i, c] = ndimage.map_coordinates(x[i, c], coords, order=1, mode="reflect")
    return out


def signed_batch(shape, seed: int) -> np.ndarray:
    """Pixels in [-1, 2), some of them ``-0.0``."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 2.0, size=shape)
    x[rng.random(shape) < 0.2] = -0.0
    return x


def assert_same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestWarpingTrigger:
    def test_output_shape_preserved(self, rng):
        trigger = WarpingTrigger(image_size=12, strength=1.0)
        x = rng.random((3, 1, 12, 12))
        assert trigger.apply(x).shape == x.shape

    def test_is_deterministic(self, rng):
        trigger = WarpingTrigger(image_size=12, strength=1.0, seed=5)
        x = rng.random((2, 1, 12, 12))
        np.testing.assert_allclose(trigger.apply(x), trigger.apply(x))

    def test_same_seed_same_field(self, rng):
        a = WarpingTrigger(image_size=12, strength=1.0, seed=3)
        b = WarpingTrigger(image_size=12, strength=1.0, seed=3)
        np.testing.assert_allclose(a.displacement, b.displacement)

    def test_modification_is_small_but_nonzero(self, rng):
        trigger = WarpingTrigger(image_size=12, strength=0.5)
        x = rng.random((4, 1, 12, 12))
        out = trigger.apply(x)
        diff = np.abs(out - x).mean()
        assert 0.0 < diff < 0.3

    def test_zero_strength_is_identity(self, rng):
        trigger = WarpingTrigger(image_size=12, strength=0.0)
        x = rng.random((2, 1, 12, 12))
        np.testing.assert_allclose(trigger.apply(x), x, atol=1e-12)

    def test_does_not_modify_input(self, rng):
        trigger = WarpingTrigger(image_size=12, strength=1.0)
        x = rng.random((2, 1, 12, 12))
        snapshot = x.copy()
        trigger.apply(x)
        np.testing.assert_allclose(x, snapshot)

    def test_size_mismatch_raises(self, rng):
        trigger = WarpingTrigger(image_size=12)
        with pytest.raises(ValueError):
            trigger.apply(rng.random((1, 1, 16, 16)))

    def test_invalid_constructor(self):
        with pytest.raises(ValueError):
            WarpingTrigger(image_size=2)
        with pytest.raises(ValueError):
            WarpingTrigger(image_size=12, strength=-1.0)
        with pytest.raises(ValueError, match="image_size"):
            WarpingTrigger(image_size=16.0)
        with pytest.raises(ValueError, match="strength"):
            WarpingTrigger(image_size=12, strength=float("nan"))
        with pytest.raises(ValueError, match="strength"):
            WarpingTrigger(image_size=12, strength=float("inf"))
        with pytest.raises(ValueError, match="grid_size"):
            WarpingTrigger(image_size=12, grid_size=0)
        with pytest.raises(ValueError, match="grid_size"):
            WarpingTrigger(image_size=12, grid_size=2.5)
        with pytest.raises(ValueError, match="grid_size"):
            WarpingTrigger(image_size=12, grid_size=True)
        with pytest.raises(ValueError, match="grid_size"):
            WarpingTrigger(image_size=12, grid_size=-2)


class TestMatchesNdimage:
    """``WarpingTrigger.apply`` is ``map_coordinates(order=1, mode="reflect")``, byte for byte."""

    @pytest.mark.parametrize("strength", [0.0, 0.75, 2.0, 7.0])
    @pytest.mark.parametrize("n", [4, 8, 12, 16, 28])
    def test_float64_batches(self, n, strength):
        for grid_size in (1, 4, 5):
            for seed in (0, 3, 11):
                trigger = WarpingTrigger(n, strength=strength, grid_size=grid_size, seed=seed)
                x = signed_batch((3, 2, n, n), seed=n + seed)
                assert_same_bytes(trigger.apply(x), reference_warp(trigger, x))

    def test_coordinates_at_and_around_every_branch(self):
        # Edges, one ulp either side of them, the -1e-15 guard and whole
        # periods outside: the cases a random field rarely lands on.
        n = 4
        k = np.arange(-4 * n, 4 * n + 1, dtype=np.float64)
        coords = np.concatenate([
            k, k + 0.5, np.nextafter(k, np.inf), np.nextafter(k, -np.inf),
            [-0.0, -1e-16, -1e-15, np.nextafter(-1e-15, 0.0), np.nextafter(-1e-15, -1.0)],
        ])
        rows, cols = np.meshgrid(coords, coords, indexing="ij")
        image = signed_batch((n, n), seed=1)
        r0, r1, wr0, wr1 = triggers._reflect_taps(rows, n)
        c0, c1, wc0, wc1 = triggers._reflect_taps(cols, n)
        got = 0.0 + (image[r0, c0] * wr0) * wc0
        got += (image[r0, c1] * wr0) * wc1
        got += (image[r1, c0] * wr1) * wc0
        got += (image[r1, c1] * wr1) * wc1
        want = ndimage.map_coordinates(image, [rows, cols], order=1, mode="reflect")
        assert_same_bytes(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.uint8])
    def test_other_dtypes_keep_scipys_dtype_and_values(self, dtype):
        trigger = WarpingTrigger(12, strength=2.0, seed=5)
        x = signed_batch((4, 1, 12, 12), seed=2) * 100
        if np.dtype(dtype).kind == "u":
            x = np.abs(x)
        x = x.astype(dtype)
        assert_same_bytes(trigger.apply(x), reference_warp(trigger, x))

    def test_empty_batch(self):
        trigger = WarpingTrigger(8, strength=2.0)
        for shape in [(0, 1, 8, 8), (2, 0, 8, 8)]:
            out = trigger.apply(np.zeros(shape))
            assert out.shape == shape
            assert out.dtype == np.float64

    def test_apply_does_not_call_scipy(self, monkeypatch):
        trigger = WarpingTrigger(12, strength=2.0, seed=9)
        x = signed_batch((2, 1, 12, 12), seed=4)
        want = reference_warp(trigger, x)

        def refuse(*_args, **_kwargs):
            raise AssertionError("apply called scipy.ndimage.map_coordinates")

        monkeypatch.setattr(ndimage, "map_coordinates", refuse)
        assert_same_bytes(trigger.apply(x), want)

    def test_displacement_is_read_only(self):
        trigger = WarpingTrigger(8, strength=2.0)
        with pytest.raises(ValueError, match="read-only"):
            trigger.displacement[0, 0, 0] = 1.0

    def test_complex_images_rejected(self):
        with pytest.raises(TypeError, match="real-valued"):
            WarpingTrigger(8).apply(np.zeros((1, 1, 8, 8), dtype=np.complex128))


class TestPixelPatchTrigger:
    def test_patch_sets_corner_pixels(self):
        trigger = PixelPatchTrigger(image_size=8, patch_size=2, value=1.0, corner="top-left")
        x = np.zeros((1, 1, 8, 8))
        out = trigger.apply(x)
        assert out[0, 0, :2, :2].min() == 1.0
        assert out[0, 0, 2:, 2:].max() == 0.0

    @pytest.mark.parametrize("corner", ["top-left", "top-right", "bottom-left", "bottom-right"])
    def test_all_corners_modify_expected_number_of_pixels(self, corner):
        trigger = PixelPatchTrigger(image_size=8, patch_size=3, corner=corner)
        x = np.zeros((1, 1, 8, 8))
        assert trigger.apply(x).sum() == 9.0

    def test_split_partitions_mask(self):
        trigger = PixelPatchTrigger(image_size=8, patch_size=2)
        parts = trigger.split(4)
        assert len(parts) == 4
        combined = np.zeros((2, 2), dtype=int)
        for part in parts:
            combined += part.mask.astype(int)
        np.testing.assert_array_equal(combined, np.ones((2, 2), dtype=int))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            PixelPatchTrigger(image_size=8, patch_size=0)
        with pytest.raises(ValueError):
            PixelPatchTrigger(image_size=8, patch_size=2, corner="middle")
        with pytest.raises(ValueError):
            PixelPatchTrigger(image_size=8, patch_size=2, mask=np.ones((3, 3), dtype=bool))


class TestTokenTrigger:
    def test_adds_embedding(self, rng):
        embedding = rng.normal(size=6)
        trigger = TokenTrigger(embedding, scale=2.0)
        x = rng.normal(size=(3, 6))
        np.testing.assert_allclose(trigger.apply(x), x + 2.0 * embedding)

    def test_dimension_mismatch_raises(self, rng):
        trigger = TokenTrigger(rng.normal(size=6))
        with pytest.raises(ValueError):
            trigger.apply(rng.normal(size=(2, 5)))

    def test_requires_1d_embedding(self, rng):
        with pytest.raises(ValueError):
            TokenTrigger(rng.normal(size=(2, 3)))


class TestPoisonDataset:
    def _clean(self, n=10, rng=None):
        rng = rng or np.random.default_rng(0)
        return Dataset(rng.random((n, 1, 8, 8)), rng.integers(1, 4, size=n))

    def test_keep_clean_appends_poisoned_samples(self, rng):
        data = self._clean(10, rng)
        trigger = PixelPatchTrigger(image_size=8, patch_size=2)
        poisoned = poison_dataset(data, trigger, target_class=0, poison_fraction=0.5, rng=rng)
        assert len(poisoned) == 15
        assert (poisoned.y[-5:] == 0).all()

    def test_without_clean_keeps_only_poisoned(self, rng):
        data = self._clean(10, rng)
        trigger = PixelPatchTrigger(image_size=8, patch_size=2)
        poisoned = poison_dataset(
            data, trigger, target_class=0, poison_fraction=1.0, rng=rng, keep_clean=False
        )
        assert len(poisoned) == 10
        assert (poisoned.y == 0).all()

    def test_empty_dataset_passthrough(self, rng):
        empty = Dataset(np.zeros((0, 1, 8, 8)), np.zeros(0, dtype=np.int64))
        trigger = PixelPatchTrigger(image_size=8, patch_size=2)
        assert len(poison_dataset(empty, trigger, 0)) == 0

    def test_invalid_fraction(self, rng):
        data = self._clean(4, rng)
        trigger = PixelPatchTrigger(image_size=8, patch_size=2)
        with pytest.raises(ValueError):
            poison_dataset(data, trigger, 0, poison_fraction=0.0)

    @settings(max_examples=20, deadline=None)
    @given(
        fraction=st.floats(min_value=0.1, max_value=1.0, allow_nan=False),
        n=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=500),
    )
    def test_poisoned_count_property(self, fraction, n, seed):
        """The poisoned set always contains round(fraction·n) ≥ 1 triggered samples."""
        rng = np.random.default_rng(seed)
        data = Dataset(rng.random((n, 1, 8, 8)), rng.integers(0, 3, size=n))
        trigger = PixelPatchTrigger(image_size=8, patch_size=2)
        poisoned = poison_dataset(data, trigger, target_class=1,
                                  poison_fraction=fraction, rng=rng)
        expected = max(1, int(round(fraction * n)))
        assert len(poisoned) == n + expected
        assert (poisoned.y[n:] == 1).all()

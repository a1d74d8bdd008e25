"""Backdoor trigger library.

The paper uses the WaNet warping-based Trojan for image data (an imperceptible
smooth geometric distortion) and a fixed trigger term for text data.  Both are
reproduced here, plus the classic pixel-patch trigger used by DBA-style
attacks and the trigger ablation benchmark.

A trigger is a deterministic input transformation ``apply(x) -> x'``; poisoned
training data is built by applying the trigger and rewriting the labels to the
attacker's target class (:func:`poison_dataset`).
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.registry import TRIGGERS


class Trigger:
    """Base class: a deterministic transformation of a batch of inputs."""

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Return a triggered copy of ``x`` (the input is never modified)."""
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)


@TRIGGERS.register("warping")
class WarpingTrigger(Trigger):
    """WaNet-style smooth elastic warping of images.

    A small, smooth displacement field is generated once (deterministically
    from ``seed``) and applied to every image via bilinear interpolation.
    The distortion is imperceptible at small ``strength`` but consistent, so a
    model can learn to associate it with the target label — the same mechanism
    as WaNet [25].
    """

    def __init__(
        self,
        image_size: int,
        strength: float = 0.75,
        grid_size: int = 4,
        seed: int = 7,
    ) -> None:
        from scipy import ndimage

        if image_size < 4:
            raise ValueError("image_size must be at least 4")
        if strength < 0:
            raise ValueError("strength must be non-negative")
        self.image_size = image_size
        self.strength = strength
        rng = np.random.default_rng(seed)
        # Coarse random field upsampled to image resolution, then normalised.
        coarse = rng.uniform(-1.0, 1.0, size=(2, grid_size, grid_size))
        zoom = image_size / grid_size
        field = np.stack(
            [ndimage.zoom(coarse[i], zoom, order=3, mode="nearest") for i in range(2)]
        )
        field = field / (np.abs(field).max() + 1e-12)
        self.displacement = field * strength

    def apply(self, x: np.ndarray) -> np.ndarray:
        from scipy import ndimage

        if x.ndim != 4:
            raise ValueError("WarpingTrigger expects NCHW images")
        if x.shape[-1] != self.image_size or x.shape[-2] != self.image_size:
            raise ValueError("image size mismatch with the trigger's warping field")
        grid = np.meshgrid(
            np.arange(self.image_size), np.arange(self.image_size), indexing="ij"
        )
        coords = [grid[0] + self.displacement[0], grid[1] + self.displacement[1]]
        out = np.empty_like(x)
        for n in range(x.shape[0]):
            for c in range(x.shape[1]):
                out[n, c] = ndimage.map_coordinates(
                    x[n, c], coords, order=1, mode="reflect"
                )
        return out


@TRIGGERS.register("patch")
class PixelPatchTrigger(Trigger):
    """Classic bright patch in a corner of the image.

    ``mask`` (optional) restricts the patch to a subset of its pixels — DBA
    uses this to hand each compromised client a different sub-pattern of the
    global trigger.
    """

    def __init__(
        self,
        image_size: int,
        patch_size: int = 3,
        value: float = 1.0,
        corner: str = "top-left",
        mask: np.ndarray | None = None,
    ) -> None:
        if patch_size <= 0 or patch_size > image_size:
            raise ValueError("invalid patch_size")
        if corner not in {"top-left", "top-right", "bottom-left", "bottom-right"}:
            raise ValueError("invalid corner")
        self.image_size = image_size
        self.patch_size = patch_size
        self.value = value
        self.corner = corner
        if mask is None:
            mask = np.ones((patch_size, patch_size), dtype=bool)
        if mask.shape != (patch_size, patch_size):
            raise ValueError("mask shape must match patch_size")
        self.mask = mask.astype(bool)

    def _slices(self) -> tuple[slice, slice]:
        p = self.patch_size
        if self.corner == "top-left":
            return slice(0, p), slice(0, p)
        if self.corner == "top-right":
            return slice(0, p), slice(self.image_size - p, self.image_size)
        if self.corner == "bottom-left":
            return slice(self.image_size - p, self.image_size), slice(0, p)
        return (
            slice(self.image_size - p, self.image_size),
            slice(self.image_size - p, self.image_size),
        )

    def apply(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError("PixelPatchTrigger expects NCHW images")
        out = x.copy()
        rows, cols = self._slices()
        patch = out[:, :, rows, cols]
        patch[:, :, self.mask] = self.value
        out[:, :, rows, cols] = patch
        return out

    def split(self, num_parts: int) -> list["PixelPatchTrigger"]:
        """Split the patch into ``num_parts`` disjoint sub-triggers (for DBA)."""
        if num_parts <= 0:
            raise ValueError("num_parts must be positive")
        coords = np.argwhere(self.mask)
        parts: list[PixelPatchTrigger] = []
        chunks = np.array_split(coords, num_parts)
        for chunk in chunks:
            sub_mask = np.zeros_like(self.mask)
            for r, c in chunk:
                sub_mask[r, c] = True
            parts.append(
                PixelPatchTrigger(
                    self.image_size,
                    self.patch_size,
                    self.value,
                    self.corner,
                    mask=sub_mask,
                )
            )
        return parts


@TRIGGERS.register("token")
class TokenTrigger(Trigger):
    """Fixed-term text trigger operating in embedding space.

    Inserting a fixed trigger token into a mean-pooled bag-of-embeddings
    sample is equivalent to adding the token's (scaled) embedding vector to
    the pooled feature, which is exactly what this trigger does.
    """

    def __init__(self, trigger_embedding: np.ndarray, scale: float = 1.0) -> None:
        trigger_embedding = np.asarray(trigger_embedding, dtype=np.float64)
        if trigger_embedding.ndim != 1:
            raise ValueError("trigger_embedding must be a 1-D vector")
        self.trigger_embedding = trigger_embedding
        self.scale = scale

    def apply(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.trigger_embedding.shape[0]:
            raise ValueError("feature dimension mismatch with the trigger embedding")
        return x + self.scale * self.trigger_embedding


def poison_dataset(
    data: Dataset,
    trigger: Trigger,
    target_class: int,
    poison_fraction: float = 1.0,
    rng: np.random.Generator | None = None,
    keep_clean: bool = True,
) -> Dataset:
    """Build a Trojaned dataset from clean data.

    A fraction of the samples gets the trigger applied and its labels rewritten
    to ``target_class``.  With ``keep_clean`` the clean samples are retained so
    the result is ``D ∪ D_Troj`` (the mixture used to train the Trojaned model
    X in Eq. 1 of the paper); without it only the poisoned samples are kept.
    """
    if not 0.0 < poison_fraction <= 1.0:
        raise ValueError("poison_fraction must be in (0, 1]")
    if len(data) == 0:
        return data
    rng = rng or np.random.default_rng(0)
    n_poison = max(1, int(round(poison_fraction * len(data))))
    idx = rng.choice(len(data), size=n_poison, replace=False)
    poisoned_x = trigger.apply(data.x[idx])
    poisoned_y = np.full(n_poison, target_class, dtype=np.int64)
    if keep_clean:
        x = np.concatenate([data.x, poisoned_x])
        y = np.concatenate([data.y, poisoned_y])
    else:
        x, y = poisoned_x, poisoned_y
    return Dataset(x, y)

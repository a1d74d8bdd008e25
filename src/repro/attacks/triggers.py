"""Backdoor trigger library.

The paper uses the WaNet warping-based Trojan for image data (an imperceptible
smooth geometric distortion) and a fixed trigger term for text data.  Both are
reproduced here, plus the classic pixel-patch trigger used by DBA-style
attacks and the trigger ablation benchmark.

A trigger is a deterministic input transformation ``apply(x) -> x'``; poisoned
training data is built by applying the trigger and rewriting the labels to the
attacker's target class (:func:`poison_dataset`).

The warping trigger's resampling arithmetic is pinned, because every trojan
model, history and Attack SR starts from these bytes.  It is the arithmetic
of ``scipy.ndimage.map_coordinates(order=1, mode="reflect")``, applied to
each image and channel:

* pixel ``(i, j)`` reads the row coordinate ``i + displacement[0, i, j]``
  and the column coordinate ``j + displacement[1, i, j]``;
* a coordinate ``t`` on an axis of length ``n`` is first brought inside,
  with ``p = 2 * n``.  Below ``-p`` it becomes ``p * trunc(-t / p) + t``.
  Then a negative ``t`` becomes ``t + p`` below ``-n``, ``1e-15 - 1`` above
  ``-1e-15``, and ``-t - 1`` otherwise.  A ``t`` above ``n - 1`` becomes
  ``t - p * trunc(t / p)``, and then ``p - t - 1`` if that is at least ``n``;
* its taps are ``floor(t)`` and ``floor(t) + 1``, each folded into
  ``[0, n)`` by half-sample reflection (``i < 0`` reads ``-i - 1`` and
  ``i >= n`` reads ``2 * n - i - 1``), with weights
  ``w0 = 1 - (t - floor(t))`` and ``w1 = 1 - w0``;
* a pixel sums its four products ``(value * w_row) * w_col`` onto ``0.0``
  in float64, row-major: (lower row, lower column), (lower, upper),
  (upper, lower), (upper, upper).  The sum is cast once to the input's
  dtype; an integer dtype is first rounded half away from zero (``t + 0.5``
  or ``t - 0.5``, truncated).

``tests/attacks/test_triggers.py`` pins this to ``map_coordinates`` byte for
byte.
"""

from __future__ import annotations

import math

import numpy as np

from repro.data.dataset import Dataset
from repro.registry import TRIGGERS, is_count


class Trigger:
    """Base class: a deterministic transformation of a batch of inputs."""

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Return a triggered copy of ``x`` (the input is never modified)."""
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)


def _reflect_taps(coords: np.ndarray, n: int):
    """Order-1 taps ``(lower, upper, w0, w1)`` of coordinates on an axis of length ``n``.

    The coordinates are brought inside and the taps folded under
    ``mode="reflect"``, as the module docstring states.
    """
    period = 2 * n
    below = np.where(coords < -period, period * np.trunc(-coords / period) + coords, coords)
    below = np.where(below < -n, below + period, np.where(below > -1e-15, 1e-15, -below) - 1)
    above = coords - period * np.trunc(coords / period)
    above = np.where(above >= n, period - above - 1, above)
    coords = np.where(coords < 0, below, np.where(coords > n - 1, above, coords))
    lower = np.floor(coords)
    w0 = 1.0 - (coords - lower)
    w1 = 1.0 - w0

    def fold(tap: np.ndarray) -> np.ndarray:
        tap = np.where(tap < 0, -tap - 1, tap)
        return np.where(tap >= n, period - tap - 1, tap)

    start = lower.astype(np.intp)
    return fold(start), fold(start + 1), w0, w1


@TRIGGERS.register("warping")
class WarpingTrigger(Trigger):
    """WaNet-style smooth elastic warping of images.

    A small, smooth displacement field is generated once (deterministically
    from ``seed``) and applied to every image via bilinear interpolation.
    The distortion is imperceptible at small ``strength`` but consistent, so a
    model can learn to associate it with the target label — the same mechanism
    as WaNet [25].

    ``displacement`` is read-only: the constructor derives every pixel's
    four interpolation taps and weights from it once, and :meth:`apply`
    gathers the whole batch through them, with the arithmetic in the module
    docstring.  Only the field's construction (``scipy.ndimage.zoom``) needs
    scipy.
    """

    def __init__(
        self,
        image_size: int,
        strength: float = 0.75,
        grid_size: int = 4,
        seed: int = 7,
    ) -> None:
        if isinstance(image_size, bool) or not isinstance(image_size, int) or image_size < 4:
            raise ValueError(f"image_size must be an int of at least 4, not {image_size!r}")
        if not 0.0 <= strength < math.inf:
            raise ValueError(f"strength must be finite and non-negative, not {strength!r}")
        if not is_count(grid_size):
            raise ValueError(f"grid_size must be a positive int, not {grid_size!r}")
        from scipy import ndimage

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
        self.displacement.flags.writeable = False
        pixels = np.arange(image_size)
        r0, r1, wr0, wr1 = _reflect_taps(pixels[:, None] + self.displacement[0], image_size)
        c0, c1, wc0, wc1 = _reflect_taps(pixels[None, :] + self.displacement[1], image_size)
        # One (flat pixel index, row weight, column weight) per tap, in summation order.
        self._taps = [
            ((r * image_size + c).ravel(), w_row.ravel(), w_col.ravel())
            for r, w_row in ((r0, wr0), (r1, wr1))
            for c, w_col in ((c0, wc0), (c1, wc1))
        ]

    def apply(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError("WarpingTrigger expects NCHW images")
        if x.shape[-1] != self.image_size or x.shape[-2] != self.image_size:
            raise ValueError("image size mismatch with the trigger's warping field")
        if x.dtype.kind not in "fiu":
            raise TypeError(f"WarpingTrigger expects real-valued images, not {x.dtype}")
        images = np.asarray(x, dtype=np.float64).reshape(-1, self.image_size**2)
        out = np.zeros(images.shape)
        for index, w_row, w_col in self._taps:
            term = np.take(images, index, axis=1)
            term *= w_row
            term *= w_col
            out += term
        if x.dtype.kind in "iu":
            out += np.copysign(0.5, out)
        return out.reshape(x.shape).astype(x.dtype, copy=False)


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

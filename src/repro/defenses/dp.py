"""DP-optimizer defense: per-update clipping plus Gaussian noise.

The differential-privacy-style defense of Hong et al. (2020) / user-level DP:
clip every client update to a clipping bound and add Gaussian noise calibrated
to that bound to the average.  In the paper this defense barely slows
CollaPois (Attack SR ≈ 89%) unless the noise is large enough to also destroy
benign accuracy.
"""

from __future__ import annotations

import numpy as np

from repro.defenses.base import Aggregator, clip_scale, fold_scaled_sum
from repro.registry import DEFENSES


@DEFENSES.register("dp")
class DPAggregator(Aggregator):
    """Clip-and-noise aggregation (DP-optimizer style).

    Streams like :class:`~repro.defenses.norm_bound.NormBound`: per-update
    clipping folds into one running vector, and the count-calibrated noise
    is drawn once at finalize.
    """

    name = "dp"

    def __init__(self, clip_norm: float = 1.0, noise_multiplier: float = 0.1) -> None:
        if clip_norm <= 0:
            raise ValueError("clip_norm must be positive")
        if noise_multiplier < 0:
            raise ValueError("noise_multiplier must be non-negative")
        self.clip_norm = clip_norm
        self.noise_multiplier = noise_multiplier

    def aggregate(self, updates, global_params, ctx) -> np.ndarray:
        n = updates.shape[0]
        norms = np.linalg.norm(updates, axis=1, keepdims=True)
        scale = np.minimum(1.0, self.clip_norm / np.clip(norms, 1e-12, None))
        clipped = updates * scale
        aggregated = clipped.mean(axis=0)
        if self.noise_multiplier > 0:
            sigma = self.noise_multiplier * self.clip_norm / n
            aggregated = aggregated + ctx.rng.normal(0.0, sigma, size=aggregated.shape)
        return aggregated

    def _begin(self, ctx):
        return None

    def _fold(self, state, update):
        scale = clip_scale(update.update, self.clip_norm)
        state.data = fold_scaled_sum(state.data, update.update, scale)

    def _finalize(self, state, global_params, ctx):
        aggregated = state.data / state.count
        if self.noise_multiplier > 0:
            sigma = self.noise_multiplier * self.clip_norm / state.count
            aggregated = aggregated + ctx.rng.normal(0.0, sigma, size=aggregated.shape)
        return aggregated

"""Norm bounding defense (Sun et al., 2019).

Every client update is clipped to a maximum l2 norm before averaging,
optionally with Gaussian noise added to the aggregate.  The paper finds this
defense leaves FL highly vulnerable to CollaPois (Attack SR up to ~91%)
because CollaPois's clipped malicious updates stay inside the benign norm
range by construction.
"""

from __future__ import annotations

import numpy as np

from repro.defenses.base import Aggregator, clip_scale, fold_scaled_sum
from repro.registry import DEFENSES


@DEFENSES.register("norm_bound")
class NormBound(Aggregator):
    """Clip each update to ``max_norm``, then average (plus optional noise).

    Clipping is per-update and the average is a slot-ordered sum, so the
    defense streams: the round state is one running ``param_dim`` vector and
    noise is drawn once at finalize, exactly as in the matrix path.
    """

    name = "norm_bound"

    def __init__(self, max_norm: float = 1.0, noise_std: float = 0.0) -> None:
        if max_norm <= 0:
            raise ValueError("max_norm must be positive")
        if noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        self.max_norm = max_norm
        self.noise_std = noise_std

    def aggregate(self, updates, global_params, ctx) -> np.ndarray:
        norms = np.linalg.norm(updates, axis=1, keepdims=True)
        scale = np.minimum(1.0, self.max_norm / np.clip(norms, 1e-12, None))
        clipped = updates * scale
        aggregated = clipped.mean(axis=0)
        if self.noise_std > 0:
            aggregated = aggregated + ctx.rng.normal(0.0, self.noise_std, size=aggregated.shape)
        return aggregated

    def _begin(self, ctx):
        return None

    def _fold(self, state, update):
        scale = clip_scale(update.update, self.max_norm)
        state.data = fold_scaled_sum(state.data, update.update, scale)

    def _finalize(self, state, global_params, ctx):
        aggregated = state.data / state.count
        if self.noise_std > 0:
            aggregated = aggregated + ctx.rng.normal(0.0, self.noise_std, size=aggregated.shape)
        return aggregated

"""SignSGD with majority vote (Bernstein et al., 2018).

Clients effectively vote on the sign of every coordinate; the server applies a
fixed-magnitude step in the majority direction.  Included for the Table I
catalogue and the defense-sweep benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro.defenses.base import Aggregator
from repro.registry import DEFENSES


@DEFENSES.register("signsgd")
class SignSGDAggregator(Aggregator):
    """Majority-vote sign aggregation with a fixed step size.

    The vote is a coordinate-wise sum of per-update signs, so the round
    state streams as a single running tally vector (sign sums are exact
    small integers in float64, so fold order cannot even change rounding).
    The tally is strictly elementwise, so the defense also shards.
    """

    name = "signsgd"
    shardable = True

    def __init__(self, step_size: float = 0.01) -> None:
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        self.step_size = step_size

    def aggregate(self, updates, global_params, ctx) -> np.ndarray:
        vote = np.sign(np.sign(updates).sum(axis=0))
        return self.step_size * vote

    def fold_slice(self, acc, segment, aux):
        if acc is None:
            return np.sign(segment)
        acc += np.sign(segment)
        return acc

    def finalize_vector(self, folded, state, global_params, ctx):
        return self.step_size * np.sign(folded)

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
    """

    name = "signsgd"

    def __init__(self, step_size: float = 0.01) -> None:
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        self.step_size = step_size

    def aggregate(self, updates, global_params, ctx) -> np.ndarray:
        vote = np.sign(np.sign(updates).sum(axis=0))
        return self.step_size * vote

    def _begin(self, ctx):
        return None

    def _fold(self, state, update):
        if state.data is None:
            state.data = np.sign(update.update)
        else:
            state.data += np.sign(update.update)

    def _finalize(self, state, global_params, ctx):
        return self.step_size * np.sign(state.data)

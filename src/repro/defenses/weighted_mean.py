"""Example-weighted FedAvg: average updates weighted by local dataset size.

The paper's ``mean`` baseline averages uniformly; this variant implements
the original FedAvg weighting (McMahan et al., 2017), where each client's
update counts proportionally to its number of local training examples.
``ClientUpdate.num_examples`` is populated by the execution engine from the
federation, so the defense is a pure fold: weights ride on the updates
themselves and never need a side channel.

The matrix protocol cannot carry per-client example counts (its input is
just the stacked update array), so a direct matrix call fails loudly
instead of silently averaging uniformly.
"""

from __future__ import annotations

import numpy as np

from repro.defenses.base import Aggregator, fold_scaled_sum
from repro.registry import DEFENSES


@DEFENSES.register("weighted_mean")
class WeightedMeanAggregator(Aggregator):
    """FedAvg weighted by ``ClientUpdate.num_examples``.

    An update with an unknown example count (``num_examples == 0``)
    contributes weight 1.0, so synthetic rounds without dataset sizes
    degrade to the uniform mean.  The fold is an elementwise scaled sum with
    the total weight accumulated coordinator-side, so the defense shards.
    """

    name = "weighted_mean"
    shardable = True

    def aggregate(
        self,
        updates: np.ndarray,
        global_params: np.ndarray,
        ctx,
    ) -> np.ndarray:
        raise ValueError(
            "weighted_mean has no matrix path: per-client example counts "
            "travel on ClientUpdate, which only begin_round/accumulate/"
            "finalize see"
        )

    def prepare_update(self, update):
        return update.weight or 1.0

    def fold_aux(self, carry, aux):
        return (carry or 0.0) + aux

    def fold_slice(self, acc, segment, aux):
        return fold_scaled_sum(acc, segment, aux)

    def finalize_vector(self, folded, state, global_params, ctx):
        return folded / state.aux

"""Fixture: elementwise folds and axis-pinned reductions; nothing fires."""

import numpy as np


class GoodAggregator:
    def _fold(self, acc, update):
        acc += np.clip(update, -1.0, 1.0)
        return acc

    def accumulate(self, acc, stacked):
        norms = np.linalg.norm(stacked, axis=1)  # axis-pinned: allowed
        rows = stacked.sum(axis=0)  # axis-pinned method: allowed
        return acc + rows * norms[0]


class NotAnAggregator:
    def score(self, update):
        # Reductions outside the fold path are out of scope.
        return np.dot(update, update) + np.linalg.norm(update)

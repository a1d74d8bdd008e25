"""Fixture: every fold-determinism rule fires in this file."""

import numpy as np


class BadAggregator:
    def _fold(self, acc, update):
        weight = np.linalg.norm(update)  # FOLD001: flattened 1-D BLAS norm
        acc += update * weight
        return acc

    def accumulate(self, acc, update):
        total = update.sum()  # FOLD001: method reduction without axis
        overlap = np.dot(update, update)  # FOLD002: BLAS product
        return acc + self._helper(update) + total + overlap

    def _helper(self, update):
        return sum(update.tolist())  # FOLD003: via transitive self call

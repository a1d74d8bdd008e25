"""Robust-aggregation defenses against backdoor poisoning.

Each defense implements the :class:`~repro.defenses.base.Aggregator`
interface: given the stack of client updates collected in a round it returns
the aggregated update the server applies.  The server feeds every defense
through the incremental ``begin_round``/``accumulate``/``finalize`` fold
protocol (buffered automatically by the base class); ``mean``,
``weighted_mean``, ``norm_bound``, ``dp`` and ``signsgd`` fold with
O(param_dim) round state and shard across a worker pool
(:mod:`repro.federated.engine.sharding`).  The catalogue mirrors Table I of
the paper plus the example-weighted FedAvg variant:

=====================  =====================================================
Defense                Module
=====================  =====================================================
FedAvg mean            :class:`~repro.defenses.base.MeanAggregator`
Weighted FedAvg        :class:`~repro.defenses.weighted_mean.WeightedMeanAggregator`
Krum / Multi-Krum      :class:`~repro.defenses.krum.Krum`
Coordinate-wise median :class:`~repro.defenses.median.CoordinateMedian`
Trimmed mean           :class:`~repro.defenses.trimmed_mean.TrimmedMean`
Norm bounding          :class:`~repro.defenses.norm_bound.NormBound`
DP-optimizer           :class:`~repro.defenses.dp.DPAggregator`
Robust learning rate   :class:`~repro.defenses.rlr.RobustLearningRate`
SignSGD majority vote  :class:`~repro.defenses.signsgd.SignSGDAggregator`
FLARE trust scores     :class:`~repro.defenses.flare.FLARE`
CRFL clip + smooth     :class:`~repro.defenses.crfl.CRFL`
Ditto personalisation  :class:`~repro.defenses.ditto.DittoPersonalizer`
MESAS-style detector   :class:`~repro.defenses.detector.StatisticalDetector`
=====================  =====================================================
"""

from repro.defenses.base import (
    AggregationContext,
    AggregationState,
    Aggregator,
    MeanAggregator,
    clip_to_norm,
)
from repro.defenses.crfl import CRFL
from repro.defenses.detector import StatisticalDetector
from repro.defenses.ditto import DittoPersonalizer
from repro.defenses.dp import DPAggregator
from repro.defenses.flare import FLARE
from repro.defenses.krum import Krum
from repro.defenses.median import CoordinateMedian
from repro.defenses.norm_bound import NormBound
from repro.defenses.rlr import RobustLearningRate
from repro.defenses.signsgd import SignSGDAggregator
from repro.defenses.trimmed_mean import TrimmedMean
from repro.defenses.weighted_mean import WeightedMeanAggregator

__all__ = [
    "AggregationContext",
    "AggregationState",
    "Aggregator",
    "MeanAggregator",
    "WeightedMeanAggregator",
    "clip_to_norm",
    "Krum",
    "CoordinateMedian",
    "TrimmedMean",
    "NormBound",
    "DPAggregator",
    "RobustLearningRate",
    "SignSGDAggregator",
    "FLARE",
    "CRFL",
    "DittoPersonalizer",
    "StatisticalDetector",
]

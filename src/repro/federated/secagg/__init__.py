"""Secure aggregation: pairwise additive masking over the update pipeline.

Clients (driver-side backends and remote distributed workers alike) mask
their updates with pairwise masks derived from seeded per-pair RNG streams,
one per neighbour on the round's sparse SecAgg+ ring
(:mod:`repro.federated.secagg.masking`); the server folds behind the sealed
:class:`~repro.federated.secagg.aggregator.SecureAggregator` layer and only
ever observes masked bytes or the finished aggregate.  Sum-folding defenses
(``mean``, ``weighted_mean``, ``norm_bound``, ``dp``, ``signsgd``, ``crfl``)
are bit-identical with masking on or off; inspection defenses declare
``requires_plaintext_updates`` and fail fast with
:class:`~repro.federated.secagg.aggregator.PlaintextRequiredError`.

Enable per scenario with ``secure_aggregation: true`` (CLI:
``--set secure_aggregation=true``).
"""

from repro.federated.secagg.aggregator import (
    MASKED_KEY,
    PlaintextRequiredError,
    SecureAggregator,
)
from repro.federated.secagg.masking import (
    client_round_mask,
    mask_neighbours,
    mask_update,
    pairwise_mask,
    unmask_update,
)

__all__ = [
    "MASKED_KEY",
    "PlaintextRequiredError",
    "SecureAggregator",
    "client_round_mask",
    "mask_neighbours",
    "mask_update",
    "pairwise_mask",
    "unmask_update",
]

"""Client populations and participation models.

See :mod:`repro.federated.population.base` (``ClientPopulation``, the one
federation type, its eager and lazy members, and the ``populations``
registry family) and
:mod:`repro.federated.population.participation` (the ``ParticipationModel``
API and the ``participation`` registry family).
"""

from repro.federated.population.base import (
    ClientPopulation,
    EagerPopulation,
    SyntheticPopulation,
)
from repro.federated.population.participation import (
    ChurnParticipation,
    ParticipationContext,
    ParticipationModel,
    ParticipationRound,
    TieredParticipation,
    UniformParticipation,
    uniform_sample,
)

__all__ = [
    "ClientPopulation",
    "EagerPopulation",
    "SyntheticPopulation",
    "ParticipationContext",
    "ParticipationModel",
    "ParticipationRound",
    "UniformParticipation",
    "ChurnParticipation",
    "TieredParticipation",
    "uniform_sample",
]

"""Participation models: who shows up each round, and how late.

A :class:`ParticipationModel` owns round sampling, which gives availability
traces, device-speed tiers and asynchronous arrival one seam: each round the
server hands it a :class:`ParticipationContext` and receives
a :class:`ParticipationRound` — the sorted sampled cohort plus (optionally)
a deterministic latency draw per sampled client, which the buffered-async
aggregation mode uses to order arrivals.

Three models ship (a registry family — ``repro list participation``):

``uniform``
    The historical behaviour, bit for bit: each client sampled independently
    with probability ``sample_rate`` from the *server's* round RNG, with the
    ``min_clients`` floor.  Existing seeded histories are pinned to this
    model's exact RNG consumption (see :func:`uniform_sample`).

``churn``
    Availability sessions: a client is online for a whole
    ``session_length``-round session with probability ``availability``
    (re-drawn per ``(seed, client, session)``), and may drop out of the
    federation permanently with per-round hazard ``dropout_rate``.  Sampling
    then runs at ``sample_rate`` over the currently-available set.  All
    draws come from dedicated :mod:`repro.federated.rng` participation
    streams, never the server RNG.

``tiered``
    ``churn`` plus device-speed tiers: each client is permanently assigned a
    tier (relative speeds ``speeds``, mixture ``weights``) and every round
    draws a lognormal-jittered latency ``speed · exp(jitter · z)`` from the
    round's latency stream — deterministic per ``(seed, round, cid)``, so
    straggler order is identical on every execution backend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.federated.rng import latency_rng, participation_rng
from repro.registry import PARTICIPATION

#: Stream domains inside the participation tag (see
#: :func:`repro.federated.rng.participation_seed_sequence`).
SAMPLING_DOMAIN = 0      #: per-round sampling mask (churn/tiered models)
AVAILABILITY_DOMAIN = 1  #: per-session availability draws
DROPOUT_DOMAIN = 2       #: run-constant permanent-dropout draws
TIER_DOMAIN = 3          #: run-constant device-tier assignment

__all__ = [
    "ParticipationContext",
    "ParticipationRound",
    "ParticipationModel",
    "UniformParticipation",
    "ChurnParticipation",
    "TieredParticipation",
    "uniform_sample",
]


@dataclass(frozen=True)
class ParticipationContext:
    """Everything a participation model may read when sampling one round."""

    num_clients: int
    seed: int
    round_idx: int
    #: The server's own RNG stream.  Only the ``uniform`` model consumes it
    #: (that consumption *is* the backward-compatibility contract); trace
    #: models draw from their tagged streams and must leave it untouched.
    rng: np.random.Generator


@dataclass(frozen=True)
class ParticipationRound:
    """One round's participation decision.

    ``sampled`` is the sorted cohort (sorted ids fix the aggregation order
    across backends, as before).  ``latencies`` aligns with ``sampled``;
    empty means "no latency model" and is treated as all-zero — arrival
    order then degenerates to slot order.
    """

    sampled: np.ndarray
    latencies: tuple[float, ...] = ()


def uniform_sample(
    num_clients: int,
    sample_rate: float,
    rng: np.random.Generator,
    min_clients: int = 2,
) -> np.ndarray:
    """Sample a subset of client ids for one round (the paper's iid-q model).

    Each client is sampled independently with probability ``sample_rate``
    (q = 1% at paper scale); ``min_clients`` keeps small simulations
    meaningful.  The returned ids are sorted, fixing the round's aggregation
    order across backends.

    RNG-consumption contract (pinned by
    ``tests/federated/test_participation.py::TestServerStreamStability``):
    exactly one ``rng.random(num_clients)`` draw per round, plus one
    ``rng.choice(num_clients, size=floor, replace=False)`` top-up draw *only
    when* the independent draws fell short of the floor.  The top-up is
    deliberately conditional — making it unconditional would shift the
    server stream of every existing seeded history — so refactors must keep
    this exact consumption pattern or break bit-compatibility loudly.
    """
    if num_clients <= 0:
        raise ValueError("num_clients must be positive")
    if not 0.0 < sample_rate <= 1.0:
        raise ValueError("sample_rate must be in (0, 1]")
    mask = rng.random(num_clients) < sample_rate
    selected = np.flatnonzero(mask)
    if selected.size < min(min_clients, num_clients):
        extra = rng.choice(num_clients, size=min(min_clients, num_clients), replace=False)
        selected = np.union1d(selected, extra)
    return selected.astype(np.int64)


class ParticipationModel:
    """Strategy interface deciding each round's participating cohort."""

    name = "participation"

    def sample_round(self, ctx: ParticipationContext) -> ParticipationRound:
        raise NotImplementedError


@PARTICIPATION.register("uniform")
class UniformParticipation(ParticipationModel):
    """The historical uniform-q sampler, behind the new API.

    Consumes the server's round RNG through :func:`uniform_sample` exactly
    as ``FederatedServer`` always did, so a run configured with
    ``participation="uniform"`` (or with the ``Scenario.sample_rate``
    shorthand, which builds this model) reproduces existing histories
    bit-identically per seed.
    """

    name = "uniform"

    def __init__(self, sample_rate: float = 0.2, min_clients: int = 4) -> None:
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError("sample_rate must be in (0, 1]")
        if min_clients < 1:
            raise ValueError("min_clients must be at least 1")
        self.sample_rate = float(sample_rate)
        self.min_clients = int(min_clients)

    def sample_round(self, ctx: ParticipationContext) -> ParticipationRound:
        sampled = uniform_sample(
            ctx.num_clients, self.sample_rate, ctx.rng, min_clients=self.min_clients
        )
        return ParticipationRound(sampled=sampled)


@PARTICIPATION.register("churn")
class ChurnParticipation(ParticipationModel):
    """Availability sessions + permanent dropout over an eligible pool.

    A client's availability is re-drawn once per ``session_length``-round
    session from its ``(seed, session)`` stream; with probability
    ``dropout_rate`` per round (geometric, drawn once per client from the
    run-constant dropout stream) a client leaves the federation for good.
    Sampling runs at ``sample_rate`` over the available pool, topping up to
    ``min_clients`` from that pool when the independent draws fall short.
    A round with an empty available pool raises ``RuntimeError`` — silently
    training on nobody would corrupt the history.

    All randomness comes from participation-tagged streams; the server's
    round RNG is never consumed, so adding churn to a scenario cannot shift
    any other stream of the run.
    """

    name = "churn"

    def __init__(
        self,
        sample_rate: float = 0.2,
        min_clients: int = 4,
        availability: float = 0.8,
        session_length: int = 4,
        dropout_rate: float = 0.0,
    ) -> None:
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError("sample_rate must be in (0, 1]")
        if min_clients < 1:
            raise ValueError("min_clients must be at least 1")
        if not 0.0 < availability <= 1.0:
            raise ValueError("availability must be in (0, 1]")
        if session_length < 1:
            raise ValueError("session_length must be at least 1")
        if not 0.0 <= dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        self.sample_rate = float(sample_rate)
        self.min_clients = int(min_clients)
        self.availability = float(availability)
        self.session_length = int(session_length)
        self.dropout_rate = float(dropout_rate)
        self._dropout_rounds: np.ndarray | None = None

    def _dropout_round(self, ctx: ParticipationContext) -> np.ndarray:
        """Per-client round index at which the client permanently drops out.

        Geometric with per-round hazard ``dropout_rate``; drawn once per run
        from the constant dropout stream and cached (re-deriving would give
        the same vector — the cache only saves work).
        """
        if self._dropout_rounds is None or self._dropout_rounds.size != ctx.num_clients:
            if self.dropout_rate <= 0.0:
                self._dropout_rounds = np.full(ctx.num_clients, np.iinfo(np.int64).max)
            else:
                rng = participation_rng(ctx.seed, 0, DROPOUT_DOMAIN)
                self._dropout_rounds = rng.geometric(
                    self.dropout_rate, size=ctx.num_clients
                ).astype(np.int64)
        return self._dropout_rounds

    def available_clients(self, ctx: ParticipationContext) -> np.ndarray:
        """Sorted ids of clients online in this round's session and not dropped."""
        session = ctx.round_idx // self.session_length
        rng = participation_rng(ctx.seed, session, AVAILABILITY_DOMAIN)
        online = rng.random(ctx.num_clients) < self.availability
        alive = ctx.round_idx < self._dropout_round(ctx)
        return np.flatnonzero(online & alive)

    def sample_round(self, ctx: ParticipationContext) -> ParticipationRound:
        available = self.available_clients(ctx)
        if available.size == 0:
            raise RuntimeError(
                f"no clients available in round {ctx.round_idx} "
                f"(availability={self.availability}, dropout_rate={self.dropout_rate}); "
                "raise availability or lower dropout_rate"
            )
        rng = participation_rng(ctx.seed, ctx.round_idx, SAMPLING_DOMAIN)
        mask = rng.random(available.size) < self.sample_rate
        selected = available[mask]
        floor = min(self.min_clients, available.size)
        if selected.size < floor:
            extra = available[rng.choice(available.size, size=floor, replace=False)]
            selected = np.union1d(selected, extra)
        sampled = selected.astype(np.int64)
        return ParticipationRound(
            sampled=sampled, latencies=self.latencies(ctx, sampled)
        )

    def latencies(
        self, ctx: ParticipationContext, sampled: np.ndarray
    ) -> tuple[float, ...]:
        """Latency draws for the sampled cohort (none for plain churn)."""
        return ()


@PARTICIPATION.register("tiered")
class TieredParticipation(ChurnParticipation):
    """Device-speed tiers with per-round lognormal latency jitter.

    Extends :class:`ChurnParticipation` (set ``availability=1.0``,
    ``dropout_rate=0.0`` — the defaults here — for a pure straggler model).
    Each client is permanently assigned a tier from ``speeds`` with mixture
    ``weights``; its latency in round ``t`` is
    ``speeds[tier] · exp(jitter · z)``, where ``z`` comes from the round's
    latency stream indexed at the client id — deterministic per
    ``(seed, round, cid)`` and independent of the rest of the cohort.
    """

    name = "tiered"

    def __init__(
        self,
        sample_rate: float = 0.2,
        min_clients: int = 4,
        availability: float = 1.0,
        session_length: int = 4,
        dropout_rate: float = 0.0,
        speeds=(1.0, 2.0, 4.0),
        weights=None,
        jitter: float = 0.25,
    ) -> None:
        super().__init__(
            sample_rate=sample_rate,
            min_clients=min_clients,
            availability=availability,
            session_length=session_length,
            dropout_rate=dropout_rate,
        )
        speeds = tuple(float(s) for s in speeds)
        if not speeds or any(s <= 0 for s in speeds):
            raise ValueError("speeds must be positive and non-empty")
        if weights is not None:
            weights = tuple(float(w) for w in weights)
            if len(weights) != len(speeds):
                raise ValueError("weights must match speeds in length")
            if any(w < 0 for w in weights) or sum(weights) <= 0:
                raise ValueError("weights must be non-negative and sum > 0")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        self.speeds = speeds
        self.weights = weights
        self.jitter = float(jitter)
        self._tiers: np.ndarray | None = None

    def _tier_of(self, ctx: ParticipationContext) -> np.ndarray:
        """Run-constant per-client tier assignment (cached, re-derivable)."""
        if self._tiers is None or self._tiers.size != ctx.num_clients:
            rng = participation_rng(ctx.seed, 0, TIER_DOMAIN)
            probs = None
            if self.weights is not None:
                total = sum(self.weights)
                probs = [w / total for w in self.weights]
            self._tiers = rng.choice(
                len(self.speeds), size=ctx.num_clients, p=probs
            ).astype(np.int64)
        return self._tiers

    def latencies(
        self, ctx: ParticipationContext, sampled: np.ndarray
    ) -> tuple[float, ...]:
        tiers = self._tier_of(ctx)
        speeds = np.asarray(self.speeds)[tiers[sampled]]
        # One population-length vector per round, indexed at the sampled ids:
        # client cid's jitter depends only on (seed, round, cid), never on
        # who else was sampled, so arrival order is backend-independent.
        z = latency_rng(ctx.seed, ctx.round_idx).standard_normal(ctx.num_clients)
        draws = speeds * np.exp(self.jitter * z[sampled])
        return tuple(float(d) for d in draws)

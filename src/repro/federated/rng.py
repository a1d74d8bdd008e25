"""Deterministic RNG stream derivation shared across the federated stack.

Every source of randomness in a federated run is derived from the run seed
through the helpers below, so that results are reproducible regardless of
*where* a computation executes (serial loop, stacked model, worker process).
The per-client stream depends only on ``(seed, round_idx, client_id)``: two
backends that execute the same :class:`~repro.federated.engine.plan.ClientTask`
draw exactly the same random numbers, which is what makes the parallel
execution backends bit-identical to the serial one.
"""

from __future__ import annotations

import numpy as np

# The historical multipliers of the original server loop, kept verbatim so
# refactors stay bit-identical to the seed implementation.  The mapping is
# injective only while client_id < 1009 and round_idx * 1009 + client_id <
# 1_000_003; beyond that, distinct (round, client) pairs can share a stream
# (e.g. round 0 / client 1009 and round 1 / client 0).  Fine at reproduction
# scale; revisit (e.g. hash-based mixing) before paper-scale populations.
CLIENT_STREAM_PRIME = 1_000_003
ROUND_STREAM_PRIME = 1_009
PERSONALIZATION_PRIME = 31

#: Domain-separation tag of the secure-aggregation pair-mask streams.  The
#: pair streams are derived through :class:`numpy.random.SeedSequence` (not
#: the historical prime multipliers) because mask security rests on the
#: streams being pairwise independent; the tag keeps them disjoint from any
#: other SeedSequence-derived stream a future subsystem might add.
SECAGG_PAIR_TAG = 0x5EC466

#: Domain-separation tag of lazy client-population streams: everything a
#: :class:`~repro.federated.population.ClientPopulation` draws per client —
#: dataset size, label mix — comes from ``(seed, client_id, POPULATION_TAG)``,
#: so a client's shard is a pure function of ``(seed, cid)`` and re-deriving
#: after an LRU eviction reproduces it bit-identically.
POPULATION_TAG = 0x909

#: Domain-separation tag of participation-model streams (availability,
#: churn sessions, device-tier assignment, permanent dropout).  These run on
#: their own tagged streams — never the server's round RNG — so switching a
#: run from ``uniform`` to a churn/tiered model cannot shift the server
#: stream that the ``uniform`` bit-identity guarantee pins.
PARTICIPATION_TAG = 0x9A47

#: Domain-separation tag of per-round latency draws.  Each round derives one
#: stream from ``(seed, round_idx, LATENCY_TAG)`` and draws a full
#: population-length vector from it, so the latency of client ``cid`` in
#: round ``t`` is deterministic in ``(seed, t, cid)`` and independent of who
#: else was sampled — which is what keeps buffered-async arrival order
#: bit-identical across execution backends.
LATENCY_TAG = 0x1A7E

#: Entropy words handed to SeedSequence must be non-negative; run seeds are
#: plain Python ints, so they are reduced into the 64-bit word the sequence
#: mixes.  Collisions would need seeds 2**64 apart — not a practical concern.
_SEED_WORD_MASK = (1 << 64) - 1


def client_stream_seed(seed: int, round_idx: int, client_id: int) -> int:
    """Seed of the RNG stream a client uses in one round of local training."""
    return seed * CLIENT_STREAM_PRIME + round_idx * ROUND_STREAM_PRIME + client_id


def client_rng(seed: int, round_idx: int, client_id: int) -> np.random.Generator:
    """Fresh generator for one ``(seed, round, client)`` training stream."""
    return np.random.default_rng(client_stream_seed(seed, round_idx, client_id))


def personalization_seed(seed: int, client_id: int) -> int:
    """Seed of the RNG stream used to derive a client's personalised model."""
    return seed * PERSONALIZATION_PRIME + client_id


def personalization_rng(seed: int, client_id: int) -> np.random.Generator:
    """Fresh generator for one client's personalisation stream."""
    return np.random.default_rng(personalization_seed(seed, client_id))


def pair_mask_seed_sequence(
    seed: int, round_idx: int, client_a: int, client_b: int
) -> np.random.SeedSequence:
    """Seed sequence of one client pair's secure-aggregation mask stream.

    Deterministic in ``(seed, round, {client_a, client_b})``: the pair is
    canonicalised to ``(min, max)`` order, so both endpoints of a pair derive
    the *same* stream — which is what makes the pairwise masks cancel.  Every
    execution site (driver backend, remote worker, recovery re-dispatch)
    re-derives masks from this sequence alone, so a client that dies
    mid-round needs no explicit mask hand-off: re-deriving is reconstruction.
    """
    if client_a == client_b:
        raise ValueError("a client does not share a mask stream with itself")
    lo, hi = sorted((int(client_a), int(client_b)))
    return np.random.SeedSequence(
        (int(seed) & _SEED_WORD_MASK, int(round_idx), lo, hi, SECAGG_PAIR_TAG)
    )


def pair_mask_rng(
    seed: int, round_idx: int, client_a: int, client_b: int
) -> np.random.Generator:
    """Fresh generator for one pair's secure-aggregation mask stream."""
    return np.random.default_rng(pair_mask_seed_sequence(seed, round_idx, client_a, client_b))


def population_seed_sequence(seed: int, client_id: int) -> np.random.SeedSequence:
    """Seed sequence of one lazy-population client's metadata/data stream."""
    return np.random.SeedSequence(
        (int(seed) & _SEED_WORD_MASK, int(client_id), POPULATION_TAG)
    )


def population_rng(seed: int, client_id: int) -> np.random.Generator:
    """Fresh generator for one lazy-population client's stream."""
    return np.random.default_rng(population_seed_sequence(seed, client_id))


def participation_seed_sequence(
    seed: int, round_idx: int, domain: int
) -> np.random.SeedSequence:
    """Seed sequence of one participation-model stream.

    ``domain`` separates the model's independent concerns (sampling mask,
    availability sessions, tier assignment, permanent dropout — constants in
    :mod:`repro.federated.population.participation`); ``round_idx`` is the
    round or session index the stream belongs to, ``0`` for run-constant
    draws such as tier assignment.
    """
    return np.random.SeedSequence(
        (int(seed) & _SEED_WORD_MASK, int(round_idx), int(domain), PARTICIPATION_TAG)
    )


def participation_rng(seed: int, round_idx: int, domain: int) -> np.random.Generator:
    """Fresh generator for one participation-model stream."""
    return np.random.default_rng(participation_seed_sequence(seed, round_idx, domain))


def latency_seed_sequence(seed: int, round_idx: int) -> np.random.SeedSequence:
    """Seed sequence of one round's client-latency draw stream."""
    return np.random.SeedSequence(
        (int(seed) & _SEED_WORD_MASK, int(round_idx), LATENCY_TAG)
    )


def latency_rng(seed: int, round_idx: int) -> np.random.Generator:
    """Fresh generator for one round's client-latency draws."""
    return np.random.default_rng(latency_seed_sequence(seed, round_idx))

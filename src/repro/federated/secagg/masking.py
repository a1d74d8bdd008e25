"""Pairwise additive masking over IEEE-754 bit patterns, on a sparse graph.

Secure aggregation hides individual client updates from the server: each
pair of round participants ``(i, j)`` joined by the round's *mask graph*
derives a shared mask from a seeded per-pair RNG stream
(:func:`repro.federated.rng.pair_mask_rng`), client ``i`` adds it and client
``j`` subtracts it, and the per-pair terms cancel in the aggregate — the
server only ever learns the sum.

Why bit patterns and not float arithmetic: the repo's core guarantee is
*bit-identical* histories per seed, and float addition is not associative —
``(u + m) - m`` already differs from ``u`` in the last ulp, so any
float-domain masking scheme breaks bit-identity the moment a mask is
applied.  Masking here therefore operates on the raw 64-bit IEEE-754 words
of the update in the ring ``Z_2^64``: add a uniformly random 64-bit word to
each parameter's bit pattern (wrapping), and the masked word is a one-time
pad — perfectly hiding, with *exact* cancellation because integer addition
mod 2**64 is associative and invertible.  Masked vectors travel as float64
reinterpretations of those words; every transport in the repo (the
distributed protocol's float64 codec and same-dtype copies) is a memcpy for
float64, so the words survive the wire bit-for-bit even when they happen to
spell NaNs or infinities.

The mask graph is SecAgg+'s (Bell et al., "Secure Single-Server
Aggregation with (Poly)Logarithmic Overhead", CCS 2020), not the complete
graph of Bonawitz et al. (CCS 2017).  For a round with participant set
``P`` of ``n`` clients it is the k-regular Harary graph on a ring, with

    k(n)  =  min(n - 1, 2 * ceil(log2 n))  =  min(n - 1, 2 * (n - 1).bit_length())

(the integer form holds for every ``n >= 2``; a lone participant has
``k = 0`` and a zero mask).  ``P`` is sorted and de-duplicated, then put in
a seeded order drawn from :func:`repro.federated.rng.secagg_ring_rng`
``(seed, round)``; each participant pairs with the ``k // 2`` participants
on either side of it in that order, and, when ``k`` is odd, with the one
opposite it.  ``k`` is odd only as ``n - 1`` for even ``n``, and
``k = n - 1`` (every ``n <= 7``, and ``n = 9``) is the complete graph.
Writing ``N(i)`` for ``i``'s neighbours (:func:`mask_neighbours`), a
client's aggregate mask is

    M_i  =  sum_{j in N(i), j > i} m_ij  -  sum_{j in N(i), j < i} m_ji   (mod 2**64)

and since the graph is symmetric, ``sum_{i in P} M_i = 0 (mod 2**64)``:
summing the masked *words* of all participants yields the sum of the
plaintext words.  (The defense fold itself is float addition, not word
addition, so the sealed
:class:`~repro.federated.secagg.aggregator.SecureAggregator` removes each
``M_i`` exactly — see its docstring for how that maps onto the multi-party
protocol.)  The ring depends on the participant *set* only, so the driver's
:meth:`~repro.federated.engine.backends.ExecutionBackend.seal`, a
distributed worker and the sealed aggregator, which each hold the set in
their own order, derive the same graph.

Threat model.  The ring of a round is public, as the graph is in SecAgg+.
A client's update is therefore exposed to a server that colludes with the
client's ``k`` ring neighbours — not only, as on the complete graph, with
all ``n - 1`` other participants.  This simulation models neither the key
agreement nor the Shamir shares behind that bound; it reproduces the masks
and their cost.

Cost.  Masking expands one PRG stream of ``d`` words per neighbour: ``k``
per client, ``n * k`` per round, and the unmasking side expands the same
``n * k`` again, so a round costs ``2 * n * k`` expansions, at most
``4 * n * ceil(log2 n)`` — against ``2 * n * (n - 1)`` on the complete graph
(at ``n = 16``: 256 instead of 480).  Each stream is PCG64's raw output,
and :func:`mask_update` / :func:`unmask_update` copy their input once, into
the vector they return, then add or subtract each neighbour's stream into
its words in place: one output vector and one stream are live at a time, a
peak of ``2 * d`` words.

Dropout recovery needs no key shares in this simulation: masks are pure
functions of ``(seed, round, pair)`` and the ring of ``(seed, round,
participant set)``, so a re-dispatched task — e.g. after the distributed
backend loses a worker mid-round — re-derives the exact masks (and
therefore the exact masked bytes) the dead worker would have sent.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.federated.rng import pair_mask_rng, secagg_ring_rng


def pairwise_mask(
    seed: int, round_idx: int, client_a: int, client_b: int, dim: int
) -> np.ndarray:
    """The shared mask word vector of one client pair for one round.

    Symmetric in the pair (both endpoints derive the same vector); uniform
    over the full 64-bit word range, so a single application is a one-time
    pad on the update's bit pattern.  The words are the pair stream's raw
    PCG64 output, the same words ``integers(0, 2**64 - 1, endpoint=True,
    dtype=np.uint64)`` returns on that stream.
    """
    rng = pair_mask_rng(seed, round_idx, client_a, client_b)
    return rng.bit_generator.random_raw(int(dim))


def mask_neighbours(
    seed: int, round_idx: int, client_id: int, participants: Iterable[int]
) -> list[int]:
    """The participants ``client_id`` shares a pair mask with this round.

    Its ``k(n)`` neighbours on the round's ring (see the module docstring),
    in ascending id order.  A pure function of ``(seed, round_idx,
    client_id)`` and the participant *set*: order and duplicates in
    ``participants`` do not matter.  Raises :class:`ValueError` when
    ``client_id`` is not a participant, whose masks could never cancel.
    """
    members = sorted({int(p) for p in participants})
    client_id = int(client_id)
    if client_id not in members:
        raise ValueError(
            f"client {client_id} is not among the round's participants; "
            "only a participant's mask cancels in the sum"
        )
    n = len(members)
    k = min(n - 1, 2 * (n - 1).bit_length())
    ring = [members[i] for i in secagg_ring_rng(seed, round_idx).permutation(n)]
    position = ring.index(client_id)
    offsets = [*range(1, k // 2 + 1), *range(-(k // 2), 0)]
    if k % 2:
        offsets.append(n // 2)
    return sorted(ring[(position + offset) % n] for offset in offsets)


def _add_round_mask(
    words: np.ndarray,
    seed: int,
    round_idx: int,
    client_id: int,
    participants: Iterable[int],
    sign: int,
) -> None:
    """Add ``sign`` (``+1`` or ``-1``) times ``M_i`` into ``words`` in place.

    One pair stream is live at a time: each is folded into ``words``
    (mod 2**64) and dropped before the next neighbour's is expanded.
    """
    dim = words.shape[0]
    for other in mask_neighbours(seed, round_idx, client_id, participants):
        fold = np.add if (client_id < other) == (sign > 0) else np.subtract
        fold(words, pairwise_mask(seed, round_idx, client_id, other, dim), out=words)


def client_round_mask(
    seed: int,
    round_idx: int,
    client_id: int,
    participants: Iterable[int],
    dim: int,
) -> np.ndarray:
    """One client's aggregate mask ``M_i`` over its ring neighbours.

    ``participants`` is the round's full sampled-client set (benign *and*
    compromised — every participant must mask, or the pairwise terms
    involving the unmasked client would survive in the sum).  Summing the
    returned vectors over every participant is identically zero mod 2**64.
    The mask sites never materialise ``M_i``: they reach the same loop
    through :func:`mask_update` and :func:`unmask_update`.
    """
    total = np.zeros(int(dim), dtype=np.uint64)
    _add_round_mask(total, seed, round_idx, client_id, participants, sign=1)
    return total


def mask_update(
    update: np.ndarray,
    seed: int,
    round_idx: int,
    client_id: int,
    participants: Iterable[int],
) -> np.ndarray:
    """Mask one client's update with its aggregate round mask.

    Returns a fresh float64 vector whose words are ``bits(update) + M_i``
    (mod 2**64); the input is never written.  The result is not meaningful
    as numbers — it is ciphertext riding the float64 transport.
    """
    words = np.array(update, dtype=np.float64, order="C").view(np.uint64)
    _add_round_mask(words, seed, round_idx, client_id, participants, sign=1)
    return words.view(np.float64)


def unmask_update(
    masked: np.ndarray,
    seed: int,
    round_idx: int,
    client_id: int,
    participants: Iterable[int],
) -> np.ndarray:
    """Remove one client's aggregate round mask (bit-exact inverse).

    Returns a fresh float64 vector; ``masked`` is never written, so a
    retained update keeps its ciphertext.
    """
    words = np.array(masked, dtype=np.float64, order="C").view(np.uint64)
    _add_round_mask(words, seed, round_idx, client_id, participants, sign=-1)
    return words.view(np.float64)

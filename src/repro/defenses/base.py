"""Aggregator interface shared by every robust-aggregation defense.

Two equivalent protocols are exposed:

* the **matrix protocol** — ``aggregate(updates, global_params, ctx)`` over
  a fully materialised ``(num_sampled_clients, param_dim)`` array; it holds
  the defense math and serves direct callers;
* the **fold protocol** the server runs every round — ``begin_round(ctx) →
  state``, ``accumulate(state, update)`` per arriving
  :class:`~repro.federated.engine.plan.ClientUpdate`, and
  ``finalize(state, global_params, ctx) → aggregated`` once the round is
  complete.  The base class provides an automatic buffering fallback (updates
  are collected and handed to :meth:`Aggregator.aggregate` at finalize), so
  every registered defense supports the fold unchanged; defenses whose math
  is a per-update fold (mean, weighted mean, norm bounding, DP, SignSGD)
  keep O(param_dim) state instead by overriding :meth:`Aggregator._begin` /
  :meth:`Aggregator._fold` / :meth:`Aggregator._finalize`, and compute any
  per-update factor (the clipping scale, the example weight) inside
  ``_fold``.  The fold runs on the caller's thread, one update at a time.

Determinism: floating-point accumulation is order-sensitive, so
:meth:`Aggregator.accumulate` never folds an update the moment it arrives.
It parks arrivals in ``state.pending`` and folds them *in sampled-slot
order* (slot 0, then 1, …), releasing each as its predecessor is folded.
Sequential slot-order folding is bit-identical to NumPy's ``axis=0``
reduction over the stacked matrix, so the fold and matrix protocols
produce the same result to the last ulp regardless of completion order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.registry import DEFENSES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.federated.engine.plan import ClientUpdate


@dataclass
class AggregationContext:
    """Round-level information handed to an aggregator.

    Replaces the old positional ``rng`` argument: defenses that need
    randomness draw it from ``ctx.rng`` (the server's own stream, so noise
    consumption stays deterministic per run seed), and defenses that want to
    reason about the round (who was sampled, which round it is) now can.
    ``round_idx`` is ``-1`` when the caller has no round information (a
    direct ``AggregationContext(rng=rng)``).

    ``telemetry`` is the run's :class:`~repro.telemetry.core.RunTelemetry`
    bundle when tracing is enabled (``None`` otherwise) — the path on which
    aggregation-side instrumentation points (the secagg unmask) reach the
    tracer.  Strictly observational: nothing here may read it to change a
    numeric result.
    """

    rng: np.random.Generator
    round_idx: int = -1
    sampled_clients: tuple[int, ...] = ()
    extras: dict = field(default_factory=dict)
    telemetry: object | None = None


@dataclass
class AggregationState:
    """Mutable per-round state of one fold-protocol aggregation.

    ``data`` is the defense-specific accumulator (a list of updates for the
    buffering fallback, an O(param_dim) running vector — plus the total
    weight, for the weighted mean — for the streaming defenses).
    ``pending`` parks updates that arrived ahead of their sampled-slot
    predecessors; ``cursor`` is the next slot to fold and ``count`` the
    number of updates accumulated so far (folded + pending).
    """

    ctx: AggregationContext
    data: Any = None
    pending: dict = field(default_factory=dict)
    cursor: int = 0
    count: int = 0


class Aggregator:
    """Turns the round's client updates into a single aggregated update.

    ``updates`` is a ``(num_sampled_clients, param_dim)`` array; the return
    value is the length-``param_dim`` update the server adds to the global
    model (scaled by the server learning rate).  ``global_params`` and the
    :class:`AggregationContext` are available for defenses that need them
    (e.g. CRFL smoothing noise, DP noise, FLARE latent-space probes).

    The fold protocol (:meth:`begin_round` / :meth:`accumulate` /
    :meth:`finalize`) works for every defense: the default implementation
    buffers updates and delegates to :meth:`aggregate` at finalize time.
    O(param_dim) defenses override :meth:`_begin` / :meth:`_fold` /
    :meth:`_finalize` — never the protocol methods themselves — so the
    deterministic slot-order fold rule lives in exactly one place.  A
    defense that overrides ``_fold`` streams (``repro list defenses`` says
    ``streaming``); one that does not buffers.  A subclass of a streaming
    defense that overrides ``aggregate`` must override the three fold
    methods too, or the server keeps folding with the parent's math.

    Buffered-async rounds additionally route carried updates through
    :meth:`discount_stale` before folding, so defenses can choose how a
    stale update is down-weighted.
    """

    name = "aggregator"

    #: True when the defense's math inspects individual updates *across*
    #: clients — pairwise distances (Krum), coordinate statistics (median,
    #: trimmed mean), anomaly scores (detector, FLARE), per-client sign
    #: votes weighed against the cohort (RLR) — and therefore cannot run
    #: under secure aggregation, where the server only sees the masked sum.
    #: Per-update-*local* transforms (norm clipping, per-update DP noise
    #: prep, taking signs) do not count: a real deployment pushes that work
    #: to the client before masking, so clip/sign-then-sum defenses stay
    #: server-blind.  ``repro list defenses`` surfaces the complement of
    #: this flag as the ``server-blind`` capability.
    requires_plaintext_updates = False

    # -- matrix protocol ---------------------------------------------------

    def aggregate(
        self,
        updates: np.ndarray,
        global_params: np.ndarray,
        ctx: AggregationContext,
    ) -> np.ndarray:
        raise NotImplementedError

    def __call__(
        self,
        updates: np.ndarray,
        global_params: np.ndarray,
        ctx: AggregationContext,
    ) -> np.ndarray:
        if updates.ndim != 2:
            raise ValueError("updates must be a (clients, dim) matrix")
        if updates.shape[0] == 0:
            raise ValueError("cannot aggregate an empty round")
        if isinstance(ctx, np.random.Generator):
            # The PR 1-era bare-generator call path warned for 8 PRs and is
            # gone; fail loudly with the migration in the message.
            raise TypeError(
                "calling an Aggregator with a bare np.random.Generator is no "
                "longer supported; wrap it with AggregationContext(rng=rng)"
            )
        return self.aggregate(updates, global_params, ctx)

    # -- fold protocol -----------------------------------------------------

    def begin_round(self, ctx: AggregationContext) -> AggregationState:
        """Open a round; the returned state is threaded through accumulate."""
        return AggregationState(ctx=ctx, data=self._begin(ctx))

    def accumulate(self, state: AggregationState, update: "ClientUpdate") -> None:
        """Fold one client update into the round state.

        Updates may arrive in any completion order; they are folded in
        canonical sampled-slot order (0, 1, 2, …) so the result is
        bit-identical to the matrix protocol regardless of arrival order.
        An update whose predecessors have not arrived yet is parked in
        ``state.pending`` and folded as soon as the gap closes.
        """
        slot = update.slot
        if slot < state.cursor or slot in state.pending:
            raise ValueError(f"duplicate update for sampled slot {slot}")
        state.pending[slot] = update
        state.count += 1
        while state.cursor in state.pending:
            self._fold(state, state.pending.pop(state.cursor))
            state.cursor += 1

    def finalize(
        self,
        state: AggregationState,
        global_params: np.ndarray,
        ctx: AggregationContext | None = None,
    ) -> np.ndarray:
        """Close the round and return the aggregated update.

        Slots must cover ``0..n-1``: leading/interior gaps are detected from
        the parked arrivals, and when the context names the round's sampled
        clients (the server always does) the update count is checked against
        it, so a round that silently lost its highest slots fails loudly too.
        """
        ctx = ctx if ctx is not None else state.ctx
        if state.count == 0:
            raise ValueError("cannot aggregate an empty round")
        if state.pending:
            folded = set(range(state.cursor))
            missing = sorted(set(range(max(state.pending))) - state.pending.keys() - folded)
            raise ValueError(
                f"cannot finalize with unfolded updates: sampled slots "
                f"{missing} never arrived (slots must cover 0..n-1)"
            )
        expected = len(ctx.sampled_clients)
        if expected and state.count != expected:
            raise ValueError(
                f"round sampled {expected} clients (ctx.sampled_clients) but "
                f"only {state.count} updates were accumulated"
            )
        return self._finalize(state, global_params, ctx)

    # -- staleness (buffered-async aggregation) ----------------------------

    def discount_stale(
        self, update: "ClientUpdate", staleness: int, discount: float
    ) -> "ClientUpdate":
        """Staleness-weighted fold entry point for buffered-async rounds.

        Called once per carried update, immediately before it enters
        :meth:`accumulate` in its arrival round.  ``staleness`` is the
        number of rounds the update sat in the carry buffer (≥ 1);
        ``discount`` the server's configured per-round factor.  The default
        scales the update *vector* by ``discount ** staleness`` (FedBuff-style
        s(τ) weighting); defenses whose math weighs updates explicitly (the
        weighted mean, example-count schemes) may override to discount the
        aggregation weight instead of the vector.  Must return a new
        ``ClientUpdate`` — the buffered original is the server's record of
        what arrived.
        """
        if staleness <= 0:
            return update
        from dataclasses import replace

        factor = float(discount) ** int(staleness)
        return replace(
            update,
            update=update.update * factor,
            metadata={**update.metadata, "staleness": int(staleness)},
        )

    # -- fold extension points (override these, not the protocol) ----------

    def _begin(self, ctx: AggregationContext):
        """Fresh defense-specific accumulator (fallback: a buffer list)."""
        return []

    def _fold(self, state: AggregationState, update: "ClientUpdate") -> None:
        """Fold one update, called in slot order (fallback: buffer it)."""
        state.data.append(update)

    def _finalize(
        self,
        state: AggregationState,
        global_params: np.ndarray,
        ctx: AggregationContext,
    ) -> np.ndarray:
        """Produce the aggregated update (fallback: stack + delegate)."""
        stacked = np.stack([u.update for u in state.data])
        return self.aggregate(stacked, global_params, ctx)


@DEFENSES.register("mean")
class MeanAggregator(Aggregator):
    """Plain FedAvg mean of client updates (no defense)."""

    name = "mean"

    def aggregate(
        self,
        updates: np.ndarray,
        global_params: np.ndarray,
        ctx: AggregationContext,
    ) -> np.ndarray:
        return updates.mean(axis=0)

    def _begin(self, ctx):
        return None

    def _fold(self, state, update):
        if state.data is None:
            state.data = np.array(update.update, dtype=np.float64)
        else:
            state.data += update.update

    def _finalize(self, state, global_params, ctx):
        return state.data / state.count


def clip_scale(update: np.ndarray, max_norm: float) -> np.ndarray:
    """Shape-``(1,)`` factor scaling ``update`` to at most ``max_norm`` (l2).

    Shared by the norm-bounding and DP folds.  The norm is computed through
    the same ``axis=1`` reduction the matrix implementations use on the
    stacked array — ``np.linalg.norm(v)`` on a 1-D vector takes a BLAS path
    with different rounding, which would break the bit-identity guarantee
    between the fold and matrix protocols.
    """
    norm = np.linalg.norm(update[None, :], axis=1)
    return np.minimum(1.0, max_norm / np.clip(norm, 1e-12, None))


def clip_to_norm(update: np.ndarray, max_norm: float) -> np.ndarray:
    """Scale ``update`` to at most ``max_norm`` (l2), matrix-path-identical."""
    return update * clip_scale(update, max_norm)


def fold_scaled_sum(acc, update: np.ndarray, scale) -> np.ndarray:
    """Fold ``update * scale`` into a running sum (``acc`` is ``None`` at first).

    The shared :meth:`Aggregator._fold` body of the scale-then-average
    defenses (norm bounding, DP, weighted mean); their finalize
    steps differ only in the noise/normalisation term.
    """
    scaled = update * scale
    if acc is None:
        return scaled.astype(np.float64)
    acc += scaled
    return acc

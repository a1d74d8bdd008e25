"""Sharded aggregation: fan the hot fold loop out over workers.

Shardable defenses fold each round in O(param_dim) state; this module
splits that state across *shards* — contiguous slices of the flat
parameter vector — so the per-update fold scales with workers instead of
running on one core.

:func:`plan_shards` is the shard planner: it cuts ``param_dim`` into at
most ``num_shards`` contiguous, nearly-equal slices.  :class:`
ShardedAggregator` wraps any *shardable* defense (``mean``,
``weighted_mean``, ``norm_bound``, ``dp``, ``signsgd`` — see
:class:`~repro.defenses.base.Aggregator.shardable`) and runs one worker
thread per shard: the coordinator performs the whole-vector per-update
precompute (:meth:`~repro.defenses.base.Aggregator.prepare_update`, e.g.
the clipping norm) and the slot-order bookkeeping, then hands ``(vector,
aux)`` to every shard's queue; each worker folds its own slice in the same
slot order.  NumPy releases the GIL inside its ufunc inner loops, so the
per-shard elementwise folds genuinely overlap on multi-core machines.

Determinism: a shardable fold is elementwise in the update given its
precomputed aux, so folding ``update[shard]`` per shard in slot order
produces, element for element, the exact floating-point operation sequence
of the single fold — ``shards=N`` is bit-identical to ``shards=1`` on every
backend and under any completion order.  At finalize the shard accumulators
are concatenated back into one vector and handed to the defense's
:meth:`~repro.defenses.base.Aggregator.finalize_vector`, so noise draws and
normalisation also match the unsharded path exactly.

Non-shardable defenses (krum, median, …) are simply not wrapped
(:func:`maybe_shard` returns them unchanged) and keep buffering the round.
The sharded fold is also the stated prerequisite for the multi-host
backend: the coordinator/worker split here is the same protocol a
distributed parameter-shard server would speak.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.defenses.base import AggregationContext, AggregationState, Aggregator
from repro.federated.engine.backends import maybe_span

#: Sentinel closing a shard worker's queue for the round.
_DONE = object()

#: Per-shard bound on updates in flight.  Folds are far faster than client
#: training, but a burst of completions (many distributed workers
#: finishing at once) must not re-materialise the whole round in the shard
#: queues — that would restore the O(clients × param_dim) peak memory the
#: slice fold exists to avoid.  A blocking put on a bounded queue gives
#: the coordinator natural backpressure at a few updates in flight.
_QUEUE_DEPTH = 4


def plan_shards(param_dim: int, num_shards: int) -> tuple[slice, ...]:
    """Split a flat parameter vector into contiguous, nearly-equal slices.

    Returns at most ``num_shards`` slices (never more than ``param_dim`` —
    empty shards are pointless), covering ``0..param_dim`` exactly, with
    sizes differing by at most one and larger shards first.
    """
    if param_dim <= 0:
        raise ValueError("param_dim must be positive")
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    count = min(num_shards, param_dim)
    base, extra = divmod(param_dim, count)
    slices = []
    start = 0
    for index in range(count):
        stop = start + base + (1 if index < extra else 0)
        slices.append(slice(start, stop))
        start = stop
    return tuple(slices)


@dataclass
class _ShardRound:
    """Live worker state of one sharded round.

    Owned by the :class:`~repro.defenses.base.AggregationState` it belongs
    to (``state.data``), not by the aggregator, so concurrent in-flight
    rounds never interfere.  ``results``/``errors`` are written by each
    worker exactly once, at its sentinel, before the coordinator joins it.
    """

    slices: tuple[slice, ...]
    queues: list[queue.Queue]
    threads: list[threading.Thread]
    results: list
    errors: list
    #: The run's RunTelemetry (or None): workers report fold busy-time to
    #: its ``shard.fold_busy_s`` histogram at their sentinel.
    telemetry: object | None = None


class ShardedAggregator(Aggregator):
    """Wrap a shardable defense so its fold runs on shard workers.

    Implements the fold protocol by delegating the defense math to the
    wrapped aggregator's slice-fold extension points: the inherited
    slot-order machinery still runs in the coordinator (so out-of-order
    arrivals are handled exactly as before), while the elementwise slice
    folds execute concurrently, one worker thread per shard per round.
    Spawning the handful of threads per round costs microseconds — noise
    next to a federated round — and keeps every round's worker state on its
    own :class:`~repro.defenses.base.AggregationState`, so concurrent
    in-flight rounds on one aggregator behave exactly like any other
    aggregator's concurrent states.  :meth:`close` (the server calls it via
    ``FederatedServer.close``) releases the workers of any round that was
    abandoned mid-flight instead of finalized.
    """

    shardable = False  # a wrapper is not itself wrappable

    def __init__(self, inner: Aggregator, num_shards: int) -> None:
        if isinstance(inner, ShardedAggregator):
            raise ValueError("cannot shard an already-sharded aggregator")
        if not getattr(inner, "shardable", False):
            raise ValueError(
                f"defense {getattr(inner, 'name', type(inner).__name__)!r} is "
                "not shardable; it keeps the single-fold path"
            )
        if num_shards < 1:
            raise ValueError("num_shards must be positive")
        self.inner = inner
        self.num_shards = num_shards
        self.name = f"sharded[{inner.name}x{num_shards}]"
        self._live_rounds: list[_ShardRound] = []

    # -- fold protocol ------------------------------------------------------

    def _begin(self, ctx: AggregationContext):
        # The shard plan needs param_dim, which only the first update
        # reveals; the worker round is opened lazily in _fold.
        return None

    def _fold(self, state: AggregationState, update) -> None:
        aux = self.inner.prepare_update(update)
        state.aux = self.inner.fold_aux(state.aux, aux)
        if state.data is None:
            state.data = self._open_round(
                update.update.shape[0], state.ctx.telemetry
            )
        vector = update.update
        for shard_queue in state.data.queues:
            shard_queue.put((vector, aux))

    def _finalize(self, state: AggregationState, global_params, ctx):
        with maybe_span(
            ctx.telemetry, "shard_fold",
            round=ctx.round_idx, shards=len(state.data.slices),
        ):
            folded = self._drain(state.data)
        return self.inner.finalize_vector(folded, state, global_params, ctx)

    def abort(self, state: AggregationState) -> None:
        """Release the round's shard workers without finalizing the fold."""
        if state.data is not None:
            self._stop_round(state.data)

    # -- worker management --------------------------------------------------

    def _open_round(
        self, param_dim: int, telemetry: object | None = None
    ) -> _ShardRound:
        slices = plan_shards(param_dim, self.num_shards)
        count = len(slices)
        round_ = _ShardRound(
            slices=slices,
            queues=[queue.Queue(maxsize=_QUEUE_DEPTH) for _ in range(count)],
            threads=[],
            results=[None] * count,
            errors=[None] * count,
            telemetry=telemetry,
        )
        for index in range(count):
            # Daemon so a round no one finalizes or closes (a crashed
            # caller) cannot block interpreter exit.
            thread = threading.Thread(
                target=self._shard_worker,
                args=(round_, index),
                name=f"agg-shard-{index}",
                daemon=True,
            )
            round_.threads.append(thread)
            thread.start()
        self._live_rounds.append(round_)
        return round_

    def _shard_worker(self, round_: _ShardRound, index: int) -> None:
        """Fold this shard's slice of every update, in arrival (= slot) order.

        The loop always drains to its sentinel, even after a fold raised:
        the queues are bounded, so a worker that stopped consuming would
        leave the coordinator blocked forever in a backpressure ``put``.
        The first fold error is recorded and re-raised at finalize.
        """
        fold_slice = self.inner.fold_slice
        shard_queue = round_.queues[index]
        shard_slice = round_.slices[index]
        telemetry = round_.telemetry
        acc = None
        busy = 0.0
        while True:
            item = shard_queue.get()
            if item is _DONE:
                round_.results[index] = acc
                if telemetry is not None:
                    telemetry.metrics.histogram("shard.fold_busy_s").observe(busy)
                return
            if round_.errors[index] is None:
                vector, aux = item
                try:
                    if telemetry is not None:
                        fold_start = time.monotonic()
                        acc = fold_slice(acc, vector[shard_slice], aux)
                        busy += time.monotonic() - fold_start
                    else:
                        acc = fold_slice(acc, vector[shard_slice], aux)
                except BaseException as exc:  # noqa: BLE001 - rethrown at drain
                    round_.errors[index] = exc

    def _stop_round(self, round_: _ShardRound) -> None:
        """Send sentinels and wait for the round's workers to exit."""
        self._live_rounds = [r for r in self._live_rounds if r is not round_]
        for shard_queue in round_.queues:
            shard_queue.put(_DONE)
        for thread in round_.threads:
            thread.join()

    def _drain(self, round_: _ShardRound) -> np.ndarray:
        """Stop the round's workers and concatenate their shard folds."""
        self._stop_round(round_)
        for error in round_.errors:
            if error is not None:
                raise error
        return np.concatenate(round_.results)

    def close(self) -> None:
        """Release the workers of any still-open rounds (idempotent)."""
        for round_ in list(self._live_rounds):
            self._stop_round(round_)


def maybe_shard(aggregator: Aggregator, num_shards: int) -> Aggregator:
    """Wrap ``aggregator`` for sharded folding when it supports it.

    ``num_shards <= 1`` or a non-shardable defense returns the aggregator
    unchanged — the documented fallback to the single-fold (or buffering)
    path, bit-identical to the sharded one.
    """
    if num_shards <= 1 or not getattr(aggregator, "shardable", False):
        return aggregator
    return ShardedAggregator(aggregator, num_shards)

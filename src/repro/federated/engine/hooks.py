"""Typed round-pipeline hooks.

Instead of hard-wiring evaluation (or any other instrumentation) into the
server's round loop, the server dispatches five typed events per round:

``on_round_start``
    after sampling, before any client work — receives the :class:`RoundPlan`.
``on_update``
    once per folded :class:`~repro.federated.engine.plan.ClientUpdate`, as it
    arrives, between ``on_round_start`` and ``on_updates_collected``.
    Updates arrive in *completion* order (out-of-order under parallel
    backends).
``on_updates_collected``
    after every client update for the round is folded, before aggregation
    is finalized.  ``updates`` is the round's :class:`ClientUpdate` list in
    fold-slot order — and it is only materialised if some hook (or the
    training algorithm) actually consumes it, so rounds of a streaming
    defense otherwise keep O(param_dim) memory.
``on_aggregated``
    after the aggregated update was applied to the global model.
``on_round_end``
    after the :class:`~repro.federated.history.RoundRecord` was created and
    appended; hooks may enrich the record in place (the built-in
    :class:`EvaluationHook` fills in accuracy metrics this way).

Hooks run in registration order; exceptions propagate (a broken hook should
fail the run loudly, not corrupt a result silently).  When a hook raises
mid-round — notably in ``on_update``, while an aggregation fold is in
flight — the half-folded round state is dropped with the exception, and
the next round begins a fresh one (pinned in
``tests/federated/test_hooks.py``).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

import numpy as np

from repro.federated.engine.backends import maybe_span
from repro.federated.engine.plan import ClientUpdate, RoundPlan
from repro.federated.history import RoundRecord
from repro.registry import is_count


class RoundHook:
    """Base class for round-pipeline observers; override any subset."""

    def on_round_start(self, server, plan: RoundPlan) -> None:
        """Called after sampling, before client execution."""

    def on_update(self, server, plan: RoundPlan, update: ClientUpdate) -> None:
        """Called once per client update as it becomes available."""

    def on_updates_collected(
        self, server, plan: RoundPlan, updates: list[ClientUpdate]
    ) -> None:
        """Called with the round's folded updates, in fold-slot order."""

    def on_aggregated(self, server, plan: RoundPlan, aggregated: np.ndarray) -> None:
        """Called after the aggregated update was applied to the global model."""

    def on_round_end(self, server, plan: RoundPlan, record: RoundRecord) -> None:
        """Called with the round's record; hooks may enrich it in place."""

    # The server asks before retaining the full update list so that rounds
    # don't pay for observers nobody registered.  Subclasses are detected
    # automatically; only adapter-style hooks (CallbackHook) need to
    # override this.

    def wants_collected_results(self) -> bool:
        return type(self).on_updates_collected is not RoundHook.on_updates_collected


class HookPipeline:
    """Ordered collection of :class:`RoundHook` instances."""

    def __init__(self, hooks: Iterable[RoundHook] = ()) -> None:
        self._hooks: list[RoundHook] = list(hooks)

    def add(self, hook: RoundHook) -> RoundHook:
        self._hooks.append(hook)
        return hook

    def remove(self, hook: RoundHook) -> None:
        self._hooks.remove(hook)

    def __iter__(self) -> Iterator[RoundHook]:
        return iter(self._hooks)

    def __len__(self) -> int:
        return len(self._hooks)

    def wants_collected_results(self) -> bool:
        return any(hook.wants_collected_results() for hook in self._hooks)

    def round_start(self, server, plan: RoundPlan) -> None:
        for hook in self._hooks:
            hook.on_round_start(server, plan)

    def update(self, server, plan: RoundPlan, update: ClientUpdate) -> None:
        for hook in self._hooks:
            hook.on_update(server, plan, update)

    def updates_collected(
        self, server, plan: RoundPlan, updates: list[ClientUpdate]
    ) -> None:
        for hook in self._hooks:
            hook.on_updates_collected(server, plan, updates)

    def aggregated(self, server, plan: RoundPlan, aggregated: np.ndarray) -> None:
        for hook in self._hooks:
            hook.on_aggregated(server, plan, aggregated)

    def round_end(self, server, plan: RoundPlan, record: RoundRecord) -> None:
        for hook in self._hooks:
            hook.on_round_end(server, plan, record)


class EvaluationHook(RoundHook):
    """Periodic evaluation of the global model, recorded on the round record.

    ``eval_fn(global_params, round_idx)`` returns a metrics dict; the keys
    ``benign_accuracy`` and ``attack_success_rate`` are promoted to the
    record's typed fields and the full dict lands in ``record.extras``.
    Evaluation runs after every ``every``-th round.
    """

    def __init__(
        self,
        eval_fn: Callable[[np.ndarray, int], dict],
        every: int = 1,
    ) -> None:
        if not is_count(every):
            raise ValueError("every must be a positive integer")
        self.eval_fn = eval_fn
        self.every = every

    def on_round_end(self, server, plan: RoundPlan, record: RoundRecord) -> None:
        if (record.round_idx + 1) % self.every:
            return
        with maybe_span(
            getattr(server, "telemetry", None), "evaluate", round=record.round_idx
        ):
            metrics = self.eval_fn(server.global_params, record.round_idx)
        record.benign_accuracy = metrics.get("benign_accuracy")
        record.attack_success_rate = metrics.get("attack_success_rate")
        record.extras.update(metrics)


class CallbackHook(RoundHook):
    """Adapter turning plain callables into a hook (handy for tests/scripts)."""

    def __init__(
        self,
        on_round_start: Callable | None = None,
        on_update: Callable | None = None,
        on_updates_collected: Callable | None = None,
        on_aggregated: Callable | None = None,
        on_round_end: Callable | None = None,
    ) -> None:
        self._round_start = on_round_start
        self._update = on_update
        self._updates_collected = on_updates_collected
        self._aggregated = on_aggregated
        self._round_end = on_round_end

    def wants_collected_results(self) -> bool:
        return self._updates_collected is not None

    def on_round_start(self, server, plan):
        if self._round_start is not None:
            self._round_start(server, plan)

    def on_update(self, server, plan, update):
        if self._update is not None:
            self._update(server, plan, update)

    def on_updates_collected(self, server, plan, updates):
        if self._updates_collected is not None:
            self._updates_collected(server, plan, updates)

    def on_aggregated(self, server, plan, aggregated):
        if self._aggregated is not None:
            self._aggregated(server, plan, aggregated)

    def on_round_end(self, server, plan, record):
        if self._round_end is not None:
            self._round_end(server, plan, record)

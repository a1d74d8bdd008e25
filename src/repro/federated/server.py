"""Federated server: the synchronous round loop of Algorithm 1.

Each round the server samples clients, builds a :class:`RoundPlan`, hands it
to the configured :class:`~repro.federated.engine.backends.ExecutionBackend`
(serial by default), folds each client update into the configured aggregator
(plain mean or a robust defense) as it arrives, and applies the aggregated
update with the server learning rate.  Instrumentation — evaluation,
logging, custom probes — is attached through the typed hook pipeline
(:mod:`repro.federated.engine.hooks`) rather than baked into the loop.
Per-round statistics are recorded in a :class:`TrainingHistory`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from repro.defenses.base import AggregationContext, Aggregator, MeanAggregator
from repro.federated.algorithms.base import FederatedAlgorithm, consumes_updates
from repro.federated.client import LocalTrainingConfig
from repro.federated.engine.backends import (
    EngineContext,
    ExecutionBackend,
    make_backend,
    maybe_span,
)
from repro.federated.engine.hooks import HookPipeline, RoundHook
from repro.federated.engine.plan import ClientUpdate, build_round_plan
from repro.federated.history import RoundRecord, TrainingHistory
from repro.federated.population.base import ClientPopulation
from repro.federated.population.participation import (
    ParticipationContext,
    ParticipationModel,
)
from repro.federated.rng import personalization_seed
from repro.nn.serialization import flatten_params
from repro.registry import PARTICIPATION, is_count, parse_spec


#: Aggregation-mode spec kwargs accepted by ``buffered_async``.
_BUFFERED_ASYNC_KWARGS = {"buffer_size", "staleness_discount"}


@dataclass
class ServerConfig:
    """Hyper-parameters of the federated training run.

    ``participation`` selects the round-sampling model as a registry spec
    (``"uniform:sample_rate=0.1"``, ``("tiered", {...})`` — see
    ``repro list participation``).  Leaving it unset means ``uniform`` with
    the model's defaults (q = 0.2, floor 4).

    ``aggregation_mode`` is ``"sync"`` (the paper's Algorithm 1: every
    sampled update folds into its own round) or a ``"buffered_async"`` spec
    (FedBuff-style): each round folds the carried updates from the previous
    round plus the first ``buffer_size`` arrivals — arrival order given by
    the participation model's latency draws — and carries the stragglers
    into the next round, down-weighted by ``staleness_discount ** staleness``
    (:meth:`~repro.defenses.base.Aggregator.discount_stale`).  Both modes
    run the server's one fold loop and are bit-identical per seed on every
    backend; buffered rounds reject secure aggregation (pairwise masks only
    cancel within one round's full cohort).

    ``secure_aggregation`` runs the round under pairwise additive masking
    (:mod:`repro.federated.secagg`): every update leaving the execution
    engine is masked, and the aggregator is wrapped in the sealed
    :class:`~repro.federated.secagg.aggregator.SecureAggregator` layer, so
    the server only observes masked bytes or the finished fold.  Histories
    are bit-identical with masking on or off for server-blind defenses;
    defenses that inspect individual updates raise
    :class:`~repro.federated.secagg.aggregator.PlaintextRequiredError` at
    construction.

    ``telemetry`` turns on out-of-band run telemetry
    (:mod:`repro.telemetry`): span tracing of every round phase, an engine
    metrics registry, and — on the distributed backend — worker-side
    profiling merged over the wire.  Strictly observational: telemetry uses
    only the monotonic clock, draws no RNG, and never touches the
    :class:`TrainingHistory`, so histories with telemetry on are
    bit-identical to telemetry off, per seed, on every backend.
    """

    rounds: int = 20
    server_lr: float = 1.0
    seed: int = 0
    local: LocalTrainingConfig = field(default_factory=LocalTrainingConfig)
    secure_aggregation: bool = False
    participation: object | None = None
    aggregation_mode: object = "sync"
    telemetry: bool = False

    def __post_init__(self) -> None:
        if not is_count(self.rounds):
            raise ValueError("rounds must be a positive integer")
        # Building the model runs its constructor's argument checks, so a
        # bad spec fails here rather than when the server is built.
        PARTICIPATION.create(self.participation_spec())
        if self.server_lr <= 0:
            raise ValueError("server_lr must be positive")
        if not isinstance(self.telemetry, bool):
            raise ValueError("telemetry must be a bool")
        mode, mode_kwargs = self.aggregation_spec()
        if mode not in ("sync", "buffered_async"):
            raise ValueError(
                f"aggregation_mode must be 'sync' or 'buffered_async', got {mode!r}"
            )
        unknown = sorted(set(mode_kwargs) - _BUFFERED_ASYNC_KWARGS)
        if mode == "sync" and mode_kwargs:
            raise ValueError("aggregation_mode 'sync' takes no arguments")
        if unknown:
            raise ValueError(
                f"unknown buffered_async argument(s) {unknown}; "
                f"accepted: {sorted(_BUFFERED_ASYNC_KWARGS)}"
            )
        buffer_size = mode_kwargs.get("buffer_size")
        if buffer_size is not None and not is_count(buffer_size):
            raise ValueError("buffer_size must be a positive integer")
        discount = mode_kwargs.get("staleness_discount", 0.5)
        if not 0.0 < float(discount) <= 1.0:
            raise ValueError("staleness_discount must be in (0, 1]")
        if mode == "buffered_async" and self.secure_aggregation:
            raise ValueError(
                "buffered_async is incompatible with secure aggregation: "
                "pairwise masks only cancel within one round's full "
                "cohort, and carried updates fold in a later round"
            )

    def participation_spec(self) -> tuple[str, dict]:
        """Normalised ``(name, kwargs)`` participation spec of this config.

        Unset means ``uniform`` with the model's own defaults.
        """
        if self.participation is None:
            return ("uniform", {})
        return parse_spec(self.participation)

    def aggregation_spec(self) -> tuple[str, dict]:
        """Normalised ``(mode, kwargs)`` aggregation-mode spec."""
        return parse_spec(self.aggregation_mode)


def secure_aggregation_conflict(algorithm: str) -> str:
    """Why secure aggregation cannot run ``algorithm``, one that :func:`consumes_updates`."""
    return (
        f"algorithm {algorithm} consumes per-client updates in post_aggregate, "
        "which secure aggregation withholds from the server; disable "
        "secure_aggregation or use an algorithm that only reads the aggregate "
        "(e.g. fedavg)"
    )


class FederatedServer:
    """Runs federated training, optionally under attack and/or defense."""

    def __init__(
        self,
        dataset: ClientPopulation,
        model_factory: Callable[[], object],
        algorithm: FederatedAlgorithm,
        config: ServerConfig,
        aggregator: Aggregator | None = None,
        attack=None,
        compromised_ids: list[int] | None = None,
        backend: ExecutionBackend | str | None = None,
        hooks: Sequence[RoundHook] | None = None,
        participation: ParticipationModel | None = None,
    ) -> None:
        self.dataset = dataset
        self.model_factory = model_factory
        self.algorithm = algorithm
        self.config = config
        # The config flag decides whether the run allocates telemetry.
        # Imported lazily so telemetry-off runs never pay the telemetry
        # package import.
        self.telemetry = None
        if config.telemetry:
            from repro.telemetry import RunTelemetry

            self.telemetry = RunTelemetry()
        # The participation model owns round sampling; an instance can be
        # injected directly (tests, custom traces), otherwise it is built
        # from the config's spec.
        self.participation = (
            participation
            if participation is not None
            else PARTICIPATION.create(config.participation_spec())
        )
        mode, mode_kwargs = config.aggregation_spec()
        self._buffered_async = mode == "buffered_async"
        self._buffer_size: int | None = mode_kwargs.get("buffer_size")
        self._staleness_discount = float(mode_kwargs.get("staleness_discount", 0.5))
        #: Updates that missed their round's buffer, folding next round.
        self._carry: list[ClientUpdate] = []
        self.aggregator = aggregator or MeanAggregator()
        if config.secure_aggregation:
            # Imported lazily to keep the server importable without the
            # secagg package in the hot path of plaintext runs.
            from repro.federated.secagg import SecureAggregator

            if consumes_updates(self.algorithm):
                raise ValueError(secure_aggregation_conflict(type(self.algorithm).__name__))
            # Raises PlaintextRequiredError for an update-inspecting defense.
            self.aggregator = SecureAggregator(self.aggregator, seed=config.seed)
        self.attack = attack
        self.compromised_ids = set(compromised_ids or [])
        if self.attack is not None and not self.compromised_ids:
            raise ValueError("an attack requires at least one compromised client")
        self._rng = np.random.default_rng(config.seed)
        # Driver-side scratch model for personalisation/evaluation helpers;
        # parameters are overwritten on each use.  Also the source of the
        # initial global parameters (flatten_params copies), saving a
        # throwaway model allocation.
        self._worker_model = model_factory()
        self.global_params = flatten_params(self._worker_model)
        self.algorithm.init_state(dataset.num_clients, self.global_params.shape[0])
        if hasattr(self.algorithm, "set_label_distributions"):
            # label_distributions() is the lazy-population-safe accessor
            # (metadata only, no client data materialisation).
            self.algorithm.set_label_distributions(dataset.label_distributions())
        self.history = TrainingHistory()
        self._closed = False

        self.backend = backend if isinstance(backend, ExecutionBackend) else make_backend(
            backend or "serial"
        )
        self.backend.bind(
            EngineContext(
                dataset=dataset,
                model_factory=model_factory,
                algorithm=algorithm,
                local_config=config.local,
                attack=attack,
                secagg_seed=config.seed if config.secure_aggregation else None,
                telemetry=self.telemetry,
            )
        )
        # Hooks run in the order given; pass an EvaluationHook first so later
        # hooks observe round records with metrics already filled in.
        self.hooks = HookPipeline()
        for hook in hooks or ():
            self.hooks.add(hook)
        if self.telemetry is not None:
            from repro.telemetry import TelemetryHook

            # Registered last so it snapshots metrics after user hooks (which
            # may enrich the record) have run.  It does not consume the
            # collected updates, so the server never retains them for it.
            self.hooks.add(TelemetryHook(self.telemetry))

    def add_hook(self, hook: RoundHook) -> RoundHook:
        """Register a round hook; returns it for chaining."""
        return self.hooks.add(hook)

    def run(self, rounds: int | None = None) -> TrainingHistory:
        """Execute the configured number of federated rounds."""
        total = rounds if rounds is not None else self.config.rounds
        for _ in range(total):
            self.run_round()
        return self.history

    def _collect(self, plan):
        """Fold the round's updates into the aggregator as they arrive.

        A sync round folds every sampled update, in plan slot order.  A
        buffered-async round ranks the plan by ``(latency, slot)`` over the
        plan's deterministic latency draws (all-zero when the participation
        model has no latency model) and folds the previous round's carried
        updates — each passed through
        :meth:`~repro.defenses.base.Aggregator.discount_stale` — followed by
        its first ``buffer_size`` arrivals; the rest are carried.  A sync
        round is the case with no carry and every update on time, except
        that it never ranks by latency, so sync histories do not change when
        a participation model draws latencies.

        Fold slots are assigned in that order, and the aggregator folds in
        fold-slot order whatever order updates arrive in (see
        :meth:`~repro.defenses.base.Aggregator.accumulate`), so the result
        is bit-identical across execution backends.  Late arrivals are
        stashed (with their origin round) and neither folded nor shown to
        hooks until the round they actually arrive in — which is what gives
        the communication ledger correct per-round attribution.  The full
        update list is only retained when a hook or the training algorithm
        consumes it; otherwise a streaming defense keeps the round at
        O(param_dim).  If a hook or the backend raises, the exception
        propagates and the round's state goes with it; the next round
        begins a fresh one.
        """
        round_idx = plan.round_idx
        arrival = list(range(len(plan)))
        if self._buffered_async:
            latencies = plan.latencies or (0.0,) * len(plan)
            arrival.sort(key=lambda s: (latencies[s], s))
        k = self._buffer_size if self._buffer_size is not None else len(plan)
        on_time, late = arrival[:k], arrival[k:]
        carried, self._carry = self._carry, []

        fold_clients = tuple(u.client_id for u in carried) + tuple(
            plan.sampled_clients[s] for s in on_time
        )
        extras = (
            {"aggregation_mode": "buffered_async", "carried": len(carried)}
            if self._buffered_async
            else {}
        )
        ctx = AggregationContext(
            rng=self._rng,
            round_idx=round_idx,
            sampled_clients=fold_clients,
            extras=extras,
            telemetry=self.telemetry,
        )
        state = self.aggregator.begin_round(ctx)
        retain = self.hooks.wants_collected_results() or consumes_updates(self.algorithm)
        retained: list[ClientUpdate] = []
        benign_losses_by_slot: dict[int, float] = {}

        def fold(update: ClientUpdate) -> None:
            self.hooks.update(self, plan, update)
            self.aggregator.accumulate(state, update)
            if not update.malicious:
                benign_losses_by_slot[update.slot] = update.loss
            if retain:
                retained.append(update)

        # Carried updates arrive first: they were already computed and only
        # waited for this round's buffer to open.
        for fold_slot, update in enumerate(carried):
            staleness = round_idx - update.metadata["origin_round"]
            discounted = self.aggregator.discount_stale(
                update, staleness, self._staleness_discount
            )
            fold(replace(discounted, slot=fold_slot))

        fold_slot_of = {
            plan_slot: len(carried) + rank for rank, plan_slot in enumerate(on_time)
        }
        for update in self.backend.iter_updates(plan, self.global_params):
            fold_slot = fold_slot_of.get(update.slot)
            if fold_slot is None:
                # A straggler: carry it (in arrival-rank order) to next round.
                self._carry.append(
                    replace(
                        update, metadata={**update.metadata, "origin_round": round_idx}
                    )
                )
                continue
            fold(replace(update, slot=fold_slot))
        # Carried updates queue in arrival-rank (latency) order, not in the
        # backend's completion order, so next round's fold is deterministic.
        late_rank = {plan.sampled_clients[s]: rank for rank, s in enumerate(late)}
        self._carry.sort(key=lambda u: late_rank[u.client_id])

        retained.sort(key=lambda u: u.slot)
        self.hooks.updates_collected(self, plan, retained)
        with maybe_span(self.telemetry, "aggregate", round=round_idx):
            aggregated = self.aggregator.finalize(state, self.global_params, ctx)
        benign_losses = [benign_losses_by_slot[s] for s in sorted(benign_losses_by_slot)]
        benign_updates_by_client = {
            u.client_id: u.update for u in retained if not u.malicious
        }
        return ctx, aggregated, benign_losses, benign_updates_by_client

    def run_round(self) -> RoundRecord:
        """Execute a single federated round and return its record."""
        with maybe_span(self.telemetry, "round", round=len(self.history)):
            return self._run_round()

    def _run_round(self) -> RoundRecord:
        round_idx = len(self.history)
        # Running another round after close() re-acquires backend resources
        # (the distributed backend respawns its workers lazily), so the next
        # close() must actually release them again.
        self._closed = False
        part = self.participation.sample_round(
            ParticipationContext(
                num_clients=self.dataset.num_clients,
                seed=self.config.seed,
                round_idx=round_idx,
                rng=self._rng,
            )
        )
        plan = build_round_plan(
            round_idx,
            part.sampled,
            self.compromised_ids,
            self.config.seed,
            attack_active=self.attack is not None,
            latencies=part.latencies,
        )
        self.hooks.round_start(self, plan)
        ctx, aggregated, benign_losses, benign_updates_by_client = self._collect(plan)

        self.global_params = self.global_params + self.config.server_lr * aggregated
        self.algorithm.post_aggregate(self.global_params, benign_updates_by_client)
        self.hooks.aggregated(self, plan, aggregated)

        record = RoundRecord(
            round_idx=round_idx,
            sampled_clients=list(plan.sampled_clients),
            compromised_sampled=plan.compromised_sampled,
            mean_benign_loss=float(np.mean(benign_losses)) if benign_losses else 0.0,
            update_norm=float(np.linalg.norm(aggregated)),
        )
        if self._buffered_async:
            record.extras["buffered_async"] = {
                "folded": len(ctx.sampled_clients),
                "carried_in": int(ctx.extras.get("carried", 0)),
                "carried_out": len(self._carry),
            }
        self.history.append(record)
        self.hooks.round_end(self, plan, record)
        return record

    def personalized_params(self, client_id: int, rng_seed: int | None = None) -> np.ndarray:
        """Personalised parameters of one client under the active algorithm."""
        rng = np.random.default_rng(
            rng_seed if rng_seed is not None else personalization_seed(self.config.seed, client_id)
        )
        return self.algorithm.personalized_params(
            client_id,
            self.global_params,
            self._worker_model,
            self.dataset.client(client_id).train,
            self.config.local,
            rng,
        )

    def close(self) -> None:
        """Release the backend's worker resources (idempotent).

        Closes the execution backend — including a distributed coordinator's
        worker processes.  Safe to call repeatedly; the server remains
        usable for driver-side helpers (``personalized_params``, history
        access) after closing.
        """
        if self._closed:
            return
        self._closed = True
        self.backend.close()

    def __enter__(self) -> "FederatedServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: worker processes never leak."""
        self.close()

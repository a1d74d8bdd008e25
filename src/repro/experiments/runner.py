"""Generic experiment runner: scenario → federation → training → evaluation.

Every component is resolved through the unified registries
(:mod:`repro.registry`): the builders below only *wire* scenario fields into
constructor kwargs — which components exist, and which kwargs they accept,
lives with the components themselves.  Adding a new attack/defense/dataset
therefore means registering it, not editing this module.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.stealth import StealthConfig
from repro.experiments.results import ExperimentResult
from repro.experiments.scenario import DERIVED_KWARGS, Scenario
from repro.federated.engine.backends import make_backend
from repro.federated.engine.hooks import EvaluationHook, RoundHook
from repro.federated.engine.ledger import CommunicationLedger, LedgerHook
from repro.federated.population.base import ClientPopulation, EagerPopulation
from repro.federated.server import FederatedServer
from repro.metrics.accuracy import evaluate_clients
from repro.nn.layers import Flatten
from repro.nn.model import Sequential
from repro.registry import (
    ALGORITHMS,
    ATTACKS,
    DATASETS,
    DEFENSES,
    MODELS,
    POPULATIONS,
    TRIGGERS,
)


def build_dataset(config: Scenario) -> tuple[ClientPopulation, object]:
    """Build the federation and return it with its generator.

    The geometry fields (``num_classes`` and ``image_size``, the keys of
    ``DERIVED_KWARGS["dataset_kwargs"]``) and ``data_seed`` are forwarded to
    the generator when its constructor accepts them, so new registered
    datasets pick up exactly the fields they understand.  ``dataset_kwargs``
    adds the rest and may override the seed.  It may not set the geometry,
    which the model shares: the scenario rejects that.

    The federation is a :class:`~repro.federated.population.ClientPopulation`
    over that generator, with the scenario's data geometry (client count,
    samples per client, α, data seed).  ``config.population`` names a
    registered lazy population, whose ``population_kwargs`` (cache size,
    eval cap) override the geometry; unset, it is an
    :class:`~repro.federated.population.EagerPopulation` over one global
    partition, every client built here.
    """
    accepted = {p.name for p in DATASETS.describe(config.dataset)}
    common = {key: getattr(config, key) for key in DERIVED_KWARGS["dataset_kwargs"]}
    common["seed"] = config.data_seed
    kwargs = {k: v for k, v in common.items() if k in accepted}
    kwargs.update(config.dataset_kwargs)
    generator = DATASETS.create(config.dataset, **kwargs)
    geometry = {
        "dataset": generator,
        "num_clients": config.num_clients,
        "samples_per_client": config.samples_per_client,
        "alpha": config.alpha,
        "seed": config.data_seed,
    }
    if config.population is None:
        return EagerPopulation(**geometry), generator
    spec = (config.population, config.population_kwargs)
    return POPULATIONS.create(spec, **geometry), generator


def _is_text_modality(generator) -> bool:
    """Text generators expose pooled-embedding features, not images."""
    return hasattr(generator, "embedding_dim")


def build_model_factory(config: Scenario, generator):
    """Return a zero-argument callable producing fresh, identically-initialised models.

    The model's geometry (the keys of ``DERIVED_KWARGS["model_kwargs"]``)
    comes from the scenario and the generator, so it matches the data;
    ``model_kwargs`` adds the rest and may override ``hidden`` and ``seed``.
    """
    seed = config.seed
    if _is_text_modality(generator):
        kwargs = {
            "embedding_dim": generator.embedding_dim,
            "hidden": config.hidden[0] if config.hidden else 64,
            "num_classes": config.num_classes,
            "seed": seed,
        }
        kwargs.update(config.model_kwargs)
        make_text = MODELS.get("text")
        return lambda: make_text(**kwargs)
    if config.model == "lenet":
        kwargs = {
            "image_size": config.image_size,
            "num_classes": config.num_classes,
            "seed": seed,
        }
        kwargs.update(config.model_kwargs)
        make_lenet = MODELS.get("lenet")
        return lambda: make_lenet(**kwargs)
    kwargs = {
        "in_features": config.image_size * config.image_size,
        "hidden": config.hidden,
        "num_classes": config.num_classes,
        "seed": seed,
    }
    kwargs.update(config.model_kwargs)
    make_mlp = MODELS.get(config.model)

    def factory():
        mlp = make_mlp(**kwargs)
        return Sequential([Flatten(), *mlp.layers])

    return factory


def build_trigger(config: Scenario, generator):
    """Instantiate the backdoor trigger matching the dataset modality."""
    if _is_text_modality(generator):
        return TRIGGERS.create(
            "token",
            trigger_embedding=generator.trigger_embedding(),
            scale=4.0,
            **config.trigger_kwargs,
        )
    common = {
        "patch": {"image_size": config.image_size, "patch_size": 3},
        "warping": {
            "image_size": config.image_size,
            "strength": 2.0,
            "seed": config.seed + 7,
        },
    }.get(config.trigger, {"image_size": config.image_size})
    common.update(config.trigger_kwargs)
    return TRIGGERS.create(config.trigger, **common)


def select_compromised_clients(
    num_clients: int, fraction: float, seed: int = 0
) -> list[int]:
    """Randomly choose ``round(fraction · N)`` compromised clients (at least 1)."""
    if fraction <= 0.0:
        return []
    rng = np.random.default_rng(seed + 424242)
    count = max(1, int(round(fraction * num_clients)))
    count = min(count, num_clients - 1) if num_clients > 1 else 1
    return sorted(int(c) for c in rng.choice(num_clients, size=count, replace=False))


def build_attack(config: Scenario):
    """Instantiate the configured attack object (or None).

    Scenario fields provide each attack's conventional kwargs (the stealth
    envelope for CollaPois, ``trojan_epochs`` for the model-level attacks);
    ``attack_kwargs`` overrides and extends them.
    """
    if config.attack == "none":
        return None
    common = {
        "collapois": {
            "stealth": StealthConfig(
                psi_low=config.psi_low,
                psi_high=config.psi_high,
                clip_bound=config.clip_bound,
            ),
            "trojan_epochs": config.trojan_epochs,
        },
        "mrepl": {"trojan_epochs": config.trojan_epochs},
    }.get(config.attack, {})
    common.update(config.attack_kwargs)
    return ATTACKS.create(config.attack, **common)


def build_algorithm(config: Scenario):
    """Instantiate the configured federated-training algorithm."""
    return ALGORITHMS.create(config.algorithm, **config.algorithm_kwargs)


def build_backend(config: Scenario):
    """Instantiate the configured execution backend.

    Backends that execute in worker processes (``distributed``) expose
    ``configure_scenario``; they get the scenario itself so their workers
    can rebuild the execution context remotely.
    """
    backend = make_backend(
        config.backend, max_workers=config.backend_workers, **config.backend_kwargs
    )
    configure = getattr(backend, "configure_scenario", None)
    if configure is not None:
        configure(config)
    return backend


def run_experiment(
    config: Scenario,
    hooks: Sequence[RoundHook] | None = None,
    prebuilt_data: tuple[ClientPopulation, object] | None = None,
) -> ExperimentResult:
    """Run a full experiment: build, train, evaluate at the client level.

    ``hooks`` are extra round hooks registered on the server's pipeline —
    the supported way to instrument a run.  They run after the evaluation
    hook derived from ``config.eval_every`` and the ledger hook, so they
    observe round records with metrics already filled in.
    ``prebuilt_data`` optionally supplies an already-built
    ``(dataset, generator)`` pair whose construction parameters match the
    scenario — :class:`~repro.experiments.suite.Suite` uses this to share
    one federation across sweep cells; results are identical either way
    because dataset construction is deterministic in ``data_seed``.
    """
    if prebuilt_data is not None:
        dataset, generator = prebuilt_data
    else:
        dataset, generator = build_dataset(config)
    model_factory = build_model_factory(config, generator)
    trigger = build_trigger(config, generator)
    algorithm = build_algorithm(config)
    attack = build_attack(config)
    compromised = (
        select_compromised_clients(config.num_clients, config.compromised_fraction, config.seed)
        if attack is not None
        else []
    )
    if attack is not None:
        attack.setup(
            dataset,
            compromised,
            model_factory,
            trigger,
            config.target_class,
            local_config=config.local,
            seed=config.seed,
        )

    eval_model = model_factory()
    compromised_set = set(compromised)
    # eval_client_ids() is the whole federation on an eager population and a
    # deterministic capped subset on a lazy one, keeping the final
    # evaluation O(evaluated clients) at 1e5+ scale.
    benign_ids = [c for c in dataset.eval_client_ids() if c not in compromised_set]

    eval_hooks = []
    if config.eval_every:

        def eval_fn(global_params, round_idx):
            evaluation = evaluate_clients(
                dataset,
                eval_model,
                params_fn=lambda _cid: global_params,
                trigger=trigger,
                target_class=config.target_class,
                client_ids=benign_ids,
                max_test_samples=config.max_test_samples,
            )
            return evaluation.as_dict()

        eval_hooks.append(EvaluationHook(eval_fn, every=config.eval_every))

    backend = build_backend(config)
    # Every run carries a communication ledger: the LedgerHook accounts the
    # logical client↔server model traffic on any backend, and a backend with
    # a real transport (the distributed coordinator) meters its wire frames
    # into the same ledger.
    ledger = CommunicationLedger()
    backend.ledger = ledger
    ledger_hook = LedgerHook(ledger)
    server = FederatedServer(
        dataset,
        model_factory,
        algorithm,
        config.server_config(),
        aggregator=DEFENSES.create(config.defense, **config.defense_kwargs),
        attack=attack,
        compromised_ids=compromised,
        backend=backend,
        hooks=[*eval_hooks, ledger_hook, *(hooks or ())],
    )

    # Context manager: worker processes are released even when a round
    # raises; driver-side helpers stay usable afterwards.
    with server:
        server.run()
    evaluation = evaluate_clients(
        dataset,
        eval_model,
        params_fn=server.personalized_params,
        trigger=trigger,
        target_class=config.target_class,
        client_ids=benign_ids,
        max_test_samples=config.max_test_samples,
    )
    extras = {"dataset": dataset, "server": server, "trigger": trigger, "attack": attack}
    return ExperimentResult(
        config=config,
        evaluation=evaluation,
        history=server.history,
        compromised_ids=compromised,
        extras=extras,
        ledger=ledger,
        telemetry=server.telemetry.to_dict() if server.telemetry is not None else None,
    )


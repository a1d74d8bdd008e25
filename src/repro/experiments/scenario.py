"""Declarative experiment scenarios: validated, JSON-round-trippable specs.

A :class:`Scenario` is the single value object describing one federated
experiment — data, model, training algorithm, attack, defense and execution
backend.  It adds:

* **registry validation** — component names are checked against the unified
  registries (:mod:`repro.registry`), so error messages list what is
  actually available instead of hard-coding string sets, and the round
  settings are checked by building the scenario's
  :class:`~repro.federated.server.ServerConfig` (:meth:`server_config`);
* **component specs** — every component field accepts a spec carrying
  constructor kwargs (``defense="krum:num_malicious=2"``,
  ``defense=("krum", {"num_malicious": 2})``), normalised into the bare
  name plus the matching ``*_kwargs`` dict;
* **JSON round-trip** — :meth:`to_dict`/:meth:`from_dict` (and the
  ``json``/file variants) serialise a scenario losslessly; re-running a
  deserialised scenario reproduces the original ``TrainingHistory``
  bit-identically.  Unknown keys fail loudly with did-you-mean suggestions.

Dataset-modality normalisation (the sentiment task is binary and uses the
text head) happens in the explicit, documented :meth:`_normalize_modality`
step rather than as a silent ``__post_init__`` side effect scattered among
validations — the observable behaviour is unchanged.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from repro.federated.client import LocalTrainingConfig
from repro.federated.server import ServerConfig, is_count
from repro.registry import (
    ALGORITHMS,
    ATTACKS,
    BACKENDS,
    DATASETS,
    DEFENSES,
    MODELS,
    PARTICIPATION,
    POPULATIONS,
    TRIGGERS,
    Registry,
    parse_spec,
    reject_unknown_keys,
)

# Component fields resolved against a registry, with the field holding the
# kwargs parsed out of a spec.  ``backend`` is handled separately because its
# only kwarg (``max_workers``) maps onto the ``backend_workers`` field.
# ``population`` and ``participation`` default to ``None`` (meaning "eager
# population over one global partition" / "uniform from sample_rate"), and
# ``attack="none"`` runs no attack; validation skips the registry for an
# unset component and rejects kwargs given for it, which nothing would use.
_COMPONENT_FIELDS: dict[str, tuple[Registry, str]] = {
    "dataset": (DATASETS, "dataset_kwargs"),
    "model": (MODELS, "model_kwargs"),
    "algorithm": (ALGORITHMS, "algorithm_kwargs"),
    "attack": (ATTACKS, "attack_kwargs"),
    "trigger": (TRIGGERS, "trigger_kwargs"),
    "defense": (DEFENSES, "defense_kwargs"),
    "population": (POPULATIONS, "population_kwargs"),
    "participation": (PARTICIPATION, "participation_kwargs"),
}

#: Constructor kwargs the runner derives so that data and model share one
#: geometry, per ``*_kwargs`` field that may not set them, each with what to
#: do instead.  ``runner.build_dataset`` forwards the dataset's keys from the
#: scenario fields of the same names; ``runner.build_model_factory`` derives
#: the model's.
DERIVED_KWARGS: dict[str, dict[str, str]] = {
    "dataset_kwargs": {
        "num_classes": "set the num_classes field instead",
        "image_size": "set the image_size field instead",
    },
    "model_kwargs": {
        "num_classes": "set the num_classes field instead",
        "image_size": "set the image_size field instead",
        "in_features": "it is derived as image_size ** 2",
        "embedding_dim": "it is derived from the dataset",
    },
}


@dataclass
class Scenario:
    """Everything needed to run one federated-training experiment.

    Defaults are sized for laptop-scale smoke runs; the benchmark harness
    scales ``num_clients`` / ``rounds`` up.
    """

    # Identity (optional, used by suites/CLI output)
    name: str | None = None

    # Data
    dataset: str = "femnist"
    dataset_kwargs: dict = field(default_factory=dict)
    num_clients: int = 30
    samples_per_client: int = 40
    alpha: float = 0.5                  # Dirichlet concentration (non-IID level)
    num_classes: int = 10
    image_size: int = 16
    data_seed: int = 0
    population: str | None = None       # lazy population spec (None = eager, built up front)
    population_kwargs: dict = field(default_factory=dict)

    # Model
    model: str = "mlp"
    model_kwargs: dict = field(default_factory=dict)
    hidden: tuple[int, ...] = (64,)

    # Federated training
    algorithm: str = "fedavg"
    algorithm_kwargs: dict = field(default_factory=dict)
    rounds: int = 15
    sample_rate: float = 0.3            # uniform-q sugar; participation overrides
    participation: str | None = None    # participation-model spec (None = uniform)
    participation_kwargs: dict = field(default_factory=dict)
    aggregation_mode: str = "sync"      # "sync" | "buffered_async[:k=v,...]" spec
    server_lr: float = 1.0
    local: LocalTrainingConfig = field(default_factory=LocalTrainingConfig)
    seed: int = 0
    eval_every: int | None = None
    backend: str = "serial"
    backend_workers: int | None = None  # worker cap (backends taking max_workers)
    backend_kwargs: dict = field(default_factory=dict)  # extra backend ctor kwargs
    #   (e.g. distributed's connect="host:port,..."); max_workers stays on
    #   backend_workers so every backend shares one worker-cap field.
    # Accepted and ignored: the fold runs in the driver, one update at a
    # time.  Results JSON written so far and perfbench's secagg-distributed
    # workload carry the key, so it stays loadable.
    num_shards: int = 1
    secure_aggregation: bool = False    # pairwise-masked updates (server-blind)
    telemetry: bool = False             # out-of-band span/metric tracing

    # Attack
    attack: str = "none"
    attack_kwargs: dict = field(default_factory=dict)
    compromised_fraction: float = 0.1
    target_class: int = 0
    trigger: str = "warping"
    trigger_kwargs: dict = field(default_factory=dict)
    psi_low: float = 0.9
    psi_high: float = 1.0
    clip_bound: float | None = None
    trojan_epochs: int = 8

    # Defense
    defense: str = "mean"
    defense_kwargs: dict = field(default_factory=dict)

    # Evaluation
    max_test_samples: int | None = 40

    def __post_init__(self) -> None:
        self._normalize_components()
        self._normalize_modality()
        self._validate()

    # -- normalisation -----------------------------------------------------

    def _normalize_components(self) -> None:
        """Resolve component specs into bare names + ``*_kwargs`` dicts.

        A spec's kwargs are merged over the field's existing kwargs dict
        (the spec wins), so ``with_overrides(defense="krum:multi=3")`` works
        whether or not ``defense_kwargs`` was set before.
        """
        for component, (_registry, kwargs_field) in _COMPONENT_FIELDS.items():
            spec = getattr(self, component)
            if spec is None:
                continue  # optional component left unset
            if isinstance(spec, str) and ":" not in spec:
                continue  # bare name: nothing to do
            spec_name, spec_kwargs = parse_spec(spec)
            setattr(self, component, spec_name)
            if spec_kwargs:
                merged = {**getattr(self, kwargs_field), **spec_kwargs}
                setattr(self, kwargs_field, merged)
        backend_spec = self.backend
        if not isinstance(backend_spec, str) or ":" in backend_spec:
            spec_name, spec_kwargs = parse_spec(backend_spec)
            self.backend = spec_name
            workers = spec_kwargs.pop("max_workers", None)
            if workers is not None:
                self.backend_workers = workers
            if spec_kwargs:
                self.backend_kwargs = {**self.backend_kwargs, **spec_kwargs}
        self.backend_kwargs = _jsonify(self.backend_kwargs)
        if isinstance(self.hidden, list):
            self.hidden = tuple(self.hidden)
        if isinstance(self.local, dict):
            self.local = _local_config_from_dict(self.local)
        # Canonicalise kwargs dicts to their JSON form (tuples -> lists) so a
        # scenario equals its own JSON round-trip regardless of how the spec
        # was written ("mlp:hidden=(32,16)" and loaded JSON agree).
        for _component, (_registry, kwargs_field) in _COMPONENT_FIELDS.items():
            setattr(self, kwargs_field, _jsonify(getattr(self, kwargs_field)))

    def _normalize_modality(self) -> None:
        """Align model geometry with the dataset's modality.

        The text task is binary sentiment classification over frozen
        embeddings, so it forces ``num_classes = 2`` and replaces image
        architectures with the text head.  This is the one place scenario
        fields are rewritten; it runs before validation so a serialised
        scenario stores the *effective* values and round-trips unchanged.
        """
        if self.dataset == "sentiment":
            self.num_classes = 2
            if self.model not in {"text", "mlp"}:
                # The replaced architecture's kwargs do not apply to the head.
                self.model = "text"
                self.model_kwargs = {}

    # -- validation --------------------------------------------------------

    def _validate(self) -> None:
        for component, (registry, kwargs_field) in _COMPONENT_FIELDS.items():
            value = getattr(self, component)
            if (component == "attack" and value == "none") or (
                value is None and component in ("population", "participation")
            ):
                if getattr(self, kwargs_field):
                    raise ValueError(
                        f"{kwargs_field} is set but {component} is {value!r}, "
                        "so nothing would use it"
                    )
                continue
            registry.validate(value)
        for kwargs_field, derived in DERIVED_KWARGS.items():
            clashes = sorted(derived.keys() & getattr(self, kwargs_field).keys())
            if clashes:
                raise ValueError(
                    f"{kwargs_field} may not set {clashes[0]!r}: data and model "
                    f"must agree on it, so {derived[clashes[0]]}"
                )
        BACKENDS.validate(self.backend)
        if self.model == "text" and self.dataset != "sentiment":
            raise ValueError(
                "model 'text' is the frozen-embedding task head and requires "
                "a text dataset (dataset='sentiment')"
            )
        if not 0.0 <= self.compromised_fraction < 1.0:
            raise ValueError("compromised_fraction must be in [0, 1)")
        if self.attack != "none" and self.compromised_fraction <= 0.0:
            raise ValueError("an attack requires a positive compromised_fraction")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if not is_count(self.num_shards):
            raise ValueError("num_shards must be a positive integer")
        for name in ("backend_workers", "max_test_samples"):  # None: unset
            value = getattr(self, name)
            if value is not None and not is_count(value):
                raise ValueError(f"{name} must be a positive integer")
        accepted = {p.name for p in BACKENDS.describe(self.backend)}
        if self.backend_workers is not None and "max_workers" not in accepted:
            raise ValueError(
                f"backend {self.backend!r} takes no worker cap, so "
                "backend_workers must be unset"
            )
        if not isinstance(self.backend_kwargs, dict):
            raise ValueError("backend_kwargs must be a dict")
        unknown = sorted(set(self.backend_kwargs) - (accepted - {"max_workers"}))
        if unknown:
            raise ValueError(
                f"backend {self.backend!r} does not accept backend_kwargs "
                f"{unknown} (max_workers belongs on backend_workers); "
                f"accepted: {sorted(accepted - {'max_workers'}) or 'none'}"
            )
        self.server_config()  # rounds, participation, aggregation mode, telemetry
        if self.secure_aggregation:
            from repro.federated.secagg import PlaintextRequiredError

            defense = DEFENSES.get(self.defense)
            if getattr(defense, "requires_plaintext_updates", False):
                raise PlaintextRequiredError(self.defense)
            wire_dtype = self.backend_kwargs.get("wire_dtype", "float64")
            if wire_dtype != "float64":
                raise ValueError(
                    "secure aggregation is incompatible with wire_dtype="
                    f"{wire_dtype!r}: masked updates are IEEE-754 float64 words "
                    "plus a pairwise mask mod 2**64, and any narrowing round-trip "
                    "corrupts the ciphertext so the masks no longer cancel; use "
                    "the bit-exact float64 wire format"
                )

    def server_config(self) -> ServerConfig:
        """The server-side round configuration this scenario runs with.

        :meth:`_validate` builds it too, so every round setting the server
        rejects fails at construction rather than after the dataset build.
        The participation spec wins; ``sample_rate`` is sugar for the uniform
        model, whose ``min_clients`` default of 4 is the historical floor.
        """
        participation = (
            (self.participation, self.participation_kwargs)
            if self.participation is not None
            else ("uniform", {"sample_rate": self.sample_rate})
        )
        return ServerConfig(
            rounds=self.rounds,
            participation=participation,
            aggregation_mode=self.aggregation_mode,
            server_lr=self.server_lr,
            seed=self.seed,
            local=self.local,
            secure_aggregation=self.secure_aggregation,
            telemetry=self.telemetry,
        )

    # -- functional updates ------------------------------------------------

    def with_overrides(self, **kwargs) -> "Scenario":
        """Functional update: return a copy with the given fields replaced.

        Overriding a component field resets its ``*_kwargs`` companion
        (unless that companion is overridden too): the old component's
        kwargs do not apply to the new one, and any kwargs carried by the
        new spec are re-merged during normalisation.
        """
        for component, (_registry, kwargs_field) in _COMPONENT_FIELDS.items():
            if component in kwargs and kwargs_field not in kwargs:
                kwargs[kwargs_field] = {}
        return replace(self, **kwargs)

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-data representation (JSON-compatible, lossless)."""
        data = asdict(self)
        data["hidden"] = list(self.hidden)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Build a scenario from a plain dict, rejecting unknown keys."""
        if not isinstance(data, dict):
            raise TypeError(f"scenario data must be a dict, got {type(data).__name__}")
        reject_unknown_keys(data, {f.name for f in fields(cls)}, "scenario")
        return cls(**data)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Scenario":
        return cls.from_json(Path(path).read_text())

    # -- execution ---------------------------------------------------------

    def data_signature(self) -> tuple:
        """Hashable key identifying the federation this scenario builds.

        Two scenarios with equal signatures build bit-identical federated
        datasets, which lets :class:`~repro.experiments.suite.Suite` share
        one built dataset across sweep cells.
        """
        return (
            self.dataset,
            json.dumps(self.dataset_kwargs, sort_keys=True),
            self.num_clients,
            self.samples_per_client,
            self.alpha,
            self.num_classes,
            self.image_size,
            self.data_seed,
            self.population,
            json.dumps(self.population_kwargs, sort_keys=True),
        )

    def run(self, hooks=None, prebuilt_data=None):
        """Run this scenario; see :func:`repro.experiments.runner.run_experiment`."""
        from repro.experiments.runner import run_experiment

        return run_experiment(self, hooks=hooks, prebuilt_data=prebuilt_data)


def _jsonify(value):
    """Recursively convert a kwargs value to its JSON-canonical form."""
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def _local_config_from_dict(data: dict) -> LocalTrainingConfig:
    reject_unknown_keys(
        data, {f.name for f in fields(LocalTrainingConfig)}, "local-training"
    )
    return LocalTrainingConfig(**data)


__all__ = ["Scenario"]

"""Unified component registries: one generic ``Registry`` for every family.

Every pluggable component family in the library — datasets, models,
federated-training algorithms, attacks, triggers, aggregation defenses and
execution backends — registers its members in a family :class:`Registry`.
The pattern generalises the original defense registry: components register
themselves with a decorator, callers build them from *specs*, and the CLI
and the :class:`~repro.experiments.scenario.Scenario` layer introspect the
registered constructors for validation and ``--help``-style listings.

A **spec** names a component together with optional constructor kwargs and
comes in three interchangeable forms::

    "krum"                                  # bare name
    "krum:num_malicious=2,multi=3"          # name:kwargs spec string
    ("krum", {"num_malicious": 2})          # (name, kwargs) pair
    {"name": "krum", "num_malicious": 2}    # dict with a "name" key

Spec-string values are parsed as Python/JSON literals (``3``, ``0.5``,
``true``/``True``, ``none``/``null``, quoted strings) and fall back to raw
strings, so ``"norm_bound:max_norm=2.0"`` works from a shell as well as from
JSON.

Registries are *lazy*: each family knows which modules define its members
(``load_from``) and imports them on first lookup, so ``repro.registry`` can
be imported from anywhere without dragging the whole library in — and
without import-order sensitivity for the decorator registrations.

This module depends only on the standard library; component modules import
*it*, never the other way around.
"""

from __future__ import annotations

import ast
import difflib
import importlib
import inspect
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from typing import Any, ClassVar


@dataclass(frozen=True)
class ParamSpec:
    """Introspected metadata of one constructor parameter."""

    name: str
    required: bool
    default: Any = None
    annotation: str | None = None

    def __str__(self) -> str:
        if self.required:
            return f"{self.name} (required)"
        return f"{self.name}={self.default!r}"


def parse_literal(text: str) -> Any:
    """Parse one spec-string value: Python/JSON literal, else the raw string."""
    lowered = text.strip()
    aliases = {"true": True, "false": False, "null": None, "none": None}
    if lowered.lower() in aliases:
        return aliases[lowered.lower()]
    try:
        return ast.literal_eval(lowered)
    except (ValueError, SyntaxError):
        return lowered


def _split_spec_args(args: str) -> list[str]:
    """Split ``k=v,k2=v2`` on top-level commas only.

    Commas inside brackets or quotes belong to a compound literal value
    (``hidden=(64,32)``), not to the argument separator.
    """
    parts: list[str] = []
    buf: list[str] = []
    depth = 0
    quote: str | None = None
    for ch in args:
        if quote is not None:
            buf.append(ch)
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
            buf.append(ch)
        elif ch in "([{":
            depth += 1
            buf.append(ch)
        elif ch in ")]}":
            depth -= 1
            buf.append(ch)
        elif ch == "," and depth == 0:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    parts.append("".join(buf))
    return parts


def parse_spec(spec: Any) -> tuple[str, dict[str, Any]]:
    """Normalise any accepted spec form into a ``(name, kwargs)`` pair."""
    if isinstance(spec, str):
        name, sep, args = spec.partition(":")
        name = name.strip()
        if not name:
            raise ValueError(f"component spec {spec!r} has an empty name")
        kwargs: dict[str, Any] = {}
        if sep and args.strip():
            for item in _split_spec_args(args):
                key, eq, value = item.partition("=")
                if not eq or not key.strip():
                    raise ValueError(
                        f"malformed spec argument {item!r} in {spec!r}; "
                        "expected key=value"
                    )
                kwargs[key.strip()] = parse_literal(value)
        return name, kwargs
    if isinstance(spec, (tuple, list)):
        if len(spec) == 1:
            return parse_spec(spec[0])
        if len(spec) == 2 and isinstance(spec[0], str) and isinstance(spec[1], dict):
            return spec[0], dict(spec[1])
        raise ValueError(f"component spec {spec!r} must be (name, kwargs)")
    if isinstance(spec, dict):
        if "name" not in spec:
            raise ValueError(f"component spec dict {spec!r} needs a 'name' key")
        kwargs = {k: v for k, v in spec.items() if k != "name"}
        # Allow the nested form {"name": ..., "kwargs": {...}} too.
        nested = kwargs.pop("kwargs", None)
        if nested is not None:
            if not isinstance(nested, dict):
                raise ValueError(f"'kwargs' of spec {spec!r} must be a dict")
            kwargs.update(nested)
        return str(spec["name"]), kwargs
    raise TypeError(f"unsupported component spec type {type(spec).__name__!r}")


def suggest(name: str, candidates: list[str]) -> str:
    """Did-you-mean hint (`` (did you mean 'x'?)`` or ``""``) for error text."""
    matches = difflib.get_close_matches(name, candidates, n=2, cutoff=0.6)
    return f" (did you mean {' or '.join(repr(m) for m in matches)}?)" if matches else ""


def reject_unknown_keys(data: dict, known: Iterable[str], what: str) -> None:
    """Raise ``ValueError`` with did-you-mean hints for keys outside ``known``.

    Shared by every ``from_dict`` deserialiser (scenarios, suites, local
    training configs, round records) so unknown-key errors read the same
    everywhere.
    """
    known = sorted(known)
    unknown = sorted(set(data) - set(known))
    if unknown:
        hints = [f"{key}{suggest(key, known)}" for key in unknown]
        raise ValueError(
            f"unknown {what} key(s): {', '.join(hints)}; "
            f"known keys: {', '.join(known)}"
        )


def is_count(value) -> bool:
    """Whether ``value`` is a positive ``int``; a ``bool`` is not a count."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


class Registry:
    """A named family of constructable components.

    Members are registered with the :meth:`register` decorator and built by
    name or spec with :meth:`create`.  ``load_from`` lists the modules whose
    import populates the family; they are imported lazily on first lookup.
    """

    _families: ClassVar[dict[str, "Registry"]] = {}

    def __init__(self, family: str, load_from: tuple[str, ...] = ()) -> None:
        self.family = family
        self._entries: dict[str, Callable[..., Any]] = {}
        self._load_from = tuple(load_from)
        self._loaded = not load_from
        self._loading = False
        Registry._families[family] = self

    # -- family lookup -----------------------------------------------------

    @classmethod
    def families(cls) -> list[str]:
        """Names of every component family."""
        return sorted(cls._families)

    @classmethod
    def family(cls, name: str) -> "Registry":
        """The registry of one family (``'defense'``, ``'attack'``, …)."""
        # Accept plural CLI spellings ("defenses") as a convenience.
        candidates = {name, name.rstrip("s"), name + "s"}
        for candidate in candidates:
            if candidate in cls._families:
                return cls._families[candidate]
        raise ValueError(
            f"unknown component family {name!r}; available: "
            f"{', '.join(cls.families())}{suggest(name, cls.families())}"
        )

    # -- registration ------------------------------------------------------

    def register(self, name: str, *, overwrite: bool = False):
        """Class/function decorator registering the target under ``name``."""

        def decorator(target: Callable[..., Any]) -> Callable[..., Any]:
            if not overwrite and name in self._entries:
                raise ValueError(
                    f"{self.family} {name!r} is already registered "
                    f"({self._entries[name]!r})"
                )
            self._entries[name] = target
            return target

        return decorator

    def _ensure_loaded(self) -> None:
        # _loaded flips only after every module imported: a failed component
        # import must surface again on the next lookup instead of leaving the
        # family silently half-populated.  _loading guards re-entrancy while
        # the imports themselves run.
        if self._loaded or self._loading:
            return
        self._loading = True
        try:
            for module in self._load_from:
                importlib.import_module(module)
            self._loaded = True
        finally:
            self._loading = False

    # -- lookup ------------------------------------------------------------

    def names(self) -> list[str]:
        """Sorted names of every registered member."""
        self._ensure_loaded()
        return sorted(self._entries)

    def __contains__(self, name: object) -> bool:
        self._ensure_loaded()
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._entries)

    def get(self, name: str) -> Callable[..., Any]:
        """The registered class/factory, with a did-you-mean error message."""
        self._ensure_loaded()
        try:
            return self._entries[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.family} {name!r}; available: "
                f"{', '.join(self.names())}{suggest(name, self.names())}"
            ) from None

    def validate(self, name: str) -> str:
        """Check that ``name`` is registered and return it (for validators)."""
        self.get(name)
        return name

    # -- construction ------------------------------------------------------

    def create(self, spec: Any, /, **common_kwargs: Any) -> Any:
        """Build a component from a spec.

        ``common_kwargs`` are defaults that the spec's own kwargs override —
        callers use them for context-derived arguments (e.g. the experiment
        runner wiring ``trojan_epochs`` from the scenario while a spec string
        may still override it).
        """
        name, kwargs = parse_spec(spec)
        merged = {**common_kwargs, **kwargs}
        self.check_kwargs(name, merged)
        return self.get(name)(**merged)

    def check_kwargs(self, name: str, kwargs: dict) -> None:
        """Raise ``ValueError`` unless ``name``'s constructor accepts every key.

        The signature check :meth:`create` runs before it constructs; the
        scenario runs it too, so a misspelled kwarg fails before any build.
        """
        target = self.get(name)
        try:
            signature = inspect.signature(target)
        except (TypeError, ValueError):  # builtins without introspectable sigs
            return
        try:
            signature.bind_partial(**kwargs)
        except TypeError:
            accepted = [p.name for p in self._describable_params(signature)]
            unknown = sorted(set(kwargs) - set(accepted))
            raise ValueError(
                f"{self.family} {name!r} got unexpected argument(s) "
                f"{', '.join(repr(u) for u in unknown) or repr(kwargs)}; "
                f"accepted: {', '.join(accepted) or '(none)'}"
            ) from None

    # -- introspection -----------------------------------------------------

    @staticmethod
    def _describable_params(signature: inspect.Signature) -> list[inspect.Parameter]:
        return [
            p
            for p in signature.parameters.values()
            if p.kind
            in (
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                inspect.Parameter.KEYWORD_ONLY,
            )
        ]

    def describe(self, name: str) -> list[ParamSpec]:
        """Constructor parameter metadata of one registered member."""
        target = self.get(name)
        try:
            signature = inspect.signature(target)
        except (TypeError, ValueError):
            return []
        specs = []
        for param in self._describable_params(signature):
            required = param.default is inspect.Parameter.empty
            annotation = (
                None
                if param.annotation is inspect.Parameter.empty
                else str(param.annotation)
            )
            specs.append(
                ParamSpec(
                    name=param.name,
                    required=required,
                    default=None if required else param.default,
                    annotation=annotation,
                )
            )
        return specs


# ---------------------------------------------------------------------------
# The component families.  ``load_from`` lists the modules whose import
# registers the family's members; they are imported lazily on first lookup.
# ---------------------------------------------------------------------------

DATASETS = Registry(
    "dataset",
    load_from=("repro.data.femnist", "repro.data.sentiment"),
)

MODELS = Registry(
    "model",
    load_from=("repro.nn.model",),
)

ALGORITHMS = Registry(
    "algorithm",
    load_from=(
        "repro.federated.algorithms.fedavg",
        "repro.federated.algorithms.feddc",
        "repro.federated.algorithms.metafed",
    ),
)

ATTACKS = Registry(
    "attack",
    load_from=(
        "repro.core.collapois",
        "repro.attacks.dpois",
        "repro.attacks.mrepl",
        "repro.attacks.dba",
    ),
)

TRIGGERS = Registry(
    "trigger",
    load_from=("repro.attacks.triggers",),
)

DEFENSES = Registry(
    "defense",
    load_from=(
        "repro.defenses.base",
        "repro.defenses.crfl",
        "repro.defenses.detector",
        "repro.defenses.dp",
        "repro.defenses.flare",
        "repro.defenses.krum",
        "repro.defenses.median",
        "repro.defenses.norm_bound",
        "repro.defenses.rlr",
        "repro.defenses.signsgd",
        "repro.defenses.trimmed_mean",
    ),
)

BACKENDS = Registry(
    "backend",
    load_from=(
        "repro.federated.engine.backends",
        "repro.federated.engine.batched",
        "repro.federated.engine.distributed.coordinator",
    ),
)

POPULATIONS = Registry(
    "population",
    load_from=("repro.federated.population.base",),
)

PARTICIPATION = Registry(
    "participation",
    load_from=("repro.federated.population.participation",),
)

CHECKERS = Registry(
    "checker",
    load_from=(
        "repro.lint.checkers.rng_discipline",
        "repro.lint.checkers.shared_state",
        "repro.lint.checkers.fold_determinism",
        "repro.lint.checkers.wire_protocol",
        "repro.lint.checkers.registry_completeness",
    ),
)

__all__ = [
    "ParamSpec",
    "Registry",
    "parse_spec",
    "parse_literal",
    "suggest",
    "reject_unknown_keys",
    "is_count",
    "DATASETS",
    "MODELS",
    "ALGORITHMS",
    "ATTACKS",
    "TRIGGERS",
    "DEFENSES",
    "BACKENDS",
    "POPULATIONS",
    "PARTICIPATION",
    "CHECKERS",
]

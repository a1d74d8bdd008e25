"""Unit tests for the unified component registries."""

from __future__ import annotations

import pytest

from repro.registry import (
    ALGORITHMS,
    ATTACKS,
    BACKENDS,
    DATASETS,
    DEFENSES,
    MODELS,
    TRIGGERS,
    ParamSpec,
    Registry,
    parse_literal,
    parse_spec,
)


class TestParseLiteral:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3", 3),
            ("0.5", 0.5),
            ("-2", -2),
            ("true", True),
            ("False", False),
            ("null", None),
            ("none", None),
            ("'quoted'", "quoted"),
            ("warping", "warping"),
            ("(1, 2)", (1, 2)),
        ],
    )
    def test_values(self, text, expected):
        assert parse_literal(text) == expected


class TestParseSpec:
    def test_bare_name(self):
        assert parse_spec("krum") == ("krum", {})

    def test_spec_string_with_typed_kwargs(self):
        name, kwargs = parse_spec("krum:num_malicious=2,multi=3")
        assert name == "krum"
        assert kwargs == {"num_malicious": 2, "multi": 3}

    def test_spec_string_float_and_none(self):
        _, kwargs = parse_spec("norm_bound:max_norm=2.0,noise_std=none")
        assert kwargs == {"max_norm": 2.0, "noise_std": None}

    def test_spec_string_compound_literals_keep_inner_commas(self):
        _, kwargs = parse_spec("mlp:hidden=(64,32),seed=1")
        assert kwargs == {"hidden": (64, 32), "seed": 1}
        _, kwargs = parse_spec("widget:items=[1,2,3],label='a,b'")
        assert kwargs == {"items": [1, 2, 3], "label": "a,b"}

    def test_tuple_form(self):
        assert parse_spec(("dp", {"clip_norm": 1.0})) == ("dp", {"clip_norm": 1.0})

    def test_list_form_from_json(self):
        assert parse_spec(["dp", {"clip_norm": 1.0}]) == ("dp", {"clip_norm": 1.0})

    def test_dict_form(self):
        assert parse_spec({"name": "dp", "clip_norm": 1.0}) == ("dp", {"clip_norm": 1.0})

    def test_dict_form_nested_kwargs(self):
        assert parse_spec({"name": "dp", "kwargs": {"clip_norm": 1.0}}) == (
            "dp",
            {"clip_norm": 1.0},
        )

    @pytest.mark.parametrize(
        "bad", ["", ":k=1", "krum:novalue", "krum:,", ("krum", {}, "extra"), {"k": 1}]
    )
    def test_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            parse_spec(bad)

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            parse_spec(42)


class TestRegistry:
    def _fresh(self):
        registry = Registry("widget")
        Registry._families.pop("widget", None)  # keep the global table clean
        return registry

    def test_decorator_registration_and_create(self):
        registry = self._fresh()

        @registry.register("simple")
        class Simple:
            def __init__(self, size: int = 3):
                self.size = size

        assert registry.names() == ["simple"]
        assert "simple" in registry
        built = registry.create("simple:size=5")
        assert isinstance(built, Simple) and built.size == 5

    def test_duplicate_registration_rejected(self):
        registry = self._fresh()
        registry.register("dup")(object)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("dup")(object)
        registry.register("dup", overwrite=True)(int)  # explicit overwrite ok

    def test_unknown_name_suggests_close_match(self):
        with pytest.raises(ValueError, match="did you mean 'krum'"):
            DEFENSES.get("krun")

    def test_misspelled_backend_suggests_batched(self):
        # What `--backend bacthed` surfaces through the CLI error path.
        with pytest.raises(ValueError, match="did you mean 'batched'"):
            BACKENDS.get("bacthed")

    def test_unknown_kwarg_lists_accepted_params(self):
        with pytest.raises(ValueError, match="accepted: num_malicious, multi"):
            DEFENSES.create("krum:bogus=1")

    def test_spec_kwargs_override_common_kwargs(self):
        krum = DEFENSES.create("krum:multi=4", num_malicious=2, multi=1)
        assert krum.num_malicious == 2
        assert krum.multi == 4

    def test_describe_returns_param_metadata(self):
        params = {p.name: p for p in DEFENSES.describe("krum")}
        assert set(params) == {"num_malicious", "multi"}
        assert params["multi"].default == 1
        assert not params["multi"].required
        assert str(params["multi"]) == "multi=1"

    def test_required_param_spec_rendering(self):
        spec = ParamSpec(name="image_size", required=True)
        assert str(spec) == "image_size (required)"


class TestFamilies:
    def test_all_families_registered(self):
        assert {
            "dataset",
            "model",
            "algorithm",
            "attack",
            "trigger",
            "defense",
            "backend",
        } <= set(Registry.families())

    def test_family_lookup_accepts_plural(self):
        assert Registry.family("defenses") is DEFENSES
        assert Registry.family("defense") is DEFENSES

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown component family"):
            Registry.family("gizmos")

    @pytest.mark.parametrize(
        "registry,expected",
        [
            (DATASETS, {"femnist", "sentiment"}),
            (MODELS, {"mlp", "lenet", "text"}),
            (ALGORITHMS, {"fedavg", "feddc", "metafed"}),
            (ATTACKS, {"collapois", "dpois", "mrepl", "dba"}),
            (TRIGGERS, {"warping", "patch", "token"}),
            (BACKENDS, {"serial", "batched", "distributed"}),
        ],
    )
    def test_family_members(self, registry, expected):
        assert expected <= set(registry.names())

    def test_defense_catalogue_matches_table_one(self):
        # Table I plus the example-weighted FedAvg variant (weighted_mean).
        assert set(DEFENSES.names()) == {
            "mean",
            "weighted_mean",
            "krum",
            "median",
            "trimmed_mean",
            "norm_bound",
            "dp",
            "rlr",
            "signsgd",
            "flare",
            "crfl",
            "detector",
        }

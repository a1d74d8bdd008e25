"""Unit and round-trip tests for the declarative Scenario spec."""

from __future__ import annotations

import threading

import pytest

from repro.experiments.runner import run_experiment
from repro.experiments.scenario import Scenario
from repro.federated.client import LocalTrainingConfig
from repro.federated.history import TrainingHistory


def tiny_scenario(**overrides) -> Scenario:
    base = dict(
        num_clients=8,
        samples_per_client=12,
        num_classes=4,
        image_size=12,
        alpha=0.3,
        rounds=2,
        sample_rate=0.5,
        attack="collapois",
        compromised_fraction=0.2,
        trojan_epochs=2,
        seed=3,
        max_test_samples=12,
    )
    base.update(overrides)
    return Scenario(**base)


class TestComponentSpecs:
    def test_spec_string_splits_into_name_and_kwargs(self):
        scenario = Scenario(defense="krum:num_malicious=2,multi=3")
        assert scenario.defense == "krum"
        assert scenario.defense_kwargs == {"num_malicious": 2, "multi": 3}

    def test_tuple_spec(self):
        scenario = Scenario(defense=("dp", {"clip_norm": 2.0}))
        assert scenario.defense == "dp"
        assert scenario.defense_kwargs == {"clip_norm": 2.0}

    def test_spec_kwargs_merge_over_existing_kwargs(self):
        scenario = Scenario(
            defense="krum:multi=3", defense_kwargs={"num_malicious": 2, "multi": 1}
        )
        assert scenario.defense_kwargs == {"num_malicious": 2, "multi": 3}

    def test_attack_and_algorithm_specs(self):
        scenario = Scenario(
            attack="collapois:poison_fraction=0.25",
            algorithm="feddc:drift_lr=0.4",
            compromised_fraction=0.1,
        )
        assert scenario.attack == "collapois"
        assert scenario.attack_kwargs == {"poison_fraction": 0.25}
        assert scenario.algorithm == "feddc"
        assert scenario.algorithm_kwargs == {"drift_lr": 0.4}

    def test_backend_spec_maps_max_workers(self):
        scenario = Scenario(backend="distributed:max_workers=4")
        assert scenario.backend == "distributed"
        assert scenario.backend_workers == 4

    def test_backend_spec_rejects_unknown_kwargs(self):
        # Backend specs may carry constructor kwargs (backend_kwargs) now;
        # unknown ones are still rejected at scenario construction.
        with pytest.raises(ValueError, match="does not accept"):
            Scenario(backend="batched:frobnicate=1")

    @pytest.mark.parametrize("backend", ["serial", "batched"])
    def test_backend_workers_needs_a_worker_cap_parameter(self, backend):
        # Derived from the constructor: only backends taking max_workers
        # accept a worker cap.
        with pytest.raises(ValueError, match="backend_workers"):
            Scenario(backend=backend, backend_workers=2)

    def test_backend_spec_routes_extra_kwargs_to_backend_kwargs(self):
        scenario = Scenario(backend="distributed:connect='127.0.0.1:7001'")
        assert scenario.backend == "distributed"
        assert scenario.backend_kwargs == {"connect": "127.0.0.1:7001"}
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_local_dict_coerced_to_config(self):
        scenario = Scenario(local={"epochs": 2, "batch_size": 4})
        assert scenario.local == LocalTrainingConfig(epochs=2, batch_size=4)

    def test_local_dict_unknown_key(self):
        with pytest.raises(ValueError, match="unknown local-training key"):
            Scenario(local={"epohcs": 2})

    def test_override_to_new_component_resets_stale_kwargs(self):
        scenario = Scenario(defense="dp:clip_norm=2.0,noise_multiplier=0.002")
        switched = scenario.with_overrides(defense="median")
        assert switched.defense_kwargs == {}
        respecced = scenario.with_overrides(defense="krum:multi=3")
        assert respecced.defense_kwargs == {"multi": 3}

    def test_override_keeps_explicit_kwargs(self):
        scenario = Scenario(defense="dp:clip_norm=2.0")
        kept = scenario.with_overrides(defense="krum", defense_kwargs={"multi": 2})
        assert kept.defense_kwargs == {"multi": 2}

    def test_sentiment_model_replacement_drops_image_model_kwargs(self):
        scenario = Scenario(dataset="sentiment", model="lenet:fc_width=32")
        assert scenario.model == "text"
        assert scenario.model_kwargs == {}

    def test_compound_literal_in_spec_string_is_json_canonical(self):
        # kwargs are canonicalised to their JSON form (tuples -> lists) so a
        # scenario equals its own JSON round-trip.
        scenario = Scenario(model="mlp:hidden=(32,16)")
        assert scenario.model_kwargs == {"hidden": [32, 16]}
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_text_model_requires_text_dataset(self):
        with pytest.raises(ValueError, match="requires\\s+a text dataset"):
            Scenario(dataset="femnist", model="text")


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dataset": "cifar"},
            {"algorithm": "fedprox"},
            {"attack": "badnets"},
            {"defense": "magic"},
            {"trigger": "sticker"},
            {"backend": "gpu"},
            {"model": "resnet"},
        ],
    )
    def test_unknown_components_fail_with_available_list(self, kwargs):
        with pytest.raises(ValueError, match="available:"):
            Scenario(**kwargs)

    def test_unknown_component_suggests_close_match(self):
        with pytest.raises(ValueError, match="did you mean 'collapois'"):
            Scenario(attack="collapois2", compromised_fraction=0.1)

    def test_num_shards_must_be_positive_int(self):
        with pytest.raises(ValueError, match="num_shards"):
            Scenario(num_shards=0)
        with pytest.raises(ValueError, match="num_shards"):
            Scenario(num_shards=2.5)
        with pytest.raises(ValueError, match="num_shards"):
            Scenario(num_shards=True)

    def test_num_shards_round_trips(self):
        scenario = Scenario(num_shards=4)
        assert Scenario.from_dict(scenario.to_dict()).num_shards == 4

    def test_participation_spec_normalizes_and_validates(self):
        scenario = Scenario(participation="churn:availability=0.7")
        assert scenario.participation == "churn"
        assert scenario.participation_kwargs == {"availability": 0.7}
        with pytest.raises(ValueError, match="available:"):
            Scenario(participation="poisson")

    def test_population_spec_normalizes_and_validates(self):
        scenario = Scenario(population="synthetic:cache_size=16")
        assert scenario.population == "synthetic"
        assert scenario.population_kwargs == {"cache_size": 16}
        with pytest.raises(ValueError, match="available:"):
            Scenario(population="trace")

    def test_aggregation_mode_validation(self):
        assert Scenario(aggregation_mode="buffered_async:buffer_size=4").rounds
        with pytest.raises(ValueError, match="aggregation_mode"):
            Scenario(aggregation_mode="warp")
        with pytest.raises(ValueError, match="buffered_async"):
            Scenario(aggregation_mode="buffered_async:bogus=1")
        with pytest.raises(ValueError, match="secure aggregation"):
            Scenario(aggregation_mode="buffered_async", secure_aggregation=True)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rounds": 0},
            {"rounds": 2.5},
            {"rounds": True},
            {"server_lr": 0.0},
            {"aggregation_mode": "buffered_async:buffer_size=0"},
            {"aggregation_mode": "buffered_async:buffer_size=1.5"},
            {"aggregation_mode": "buffered_async:staleness_discount=2.0"},
            {"sample_rate": 1.5},
            {"participation": "uniform:sample_rate=2.0"},
            {"participation": "churn:bogus=1"},
        ],
        ids=["rounds", "rounds_float", "rounds_bool", "server_lr",
             "buffer_size_0", "buffer_size_float", "discount", "sample_rate",
             "uniform_sample_rate", "churn_unknown_kwarg"],
    )
    def test_round_config_the_server_rejects_fails_at_construction(self, kwargs):
        # The scenario builds its ServerConfig, and the participation model
        # from it, while validating, so these fail here, not after the
        # dataset build and trojan training.
        with pytest.raises(ValueError):
            Scenario(**kwargs)
        with pytest.raises(ValueError):
            Scenario.from_dict({**Scenario().to_dict(), **kwargs})

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"local": {"epochs": 2.5}}, "epochs"),
            ({"local": {"epochs": True}}, "epochs"),
            ({"local": {"batch_size": 2.5}}, "batch_size"),
            ({"local": {"batch_size": True}}, "batch_size"),
            ({"eval_every": 0}, "eval_every"),
            ({"eval_every": 1.5}, "eval_every"),
            ({"eval_every": True}, "eval_every"),
            ({"trojan_epochs": 0}, "trojan_epochs"),
            ({"trojan_epochs": 1.5}, "trojan_epochs"),
            ({"attack": "mrepl", "trojan_epochs": 0}, "trojan_epochs"),
            ({"num_clients": 2.5}, "num_clients"),
            ({"samples_per_client": 2.5}, "samples_per_client"),
        ],
        ids=["epochs_float", "epochs_bool", "batch_size_float", "batch_size_bool",
             "eval_every_0", "eval_every_float", "eval_every_bool",
             "trojan_epochs_0", "trojan_epochs_float", "mrepl_trojan_epochs_0",
             "num_clients_float", "samples_per_client_float"],
    )
    def test_counts_fail_at_construction(self, kwargs, name):
        # Each of these used to construct, then fail or misbehave only after
        # the dataset build (eval_every=1.5 evaluated every third round).
        with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
            tiny_scenario(**kwargs)
        with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
            Scenario.from_dict({**Scenario().to_dict(), **kwargs})

    @pytest.mark.parametrize("target_class", [7, -1, 1.0, True])
    def test_target_class_outside_the_classes_fails_at_construction(self, target_class):
        # target_class=7 of 4 classes used to fail only after the dataset build.
        with pytest.raises(ValueError, match=r"target_class must be an int in \[0, num_"):
            tiny_scenario(num_classes=4, target_class=target_class)

    @pytest.mark.parametrize(
        "kwargs, built",
        [
            ({"defense": "krum:bogus=1"}, "defense 'krum'"),
            ({"trigger": "patch:bogus=1"}, "trigger 'patch'"),
            ({"algorithm": "fedavg:bogus=1"}, "algorithm 'fedavg'"),
            ({"population": "synthetic:bogus=1"}, "population 'synthetic'"),
            ({"attack_kwargs": {"bogus": 1}}, "attack 'collapois'"),
            ({"dataset_kwargs": {"bogus": 1}}, "dataset 'femnist'"),
            ({"model_kwargs": {"bogus": 1}}, "model 'mlp'"),
            # The runner builds the token trigger and the text head on
            # sentiment, whatever trigger and model name.
            ({"dataset": "sentiment", "trigger_kwargs": {"patch_size": 3}},
             "trigger 'token'"),
            ({"dataset": "sentiment", "model": "mlp", "model_kwargs": {"dropout": 0.1}},
             "model 'text'"),
        ],
        ids=["defense", "trigger", "algorithm", "population", "attack", "dataset",
             "model", "sentiment_trigger", "sentiment_model"],
    )
    def test_unknown_component_kwargs_fail_at_construction(self, kwargs, built):
        with pytest.raises(ValueError, match=f"{built} got unexpected argument"):
            tiny_scenario(**kwargs)

    def test_component_kwargs_are_checked_against_what_the_runner_builds(self):
        # The token trigger takes ``scale``; the warping trigger does not.
        assert tiny_scenario(dataset="sentiment", trigger_kwargs={"scale": 2.0})
        with pytest.raises(ValueError, match="trigger 'warping' got unexpected"):
            tiny_scenario(trigger_kwargs={"scale": 2.0})

    def test_backend_arguments_fail_at_construction(self):
        # Building the backend checks its arguments; it starts no worker.
        with pytest.raises(ValueError, match="malformed worker address"):
            Scenario(backend="distributed:connect='no-port'")
        with pytest.raises(ValueError, match="1-65535"):
            Scenario(backend="distributed:connect='127.0.0.1:99999'")
        for timeout in (0, -1, "5", True):
            with pytest.raises(ValueError, match="spawn_timeout"):
                Scenario(backend="distributed", backend_kwargs={"spawn_timeout": timeout})

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"participation_kwargs": {"sample_rate": 0.9}, "sample_rate": 0.3},
             "participation_kwargs"),
            ({"population_kwargs": {"cache_size": 2, "bogus": 1}}, "population_kwargs"),
            ({"attack_kwargs": {"bogus": 1}}, "attack_kwargs"),
            ({"attack": "none:bogus=1"}, "attack_kwargs"),
        ],
        ids=["participation", "population", "attack", "attack_spec"],
    )
    def test_kwargs_of_an_unset_component_are_rejected(self, kwargs, field):
        # Nothing would read them: the run would go ahead without them.
        with pytest.raises(ValueError, match=field):
            Scenario(**kwargs)
        with pytest.raises(ValueError, match=field):
            Scenario.from_dict({**Scenario().to_dict(), **kwargs})

    @pytest.mark.parametrize(
        "kwargs, field, key, hint",
        [
            ({"dataset_kwargs": {"num_classes": 6}}, "dataset_kwargs", "num_classes",
             "set the num_classes field"),
            ({"dataset": "femnist:image_size=8"}, "dataset_kwargs", "image_size",
             "set the image_size field"),
            ({"model_kwargs": {"num_classes": 3}}, "model_kwargs", "num_classes",
             "set the num_classes field"),
            ({"model": "lenet", "model_kwargs": {"image_size": 16}}, "model_kwargs",
             "image_size", "set the image_size field"),
            ({"model_kwargs": {"in_features": 64}}, "model_kwargs", "in_features",
             "derived as image_size"),
            ({"dataset": "sentiment", "model": "text", "model_kwargs": {"embedding_dim": 8}},
             "model_kwargs", "embedding_dim", "derived from the dataset"),
        ],
        ids=["dataset-num_classes", "dataset-image_size", "model-num_classes",
             "model-image_size", "model-in_features", "model-embedding_dim"],
    )
    def test_kwargs_may_not_override_the_geometry_data_and_model_share(
        self, kwargs, field, key, hint
    ):
        # Overriding one side built mismatched data and model: the run failed
        # mid-way or trained a head of the wrong width without a word.
        with pytest.raises(ValueError, match=rf"{field} may not set '{key}'.*{hint}"):
            tiny_scenario(**kwargs)

    def test_unsetting_a_component_drops_its_kwargs(self):
        scenario = Scenario(
            population="synthetic:cache_size=2",
            participation="churn:availability=0.8",
            attack="dba:num_parts=2",
        )
        unset = scenario.with_overrides(population=None, participation=None, attack="none")
        assert unset.population_kwargs == unset.participation_kwargs == {}
        assert unset.attack_kwargs == {}

    def test_population_changes_data_signature(self):
        eager = Scenario()
        lazy = Scenario(population="synthetic")
        assert eager.data_signature() != lazy.data_signature()

    def test_sentiment_normalization_is_explicit_and_identical(self):
        scenario = Scenario(dataset="sentiment", num_classes=10)
        assert scenario.num_classes == 2
        assert scenario.model in {"text", "mlp"}
        assert Scenario(dataset="sentiment", model="lenet").model == "text"
        # the normalised form round-trips without re-normalisation surprises
        assert Scenario.from_dict(scenario.to_dict()) == scenario


class TestJsonRoundTrip:
    def test_dict_round_trip_is_lossless(self):
        scenario = tiny_scenario(
            defense="krum:num_malicious=1",
            local=LocalTrainingConfig(epochs=2, batch_size=4),
            eval_every=1,
            clip_bound=1.5,
        )
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_json_round_trip_is_lossless(self):
        scenario = tiny_scenario(hidden=(32, 16))
        restored = Scenario.from_json(scenario.to_json())
        assert restored == scenario
        assert restored.hidden == (32, 16)

    def test_save_load(self, tmp_path):
        scenario = tiny_scenario()
        path = tmp_path / "scenario.json"
        scenario.save(path)
        assert Scenario.load(path) == scenario

    def test_unknown_key_rejected_with_suggestion(self):
        data = tiny_scenario().to_dict()
        data["allpha"] = 0.4
        del data["alpha"]
        with pytest.raises(ValueError, match=r"allpha \(did you mean 'alpha'\?\)"):
            Scenario.from_dict(data)

    def test_rerun_of_loaded_scenario_is_bit_identical(self):
        scenario = tiny_scenario(eval_every=1, defense="norm_bound:max_norm=2.0")
        first = run_experiment(scenario)
        restored = Scenario.from_json(scenario.to_json())
        second = run_experiment(restored)
        assert first.history.records == second.history.records
        assert first.history.to_dict() == second.history.to_dict()
        assert first.evaluation.as_dict() == second.evaluation.as_dict()

    def test_participation_fields_round_trip(self):
        scenario = tiny_scenario(
            attack="none",
            population="synthetic:cache_size=16,eval_clients=4",
            participation="tiered:sample_rate=0.5,jitter=0.1",
            aggregation_mode="buffered_async:buffer_size=2",
        )
        restored = Scenario.from_json(scenario.to_json())
        assert restored == scenario
        assert restored.population_kwargs == {"cache_size": 16, "eval_clients": 4}
        assert restored.participation_kwargs == {"sample_rate": 0.5, "jitter": 0.1}
        assert restored.aggregation_mode == "buffered_async:buffer_size=2"

    def test_legacy_sample_rate_form_round_trips(self):
        # Scenarios without the new fields (pre-participation-API JSON) load
        # and re-serialise unchanged; sample_rate remains the uniform sugar.
        data = tiny_scenario(sample_rate=0.4).to_dict()
        assert data["participation"] is None
        restored = Scenario.from_dict(data)
        assert restored.sample_rate == 0.4
        assert restored.to_dict() == data

    def test_history_serialization_round_trip(self):
        history = run_experiment(tiny_scenario(eval_every=2)).history
        restored = TrainingHistory.from_dict(history.to_dict())
        assert restored.records == history.records

    def test_history_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown round-record key"):
            TrainingHistory.from_dict({"records": [{"bogus": 1}]})


class TestNumShardsIsIgnored:
    """``num_shards`` is accepted, for old specs and results, and ignored."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"secure_aggregation": True, "telemetry": True},
            {"backend": "distributed", "backend_workers": 2},
        ],
        ids=["serial-secagg-telemetry", "distributed"],
    )
    def test_starts_no_thread_and_changes_no_history(self, overrides, monkeypatch):
        started: list[str] = []
        real_start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        sharded = tiny_scenario(num_shards=2, **overrides).run()
        assert started == []
        plain = tiny_scenario(num_shards=1, **overrides).run()
        assert sharded.history.to_dict() == plain.history.to_dict()


class TestRun:
    def test_scenario_run_matches_run_experiment(self):
        scenario = tiny_scenario()
        assert (
            scenario.run().history.records
            == run_experiment(scenario).history.records
        )

    def test_population_scenario_runs_end_to_end(self):
        # A lazy population with churn + stragglers under buffered-async
        # aggregation: the full runner path (attack included) must work
        # without ever materialising more clients than the cache holds.
        scenario = tiny_scenario(
            num_clients=64,
            population="synthetic:cache_size=8,eval_clients=4",
            participation="tiered:sample_rate=0.1,min_clients=3",
            aggregation_mode="buffered_async:buffer_size=2",
        )
        result = run_experiment(scenario)
        dataset = result.extras["dataset"]
        assert dataset.num_clients == 64
        assert dataset.cache_info()["size"] <= 8
        assert len(result.history) == 2
        assert all(
            "buffered_async" in r.extras for r in result.history.records
        )

    def test_population_uniform_run_is_deterministic(self):
        scenario = tiny_scenario(
            attack="none",
            num_clients=32,
            population="synthetic:cache_size=8,eval_clients=4",
        )
        a = run_experiment(scenario)
        b = run_experiment(scenario)
        assert a.history.records == b.history.records
        assert a.evaluation.as_dict() == b.evaluation.as_dict()

"""Tests for pairwise-masked secure aggregation.

The acceptance bar: per seed, ``secure_aggregation=True`` produces a
``TrainingHistory`` bit-identical to the plaintext run for every server-blind
defense, on every backend — including forced out-of-order completion and a
worker SIGKILLed mid-round — while inspection defenses fail fast with the
structured capability error and nothing outside the sealed aggregator layer
ever observes a plaintext update.
"""

from __future__ import annotations

import os
import signal
from functools import lru_cache

import numpy as np
import pytest

from repro.defenses.base import AggregationContext
from repro.experiments import runner
from repro.experiments.scenario import Scenario
from repro.federated.engine import CallbackHook
from repro.federated.engine.plan import ClientUpdate
from repro.federated.secagg import (
    MASKED_KEY,
    PlaintextRequiredError,
    SecureAggregator,
    client_round_mask,
    mask_update,
    mask_words,
    pairwise_mask,
    unmask_update,
    unmask_words,
)
from repro.federated.secagg.masking import _WORD_MAX


def base_scenario(**overrides) -> Scenario:
    """Tiny full-participation federation: 8 benign tasks per round."""
    scenario = Scenario(
        dataset="femnist",
        num_clients=8,
        samples_per_client=10,
        num_classes=4,
        image_size=8,
        hidden=(16,),
        rounds=2,
        sample_rate=1.0,
        local={"epochs": 1, "batch_size": 8, "lr": 0.05},
        seed=5,
        attack="none",
        max_test_samples=8,
    )
    return scenario.with_overrides(**overrides) if overrides else scenario


@lru_cache(maxsize=None)
def plaintext_history(defense: str = "mean") -> list:
    result = base_scenario(defense=defense).run()
    return result.history.to_dict()["records"]


def secagg_history(hooks=None, **overrides) -> tuple[list, object]:
    result = base_scenario(secure_aggregation=True, **overrides).run(hooks=hooks)
    return result.history.to_dict()["records"], result.extras["server"]


class TestMasking:
    def test_pair_mask_is_deterministic_and_symmetric(self):
        a = pairwise_mask(7, 3, 1, 5, dim=64)
        b = pairwise_mask(7, 3, 5, 1, dim=64)
        assert a.dtype == np.uint64
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, pairwise_mask(7, 3, 1, 5, dim=64))

    def test_pair_mask_varies_with_round_seed_and_pair(self):
        base = pairwise_mask(7, 3, 1, 5, dim=64)
        assert not np.array_equal(base, pairwise_mask(7, 4, 1, 5, dim=64))
        assert not np.array_equal(base, pairwise_mask(8, 3, 1, 5, dim=64))
        assert not np.array_equal(base, pairwise_mask(7, 3, 1, 6, dim=64))

    def test_no_self_pair(self):
        with pytest.raises(ValueError, match="itself"):
            pairwise_mask(7, 3, 2, 2, dim=4)

    def test_round_masks_cancel_over_participants(self):
        participants = (0, 2, 5, 9, 11)
        total = np.zeros(128, dtype=np.uint64)
        for client in participants:
            total += client_round_mask(3, 1, client, participants, dim=128)
        # Sum of all aggregate masks is identically 0 mod 2**64.
        assert not total.any()

    def test_round_masks_cover_full_word_range_statistically(self):
        mask = pairwise_mask(0, 0, 0, 1, dim=4096)
        # Top bit set in about half the words: the mask really draws from the
        # full 64-bit range, not a sign-limited subset.
        top = int(np.count_nonzero(mask >> np.uint64(63)))
        assert 1500 < top < 2600

    def test_mask_words_roundtrip_preserves_every_bit_pattern(self):
        update = np.array(
            [0.0, -0.0, 1.5, -1.5e300, np.inf, -np.inf, np.nan, 5e-324]
        )
        mask = pairwise_mask(11, 2, 0, 1, dim=update.shape[0])
        masked = mask_words(update, mask)
        recovered = unmask_words(masked, mask)
        np.testing.assert_array_equal(
            update.view(np.uint64), recovered.view(np.uint64)
        )

    def test_mask_update_roundtrip_is_exact(self):
        rng = np.random.default_rng(0)
        update = rng.normal(size=513)
        participants = (0, 1, 2, 3, 4)
        masked = mask_update(update, 9, 4, 2, participants)
        assert not np.array_equal(
            masked.view(np.uint64), update.view(np.uint64)
        )
        recovered = unmask_update(masked, 9, 4, 2, participants)
        np.testing.assert_array_equal(
            update.view(np.uint64), recovered.view(np.uint64)
        )

    def test_masked_sum_of_all_participants_is_plaintext_sum_in_words(self):
        # The protocol-level identity this module simulates: adding every
        # participant's masked words recovers the sum of the plaintext words.
        rng = np.random.default_rng(1)
        participants = (0, 1, 2, 3)
        updates = {c: rng.normal(size=32) for c in participants}
        word_sum = np.zeros(32, dtype=np.uint64)
        masked_sum = np.zeros(32, dtype=np.uint64)
        for c in participants:
            word_sum += updates[c].view(np.uint64)
            masked_sum += mask_update(updates[c], 5, 0, c, participants).view(
                np.uint64
            )
        np.testing.assert_array_equal(word_sum, masked_sum)

    def test_word_max_is_full_range(self):
        assert _WORD_MAX == (1 << 64) - 1


class TestSecureAggregator:
    def _update(self, slot, vec, masked=True, client_id=None):
        return ClientUpdate(
            client_id=slot if client_id is None else client_id,
            slot=slot,
            update=vec,
            metadata={MASKED_KEY: True} if masked else {},
        )

    def test_rejects_plaintext_required_defense(self):
        from repro.defenses.registry import make_defense

        krum = make_defense("krum")
        with pytest.raises(PlaintextRequiredError) as excinfo:
            SecureAggregator(krum, seed=0)
        assert excinfo.value.defense == "krum"
        assert excinfo.value.capability == "requires_plaintext_updates"
        assert "server-blind" in str(excinfo.value)

    def test_rejects_unmasked_update(self):
        from repro.defenses.base import MeanAggregator

        secagg = SecureAggregator(MeanAggregator(), seed=0)
        ctx = AggregationContext(
            rng=np.random.default_rng(0), round_idx=0, sampled_clients=(0, 1)
        )
        state = secagg.begin_round(ctx)
        with pytest.raises(ValueError, match="unmasked"):
            secagg.accumulate(state, self._update(0, np.zeros(4), masked=False))

    def test_unmasks_and_folds_exactly_like_plaintext(self):
        from repro.defenses.base import MeanAggregator

        rng = np.random.default_rng(2)
        participants = (3, 7, 9)
        updates = {c: rng.normal(size=65) for c in participants}
        ctx = AggregationContext(
            rng=np.random.default_rng(0), round_idx=5, sampled_clients=participants
        )
        secagg = SecureAggregator(MeanAggregator(), seed=17)
        state = secagg.begin_round(ctx)
        for slot, client in enumerate(participants):
            masked = mask_update(updates[client], 17, 5, client, participants)
            secagg.accumulate(state, self._update(slot, masked, client_id=client))
        folded = secagg.finalize(state, np.zeros(65), ctx)

        # Reference: the same streaming fold fed the plaintext directly.
        plain = MeanAggregator()
        ref_state = plain.begin_round(ctx)
        for slot, client in enumerate(participants):
            plain.accumulate(
                ref_state,
                self._update(slot, updates[client], masked=False, client_id=client),
            )
        expected = plain.finalize(ref_state, np.zeros(65), ctx)
        np.testing.assert_array_equal(folded, expected)

    def test_name_wraps_inner(self):
        from repro.defenses.base import MeanAggregator

        assert SecureAggregator(MeanAggregator(), seed=0).name == "secagg(mean)"


class TestCapabilityFlags:
    def test_issue_defenses_require_plaintext(self):
        from repro.registry import DEFENSES

        requires = {
            name
            for name in DEFENSES.names()
            if getattr(DEFENSES.get(name), "requires_plaintext_updates", False)
        }
        # Pinned: exactly the cross-client inspection defenses.  A defense
        # whose math is a per-update-local transform plus a sum must NOT
        # appear here — flipping one of these is an API-visible change.
        assert requires == {"krum", "median", "trimmed_mean", "rlr",
                           "detector", "flare"}

    def test_scenario_rejects_inspection_defense_under_secagg(self):
        with pytest.raises(PlaintextRequiredError, match="krum"):
            base_scenario(defense="krum", secure_aggregation=True)

    def test_update_consuming_algorithm_rejected(self):
        scenario = base_scenario(algorithm="feddc", secure_aggregation=True)
        with pytest.raises(ValueError, match="post_aggregate"):
            scenario.run()

    def test_scenario_json_roundtrip_keeps_secagg(self):
        scenario = base_scenario(secure_aggregation=True)
        clone = Scenario.from_json(scenario.to_json())
        assert clone.secure_aggregation is True
        assert clone == scenario


class TestDistributedConstruction:
    def test_float32_wire_format_rejected_with_secagg(self):
        from repro.federated.engine.backends import make_backend

        with pytest.raises(ValueError, match="float64"):
            make_backend(
                "distributed", wire_dtype="float32", secure_aggregation=True
            )

    def test_float32_scenario_with_secagg_fails_at_backend_build(self):
        from repro.experiments.runner import build_backend

        scenario = base_scenario(
            backend="distributed",
            backend_kwargs={"wire_dtype": "float32"},
            secure_aggregation=True,
        )
        with pytest.raises(ValueError, match="float64"):
            build_backend(scenario)

    def test_float64_with_secagg_constructs(self):
        from repro.federated.engine.backends import make_backend

        backend = make_backend("distributed", secure_aggregation=True)
        assert backend.secure_aggregation is True


class TestBitIdentity:
    @pytest.mark.parametrize("defense", ["mean", "weighted_mean"])
    def test_serial_secagg_equals_plaintext(self, defense):
        records, _server = secagg_history(defense=defense)
        assert records == plaintext_history(defense)

    @pytest.mark.parametrize("defense", ["mean", "weighted_mean"])
    def test_reordered_secagg_equals_plaintext(
        self, defense, reordered_backend, monkeypatch
    ):
        plain = base_scenario(defense=defense).run()  # on the serial backend
        monkeypatch.setattr(runner, "build_backend", lambda _config: reordered_backend)
        records, server = secagg_history(defense=defense)
        assert reordered_backend.out_of_order
        assert records == plain.history.to_dict()["records"]
        np.testing.assert_array_equal(
            server.global_params, plain.extras["server"].global_params
        )

    def test_hooks_only_see_masked_updates(self):
        # The observability boundary: every update event outside the sealed
        # aggregator carries masked words, flagged as such.
        seen: list[ClientUpdate] = []
        hook = CallbackHook(on_update=lambda s, p, u: seen.append(u))
        records, _server = secagg_history(hooks=[hook])
        assert records == plaintext_history("mean")
        assert seen
        assert all(u.metadata.get(MASKED_KEY) for u in seen)

    def test_server_blind_defense_stack_under_sharding(self):
        records, _server = secagg_history(defense="norm_bound", num_shards=2)
        plain = base_scenario(defense="norm_bound", num_shards=2).run()
        assert records == plain.history.to_dict()["records"]


class TestDistributedBitIdentity:
    def test_distributed_secagg_equals_plaintext(self):
        records, server = secagg_history(backend="distributed", backend_workers=2)
        assert records == plaintext_history("mean")
        assert server.backend.redispatch_count == 0

    def test_reordered_completion(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_TEST_DELAY", "0.4")
        arrivals: list[int] = []
        hook = CallbackHook(on_update=lambda s, p, u: arrivals.append(u.slot))
        records, _server = secagg_history(
            hooks=[hook], backend="distributed", backend_workers=2
        )
        assert records == plaintext_history("mean")
        per_round = len(arrivals) // 2
        first_round = arrivals[:per_round]
        assert first_round != sorted(first_round), "delays failed to reorder arrivals"

    def test_worker_kill_mid_round_recovers_masks(self, monkeypatch):
        """Masks re-derive deterministically on the surviving worker."""
        monkeypatch.setenv("REPRO_WORKER_TEST_DELAY", "0.3")
        killed: list[int] = []

        def kill_one(server, plan, update):
            if killed:
                return
            backend = server.backend
            victims = [link for link in backend.workers if link.outstanding]
            if victims:
                os.kill(victims[-1].pid, signal.SIGKILL)
                killed.append(victims[-1].pid)

        hook = CallbackHook(on_update=kill_one)
        records, server = secagg_history(
            hooks=[hook], backend="distributed", backend_workers=2
        )
        assert records == plaintext_history("mean")
        assert killed, "test never killed a worker"
        assert server.backend.redispatch_count > 0

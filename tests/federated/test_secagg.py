"""Tests for pairwise-masked secure aggregation.

The acceptance bar: per seed, ``secure_aggregation=True`` produces a
``TrainingHistory`` bit-identical to the plaintext run for every
server-blind defense, on every backend, while inspection defenses and
update-consuming algorithms fail at construction and nothing outside the
sealed aggregator layer ever observes a plaintext update.  The invariant
matrix (``test_invariant_matrix.py``) holds the bit-identity, the masked
hook view, a sparse SecAgg+ ring and each rejection in its secure cells.
The tests here pin the masks themselves, their ring and their counts, the
sealed aggregator, and a worker SIGKILLed mid-round.
"""

from __future__ import annotations

import math
import os
import signal
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from repro.defenses.base import AggregationContext
from repro.experiments.scenario import Scenario
from repro.federated.engine import CallbackHook
from repro.federated.engine.plan import ClientUpdate
from repro.federated.rng import pair_mask_seed_sequence
from repro.federated.secagg import (
    MASKED_KEY,
    PlaintextRequiredError,
    SecureAggregator,
    client_round_mask,
    mask_neighbours,
    mask_update,
    masking,
    pairwise_mask,
    unmask_update,
)

#: Participant counts the mask-graph tests sweep: every n up to 17 and both
#: sides of three powers of two.
RING_SIZES = (*range(2, 18), 31, 32, 33, 64, 100, 127, 128)


def ring_degree(n: int) -> int:
    """SecAgg+'s k(n) = min(n - 1, 2 * ceil(log2 n)), in floats on purpose."""
    return min(n - 1, 2 * math.ceil(math.log2(n)))


def participant_ids(n: int) -> tuple[int, ...]:
    """``n`` sparse, unsorted client ids: ring order must not follow id order."""
    return tuple(int(c) for c in np.random.default_rng(n).permutation(7 * n)[:n])


@pytest.fixture
def pair_mask_calls(monkeypatch):
    """Record every ``pairwise_mask`` expansion as its ``(client, other)`` pair."""
    calls: list[tuple[int, int]] = []
    real = masking.pairwise_mask

    def counting(seed, round_idx, client_a, client_b, dim):
        calls.append((client_a, client_b))
        return real(seed, round_idx, client_a, client_b, dim)

    monkeypatch.setattr(masking, "pairwise_mask", counting)
    return calls


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes it allocates above what is live before."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _peak = tracemalloc.get_traced_memory()
        result = fn(*args)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return result, peak - base


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
def plaintext_history() -> list:
    return base_scenario().run().history.to_dict()["records"]


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

    def test_mask_update_roundtrip_preserves_every_bit_pattern(self):
        update = np.array(
            [0.0, -0.0, 1.5, -1.5e300, np.inf, -np.inf, np.nan, 5e-324]
        )
        participants = (0, 1)
        masked = mask_update(update, 11, 2, 0, participants)
        recovered = unmask_update(masked, 11, 2, 0, participants)
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

    @pytest.mark.parametrize("dim", [0, 1, 7, 102_538])
    def test_pair_mask_is_numpys_full_range_integers(self, dim):
        # The raw stream is what the full-range ``integers`` draw returns.
        for seed, round_idx, a, b in ((0, 0, 0, 1), (7, 3, 5, 1), (2**40, 9, 12, 300)):
            expected = np.random.default_rng(
                pair_mask_seed_sequence(seed, round_idx, a, b)
            ).integers(0, 2**64 - 1, size=dim, dtype=np.uint64, endpoint=True)
            mask = pairwise_mask(seed, round_idx, a, b, dim)
            assert mask.dtype == np.uint64
            np.testing.assert_array_equal(mask, expected)

    def test_mask_and_unmask_leave_their_input_unchanged(self):
        participants = tuple(range(16))
        update = np.random.default_rng(3).normal(size=1000)
        before = update.tobytes()
        masked = mask_update(update, 6, 2, 5, participants)
        assert update.tobytes() == before
        ciphertext = masked.tobytes()
        recovered = unmask_update(masked, 6, 2, 5, participants)
        assert masked.tobytes() == ciphertext
        assert recovered.tobytes() == before

    @pytest.mark.parametrize("fn", [mask_update, unmask_update], ids=["mask", "unmask"])
    def test_peak_memory_is_one_output_and_one_stream(self, fn):
        # n = 16 participants, so k = 8 ring neighbours: the output vector
        # and one pair stream are live at a time, never an accumulator.
        dim = 100_000
        participants = tuple(range(16))
        assert len(mask_neighbours(1, 0, 3, participants)) == 8
        update = np.random.default_rng(4).normal(size=dim)
        _vector, peak = traced_peak(fn, update, 1, 0, 3, participants)
        assert peak <= 2 * dim * 8 * 1.01


class TestMaskGraph:
    """The round's mask graph is SecAgg+'s k-regular Harary ring."""

    @pytest.mark.parametrize("n", RING_SIZES)
    def test_graph_is_symmetric_k_regular_without_self_pairs(self, n):
        participants = participant_ids(n)
        k = ring_degree(n)
        graph = {c: mask_neighbours(4, 2, c, participants) for c in participants}
        for client, neighbours in graph.items():
            assert len(neighbours) == len(set(neighbours)) == k
            assert client not in neighbours
            assert set(neighbours) <= set(participants)
            for other in neighbours:
                assert client in graph[other]
        # The complete graph survives only as the k = n - 1 case.
        assert (k == n - 1) == (n <= 7 or n == 9)
        if k == n - 1:
            assert all(set(graph[c]) == set(participants) - {c} for c in participants)

    @pytest.mark.parametrize("n", RING_SIZES)
    def test_graph_depends_on_the_participant_set_only(self, n):
        participants = participant_ids(n)
        shuffled = [int(c) for c in np.random.default_rng(99).permutation(participants)]
        duplicated = shuffled + shuffled[: n // 2 + 1]
        for client in participants:
            expected = mask_neighbours(4, 2, client, participants)
            assert expected == sorted(expected)
            assert mask_neighbours(4, 2, client, shuffled) == expected
            assert mask_neighbours(4, 2, client, duplicated) == expected
            assert mask_neighbours(4, 2, client, participants) == expected

    @pytest.mark.parametrize("n", RING_SIZES)
    def test_round_masks_cancel_over_participants(self, n):
        participants = participant_ids(n)
        total = np.zeros(3, dtype=np.uint64)
        for client in participants:
            total += client_round_mask(6, 1, client, participants, dim=3)
        assert not total.any()

    @pytest.mark.parametrize("n", RING_SIZES)
    def test_non_participant_raises(self, n):
        participants = participant_ids(n)
        outsider = max(participants) + 1
        with pytest.raises(ValueError, match="participants"):
            mask_neighbours(4, 2, outsider, participants)
        with pytest.raises(ValueError, match="participants"):
            mask_update(np.zeros(2), 4, 2, outsider, participants)

    def test_ring_order_is_drawn_per_round(self):
        participants = participant_ids(16)
        rounds = [
            {c: mask_neighbours(4, r, c, participants) for c in participants}
            for r in (0, 1)
        ]
        assert rounds[0] != rounds[1]

    def test_lone_participant_keeps_a_zero_mask(self, pair_mask_calls):
        assert mask_neighbours(4, 2, 7, [7]) == []
        assert not client_round_mask(4, 2, 7, [7], dim=5).any()
        assert pair_mask_calls == []


class TestMaskCount:
    """PRG expansions per party and per phase, in closed form in n and k."""

    @pytest.mark.parametrize("n", RING_SIZES)
    def test_round_makes_two_n_k_expansions(self, n, pair_mask_calls):
        from repro.defenses.base import MeanAggregator

        participants = participant_ids(n)
        k = ring_degree(n)
        dim = 4
        rng = np.random.default_rng(n)
        updates = {c: rng.normal(size=dim) for c in participants}
        ctx = AggregationContext(
            rng=np.random.default_rng(0), round_idx=3, sampled_clients=participants
        )
        secagg = SecureAggregator(MeanAggregator(), seed=8)
        state = secagg.begin_round(ctx)
        for slot, client in enumerate(participants):
            # Mask phase: one expansion per ring neighbour.
            before = len(pair_mask_calls)
            masked = mask_update(updates[client], 8, 3, client, participants)
            neighbours = mask_neighbours(8, 3, client, participants)
            assert pair_mask_calls[before:] == [(client, j) for j in neighbours]
            assert len(neighbours) == k
            # Unmask phase, in the sealed aggregator: k more.
            before = len(pair_mask_calls)
            secagg.accumulate(
                state,
                ClientUpdate(client_id=client, slot=slot, update=masked,
                             metadata={MASKED_KEY: True}),
            )
            assert len(pair_mask_calls) - before == k
        assert len(pair_mask_calls) == 2 * n * k
        assert 2 * n * k <= 4 * n * math.ceil(math.log2(n))

        plain = MeanAggregator()
        ref_state = plain.begin_round(ctx)
        for slot, client in enumerate(participants):
            plain.accumulate(
                ref_state, ClientUpdate(client_id=client, slot=slot, update=updates[client])
            )
        np.testing.assert_array_equal(
            secagg.finalize(state, np.zeros(dim), ctx),
            plain.finalize(ref_state, np.zeros(dim), ctx),
        )

    def test_secagg_workload_round_count(self, pair_mask_calls):
        # The perfbench secagg-distributed scenario, run serially and small:
        # 16 participants, k = 8, so 2 rounds x 2 phases x 16 x 8 = 512
        # expansions (the complete graph made 2 x 2 x 16 x 15 = 960).
        scenario = Scenario(
            dataset="femnist",
            hidden=(16,),
            num_clients=16,
            samples_per_client=16,
            sample_rate=1.0,
            attack="collapois",
            compromised_fraction=0.1,
            trojan_epochs=1,
            defense="mean",
            num_shards=2,
            secure_aggregation=True,
            rounds=2,
            max_test_samples=8,
        )
        result = scenario.run()
        assert [len(r.sampled_clients) for r in result.history.records] == [16, 16]
        assert len(pair_mask_calls) == 512


class TestSecureAggregator:
    def _update(self, slot, vec, masked=True, client_id=None):
        return ClientUpdate(
            client_id=slot if client_id is None else client_id,
            slot=slot,
            update=vec,
            metadata={MASKED_KEY: True} if masked else {},
        )

    def test_rejects_plaintext_required_defense(self):
        from repro.registry import DEFENSES

        krum = DEFENSES.create("krum")
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

    def test_scenario_json_roundtrip_keeps_secagg(self):
        scenario = base_scenario(secure_aggregation=True)
        clone = Scenario.from_json(scenario.to_json())
        assert clone.secure_aggregation is True
        assert clone == scenario


class TestDistributedBitIdentity:
    def test_worker_kill_mid_round_recovers_masks(self, delay_updates):
        """Masks re-derive deterministically on the surviving worker."""
        delay_updates(0.3)
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
        assert records == plaintext_history()
        assert killed, "test never killed a worker"
        assert server.backend.redispatch_count > 0

"""The benchmark's named workloads: CollaPois runs in the paper's setting.

Every workload is a closed loop with one caller: the benchmark process
drives synchronous rounds, and each round starts only after the previous
one has aggregated.  A workload turns a seed into a ``Scenario``; the
program receives nothing else.  The seed is the scenario's data seed, so
two seeds give two different federations.  The training seed (model
initialisation, compromised clients, round cohorts) is fixed per workload:
with it drawn from the seed too, a run's timings would mostly measure how
many clients round 0 happened to sample.

One *repetition* is one full call of the run entry
(``repro.experiments.runner.run_experiment``): build, set up the attack,
run ``rounds`` rounds, evaluate every benign client.  A benchmark run
repeats it with the same scenario until its time is up, and at least
``min_reps`` times, so set-up is measured several times per run and every
repetition replays the same history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Scenario ``seed`` of every workload; ``--seed`` is the data seed.
TRAINING_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    #: Scenario fields (seed fields are added by :meth:`scenario`).
    fields: dict
    #: Rounds in one repetition.
    rounds: int
    #: Repetitions a run makes even when its time is up.
    min_reps: int
    #: Fields overriding ``fields`` for the self-check's tiny size.
    tiny: dict

    def scenario(self, seed: int, tiny: bool = False):
        from repro.experiments import Scenario
        from repro.federated.client import LocalTrainingConfig

        fields = dict(self.fields, rounds=self.rounds)
        if tiny:
            fields.update(self.tiny)
        local = fields.pop("local", {})
        return Scenario(
            name=self.name,
            seed=TRAINING_SEED,
            data_seed=seed,
            local=LocalTrainingConfig(**local),
            **fields,
        )

    def tail_percentile(self, tiny: bool = False) -> tuple[int, int]:
        """The highest whole percentile every run can report, with its floor count.

        A run pools rounds 1.. of at least ``min_reps`` repetitions; the
        percentile is fixed from that floor so it never changes between
        runs, and at least ``TAIL_BEYOND`` of the floor lie beyond it.
        Returns ``(percentile, guaranteed sample count)``.
        """
        rounds = self.tiny.get("rounds", self.rounds) if tiny else self.rounds
        floor = self.min_reps * (rounds - 1)
        return max(50, 100 - math.ceil(100 * TAIL_BEYOND / floor)), floor


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's headline case and the plain single-worker baseline.
        # Why: local training (nn kernels) dominates, plus trojan training
        # in set-up and periodic client-level evaluation (every 25 rounds,
        # which is what makes this workload's round tail).  Defense folds
        # are cheap; no secure aggregation, no wire.
        Workload(
            name="collapois-femnist",
            fields=dict(
                dataset="femnist",
                num_clients=60,
                samples_per_client=36,
                num_classes=10,
                image_size=16,
                alpha=0.2,
                model="mlp",
                hidden=(64,),
                attack="collapois",
                compromised_fraction=0.1,
                trojan_epochs=12,
                defense="mean",
                backend="serial",
                sample_rate=0.2,
                local={"epochs": 2, "batch_size": 8},
                eval_every=25,
            ),
            # One periodic evaluation per repetition: many short
            # repetitions give the closing evaluation many samples per run.
            rounds=25,
            # 14 x 24 pooled rounds put the tail at p97, inside the 4% of
            # rounds that evaluate.
            min_reps=14,
            tiny=dict(num_clients=12, samples_per_client=12, rounds=3, eval_every=2,
                      trojan_epochs=1, max_test_samples=8),
        ),
        # A robust defense over a large lazy population.
        # Why: population cache misses dominate the rounds -- ~100 clients
        # per round against an LRU of 32, so nearly every lookup
        # re-materialises a client (about three quarters of round time when
        # traced).  The client-stacked kernels and the buffering defense
        # path (O(n*d) state and pairwise distances in krum's finalize)
        # make most of the rest.  It is also where batched loses on memory:
        # the stacked clients hold several times serial's RSS.
        Workload(
            name="krum-sentiment-batched",
            fields=dict(
                dataset="sentiment",
                hidden=(512,),
                population="synthetic:cache_size=32",
                num_clients=10_000,
                samples_per_client=24,
                sample_rate=0.01,
                attack="collapois",
                compromised_fraction=0.01,
                defense="krum:num_malicious=5,multi=20",
                backend="batched",
            ),
            # Short repetitions: each yields one first round, one closing
            # evaluation and one set-up, so a run gets a dozen of each.
            # 8 x 5 pooled rounds put the tail at p75.
            rounds=6,
            min_reps=8,
            tiny=dict(num_clients=400, sample_rate=0.05, rounds=3,
                      defense="krum:num_malicious=2,multi=4", max_test_samples=8),
        ),
        # The wire and secure aggregation.
        # Why: worker spawn, frame encode/decode, masking and unmasking,
        # and the sharded streaming fold dominate; local training is small.
        # The fold layer runs streaming, sharded and masked here, where
        # krum-sentiment-batched buffers.  Round 0 includes the lazy worker
        # spawn and the workers' context build.  The benchmark pins itself
        # to one CPU and the workers inherit it, so rounds add up driver
        # and worker work instead of overlapping them.
        Workload(
            name="secagg-distributed",
            fields=dict(
                dataset="femnist",
                hidden=(384,),
                num_clients=16,
                samples_per_client=16,
                sample_rate=1.0,
                attack="collapois",
                compromised_fraction=0.1,
                defense="mean",
                num_shards=2,
                secure_aggregation=True,
                backend="distributed",
                backend_workers=2,
                backend_kwargs={"wire_dtype": "float64"},
            ),
            # Round 0 (spawn) costs as much as seven later rounds, so
            # repetitions stay short to give a run several of each
            # once-per-repetition figure.  5 x 3 pooled rounds: p50.
            rounds=4,
            min_reps=5,
            tiny=dict(num_clients=6, samples_per_client=8, hidden=(32,), rounds=3,
                      trojan_epochs=1, max_test_samples=8),
        ),
    )
}

"""One generated matrix for the cross-mode invariant of the federated engine.

Per seed, every execution mode yields the same :class:`TrainingHistory`:
the backend (serial, batched, distributed, or the reordered-arrival
double), secure aggregation and telemetry change how a round runs, never
what it computes.  A seeded greedy pairwise generator (strength 2; Kuhn,
Kacker and Lei, "Practical Combinatorial Testing", NIST SP 800-142) picks
rows over :data:`AXES` so that every allowed pair of settings shares a row.
Its seed is fixed, so the rows and their cell ids are stable.

Each cell runs once against its reference: the same participation,
aggregation mode, defense, algorithm, attack and population on the serial
backend, plaintext and untraced, run once per key of those axes (a uniform
cell's reference uses the ``Scenario.sample_rate`` shorthand for its
explicit spec).  History records, final global parameters and the
model-channel ledger must equal the reference's bit for bit, and each cell
asserts the invariants of the features it holds (:func:`assert_features`).
Each pair of settings ``Scenario`` rejects is a cell that asserts the
rejection at construction.

Mechanisms the matrix cannot express keep their own pins: a worker killed
mid-round, forced out-of-order worker completion, FedDC drift larger than
the socket buffers, frame faults, mask and byte counts in closed form, and
the batched fallbacks.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest

from repro.experiments import runner
from repro.experiments.scenario import Scenario
from repro.federated.engine import CallbackHook
from repro.federated.secagg import MASKED_KEY, PlaintextRequiredError, mask_neighbours

#: Seed of the covering array: fixed, so cell ids stay stable.
SEED = 27
#: Candidate rows the greedy generator scores before it keeps one.
CANDIDATES = 24

#: Every axis and its settings, in cell-id order.
AXES: dict[str, tuple] = {
    "backend": ("serial", "batched", "distributed", "reordered"),
    "secure_aggregation": (False, True),
    "telemetry": (False, True),
    "participation": ("uniform", "churn", "tiered"),
    "aggregation_mode": ("sync", "buffered_async"),
    "defense": ("mean", "weighted_mean", "norm_bound", "krum"),
    "algorithm": ("fedavg", "feddc"),
    "attack": ("none", "collapois"),
    "population": ("eager", "synthetic"),
}

#: The axes a cell shares with its reference run.
REFERENCE_AXES = ("participation", "aggregation_mode", "defense", "algorithm",
                  "attack", "population")

#: Pairs of settings ``Scenario`` rejects, with the error and a message fragment.
FORBIDDEN = {
    (("secure_aggregation", True), ("defense", "krum")): (PlaintextRequiredError, "krum"),
    (("secure_aggregation", True), ("aggregation_mode", "buffered_async")):
        (ValueError, "secure aggregation"),
    (("secure_aggregation", True), ("algorithm", "feddc")): (ValueError, "post_aggregate"),
}

#: Rejected settings off the axes: scenario fields, error, message fragment.
REJECTED = {
    "secagg-metafed": ({"secure_aggregation": True, "algorithm": "metafed"},
                       ValueError, "post_aggregate"),
    "serial-backend_workers": ({"backend": "serial", "backend_workers": 2},
                               ValueError, "no worker cap"),
    "batched-backend_workers": ({"backend": "batched", "backend_workers": 2},
                                ValueError, "no worker cap"),
}

BUFFER_SIZE = 6

#: Scenario fields of each setting that is not simply ``{axis: setting}``.
#: About 10 of 12 clients take part in a round, so a secure round's SecAgg+
#: ring is sparse (k < n - 1, for n = 8 or n >= 10) in some round.
FIELDS = {
    ("backend", "distributed"): {"backend": "distributed", "backend_workers": 2},
    ("backend", "reordered"): {"backend": "serial"},  # the test routes the double in
    ("participation", "uniform"): {"participation": "uniform:sample_rate=0.8"},
    ("participation", "churn"):
        {"participation": "churn:sample_rate=0.8,availability=0.9,min_clients=8"},
    ("participation", "tiered"):
        {"participation": "tiered:sample_rate=0.8,min_clients=8,jitter=0.5"},
    ("aggregation_mode", "buffered_async"):
        {"aggregation_mode": f"buffered_async:buffer_size={BUFFER_SIZE}"},
    ("population", "eager"): {"population": None},
    ("population", "synthetic"): {"population": "synthetic:cache_size=16"},
}

#: Cell-id labels of the two-valued axes, for ``False`` and ``True``.
LABELS = {"secure_aggregation": ("plain", "secagg"), "telemetry": ("untraced", "traced")}


def allowed(row: dict) -> bool:
    return not any(all(row.get(a) == v for a, v in pair) for pair in FORBIDDEN)


def pairs(row: dict) -> set:
    """Every pair of ``row``'s settings, in axis order."""
    names = [name for name in AXES if name in row]
    return {
        ((a, row[a]), (b, row[b])) for i, a in enumerate(names) for b in names[i + 1:]
    }


def covering_rows(seed: int = SEED) -> list[dict]:
    """Allowed rows over :data:`AXES` that cover every allowed pair of settings.

    Greedy, as in AETG: each step builds :data:`CANDIDATES` rows, each from
    a random uncovered pair, fills the other axes in random order with the
    allowed setting that covers the most uncovered pairs (ties drawn at
    random), and keeps the candidate that covers most.
    """
    rng = random.Random(seed)
    names = list(AXES)
    uncovered = {
        pair
        for i, a in enumerate(names)
        for b in names[i + 1:]
        for va in AXES[a]
        for vb in AXES[b]
        for pair in pairs({a: va, b: vb})
        if allowed(dict(pair))
    }
    rows: list[dict] = []
    while uncovered:
        best, best_gain = None, -1
        for _ in range(CANDIDATES):
            row = dict(rng.choice(sorted(uncovered, key=repr)))
            for name in rng.sample(names, len(names)):
                if name not in row:
                    gains = {
                        value: len(pairs({**row, name: value}) & uncovered)
                        for value in AXES[name]
                        if allowed({**row, name: value})
                    }
                    top = max(gains.values())
                    row[name] = rng.choice([v for v, g in gains.items() if g == top])
            gain = len(pairs(row) & uncovered)
            if gain > best_gain:
                best, best_gain = row, gain
        rows.append({name: best[name] for name in names})
        uncovered -= pairs(best)
    return rows


def label(name: str, value) -> str:
    return LABELS[name][value] if name in LABELS else str(value)


ROWS = covering_rows()
CELLS = [
    pytest.param(row, id=f"m{i:02d}-" + "-".join(label(*s) for s in row.items()))
    for i, row in enumerate(ROWS)
]
REJECTIONS = [
    pytest.param(dict(pair), error, match, id="-".join(label(*s) for s in pair))
    for pair, (error, match) in FORBIDDEN.items()
] + [
    pytest.param(fields, error, match, id=name)
    for name, (fields, error, match) in REJECTED.items()
]


def base_scenario(**fields) -> Scenario:
    """12 clients, 2 rounds, a 1,108-parameter MLP."""
    return Scenario(
        dataset="femnist",
        num_clients=12,
        samples_per_client=10,
        num_classes=4,
        image_size=8,
        hidden=(16,),
        rounds=2,
        local={"epochs": 1, "batch_size": 8, "lr": 0.05},
        seed=5,
        compromised_fraction=0.25,
        trojan_epochs=1,
        max_test_samples=8,
        **fields,
    )


def scenario_fields(settings: dict) -> dict:
    fields = {}
    for setting in settings.items():
        fields.update(FIELDS.get(setting, dict([setting])))
    return fields


@lru_cache(maxsize=None)
def reference(key: tuple):
    """The serial, plaintext, untraced run of one :data:`REFERENCE_AXES` key."""
    settings = dict(zip(REFERENCE_AXES, key, strict=True))
    fields = scenario_fields(settings)
    if settings["participation"] == "uniform":
        fields.update(participation=None, sample_rate=0.8)
    return base_scenario(**fields).run()


def model_ledger(result, secure: bool) -> list[dict]:
    """Model-channel entries; under secure aggregation payload bytes only,
    since its update headers add the ``masked`` flag."""
    entries = [e for e in result.ledger.to_dict()["entries"] if e["channel"] == "model"]
    for entry in entries if secure else ():
        del entry["header_bytes"]
    return entries


@pytest.mark.parametrize("row", CELLS)
def test_cell_matches_its_reference(row, reordered_backend, monkeypatch):
    ref = reference(tuple(row[name] for name in REFERENCE_AXES))
    if row["backend"] == "reordered":
        monkeypatch.setattr(runner, "build_backend", lambda _config: reordered_backend)
    seen = []
    hook = CallbackHook(on_update=lambda s, p, u: seen.append((u, u.update.tobytes())))
    result = base_scenario(**scenario_fields(row)).run(hooks=[hook])

    assert result.history.to_dict() == ref.history.to_dict()
    params = result.extras["server"].global_params
    assert params.tobytes() == ref.extras["server"].global_params.tobytes()
    secure = row["secure_aggregation"]
    assert model_ledger(result, secure) == model_ledger(ref, secure)
    assert_features(row, result, ref, seen)


def assert_features(row: dict, result, ref, seen: list) -> None:
    """The documented invariants of the features ``row`` holds."""
    server = result.extras["server"]
    records = result.history.records
    if row["backend"] == "reordered":
        assert server.backend.out_of_order, "no round arrived out of slot order"
    if row["backend"] == "distributed":
        assert server.backend.redispatch_count == 0
    if row["secure_aggregation"]:
        # Hooks see ciphertext only, and it is still theirs after the round.
        assert seen and all(u.metadata.get(MASKED_KEY) for u, _words in seen)
        assert all(u.update.tobytes() == words for u, words in seen)
        assert any(
            len(mask_neighbours(server.config.seed, r.round_idx, r.sampled_clients[0],
                                r.sampled_clients)) < len(r.sampled_clients) - 1
            for r in records
        ), "no round's SecAgg+ ring was sparse"
    if row["telemetry"]:
        spans = result.telemetry["spans"]
        assert {"round", "client_train", "aggregate"} <= {s["name"] for s in spans}
        assert all(s["end"] is not None for s in spans)
        assert sum(s["name"] == "round" for s in spans) == len(records)
        metrics = result.telemetry["metrics"]
        assert metrics["rounds_total"]["value"] == len(records)
        sampled = sum(len(r.sampled_clients) for r in records)
        assert metrics["clients_sampled_total"]["value"] == sampled
    if row["aggregation_mode"] == "buffered_async":
        # Every update folds once: on time, or carried into the next round.
        carried = 0
        for r in records:
            stats = r.extras["buffered_async"]
            assert stats["carried_in"] == carried
            on_time = stats["folded"] - carried
            assert 0 < on_time <= BUFFER_SIZE
            assert on_time + stats["carried_out"] == len(r.sampled_clients)
            carried = stats["carried_out"]
        assert carried > 0, "no update was carried"
        assert sum(len(r.sampled_clients) for r in records) == (
            sum(r.extras["buffered_async"]["folded"] for r in records) + carried
        )
    if row["algorithm"] == "feddc":
        drift = ref.extras["server"].algorithm.drift
        assert server.algorithm.drift.tobytes() == drift.tobytes()
    if row["attack"] == "collapois":
        psi = result.extras["attack"].psi_history
        assert psi == ref.extras["attack"].psi_history
        assert len(psi) == sum(len(r.compromised_sampled) for r in records) > 0


@pytest.mark.parametrize("fields, error, match", REJECTIONS)
def test_rejected_pair_fails_at_construction(fields, error, match, monkeypatch):
    def no_build(_config):
        raise AssertionError("a rejected scenario reached the dataset build")

    monkeypatch.setattr(runner, "build_dataset", no_build)
    with pytest.raises(error, match=match):
        base_scenario(**scenario_fields(fields)).run()

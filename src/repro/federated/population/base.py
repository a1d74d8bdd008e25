"""Client populations: the one federation type.

Every federation is a :class:`ClientPopulation`: ``num_clients`` clients over
one registered synthetic generator, each holding train / test / validation
splits.  A client's data is a pure function of the data seed, its cid and its
class-count vector: the generator's ``sample_client`` draws the samples from
the ``seed·100003 + cid`` stream and the split comes from the
``seed·7919 + cid`` stream.  The base class owns the generator, the seed, an
LRU cache of built clients keyed by cid and the one way to build a client;
a subclass supplies only :meth:`ClientPopulation.class_counts`:

* :class:`SyntheticPopulation` (``population="synthetic"``) draws each
  client's size and label mix from the client's own
  :func:`~repro.federated.rng.population_rng` stream, so only the clients a
  round samples ever exist in memory.  Evicting and re-building a client
  reproduces it bit for bit, which keeps a 1e5–1e6-client run at
  O(sampled clients) peak memory without giving up per-seed determinism.
* :class:`EagerPopulation` (``population=None``, the paper's experiments)
  draws one global partition and builds every client up front, into a cache
  that holds them all.

Lazy populations are a registry family (``repro list populations``); members
are built from specs like ``"synthetic:cache_size=128"`` with the runner
wiring the scenario's data geometry (generator, num_clients, alpha, seed) in
as defaults.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.data.dataset import Dataset, train_test_val_split
from repro.data.federated_data import ClientData
from repro.data.partition import dirichlet_label_partition, partition_sizes
from repro.federated.rng import _SEED_WORD_MASK, POPULATION_TAG, population_rng
from repro.registry import DATASETS, POPULATIONS

#: Lognormal sigma of client dataset sizes: the heavy-tailed spread of
#: LEAF-style per-user sample counts.
SIZE_IMBALANCE = 0.3

#: Smallest client dataset size either count source draws.
MIN_SAMPLES = 8

#: The compromised clients' splits each auxiliary-set source pools.
_AUXILIARY_SPLITS = {"val": ("val",), "train": ("train",), "all": ("train", "test", "val")}


class ClientPopulation:
    """A federation of ``num_clients`` clients over one synthetic generator.

    ``dataset`` accepts a registry spec (``"femnist:num_classes=5"``) or an
    already-built generator (anything exposing ``num_classes`` and
    ``sample_client``); the experiment runner passes the instance it built
    from the scenario's geometry fields.  Subclasses implement
    :meth:`class_counts`, which must be a pure function of the population's
    configuration and ``cid`` and range-check ``cid`` through
    :meth:`_index`, as :meth:`client` does; :meth:`client` builds and caches
    the rest.
    """

    def __init__(
        self,
        dataset,
        num_clients: int,
        samples_per_client: int,
        alpha: float,
        seed: int,
        cache_size: int,
    ) -> None:
        if num_clients <= 0 or samples_per_client <= 0:
            raise ValueError("num_clients and samples_per_client must be positive")
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if cache_size < 1:
            raise ValueError("cache_size must be at least 1")
        self.generator = (
            dataset if hasattr(dataset, "sample_client") else DATASETS.create(dataset)
        )
        self.num_clients = int(num_clients)
        self.samples_per_client = int(samples_per_client)
        self.alpha = float(alpha)
        self.seed = int(seed)
        self.num_classes = int(self.generator.num_classes)
        self.cache_size = int(cache_size)
        self._cache: OrderedDict[int, ClientData] = OrderedDict()
        #: Total number of (re-)materialisations — cache misses — so far.
        #: Tests and benchmarks read this to pin laziness and eviction
        #: behaviour; it is not part of any determinism contract.
        self.materializations = 0

    def client(self, client_id: int) -> ClientData:
        """The client's data, served from the LRU cache."""
        cid = self._index(client_id)
        cached = self._cache.get(cid)
        if cached is not None:
            self._cache.move_to_end(cid)
            return cached
        data = self._materialize(cid)
        self.materializations += 1
        self._cache[cid] = data
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
        return data

    def _index(self, client_id: int) -> int:
        """``client_id`` as an int; :class:`IndexError` outside the population.

        The one range check: :meth:`client` and every subclass's
        :meth:`class_counts` go through it, so no id wraps round or reaches
        a client that does not exist.
        """
        cid = int(client_id)
        if not 0 <= cid < self.num_clients:
            raise IndexError(f"client id {cid} outside population [0, {self.num_clients})")
        return cid

    def label_distributions(self) -> np.ndarray:
        """Stacked ``(num_clients, num_classes)`` class-count matrix.

        Built from :meth:`class_counts` alone — O(num_clients · num_classes)
        memory, no sample arrays — so per-client-state algorithms can read
        the label skew of a large lazy population.
        """
        return np.stack([self.class_counts(cid) for cid in range(self.num_clients)])

    def auxiliary_dataset(self, compromised_ids: list[int], source: str = "val") -> Dataset:
        """Pool the compromised clients' data into the attacker's auxiliary set Da.

        The paper pools the compromised clients' *validation* splits
        (``source="val"``).  At the reduced scale of this reproduction the
        validation splits alone can be only a handful of samples, so callers
        that need a trainable auxiliary set (e.g. CollaPois / MRepl training
        the Trojaned model X) may request ``source="all"`` — the union of the
        compromised clients' train, test and validation data, which matches
        the *relative* auxiliary-data size of the paper's setting.  Clients
        are pooled in the given order, each client's splits in the order
        train, test, val.
        """
        if not compromised_ids:
            raise ValueError("need at least one compromised client")
        if source not in _AUXILIARY_SPLITS:
            raise ValueError("source must be 'val', 'train' or 'all'")
        parts: list[Dataset] = []
        for cid in compromised_ids:
            client = self.client(cid)
            parts.extend(getattr(client, split) for split in _AUXILIARY_SPLITS[source])
        return Dataset(
            np.concatenate([part.x for part in parts]),
            np.concatenate([part.y for part in parts]),
        )

    def auxiliary_class_counts(
        self, compromised_ids: list[int], source: str = "val"
    ) -> np.ndarray:
        """Class-count vector of the attacker's auxiliary dataset."""
        aux = self.auxiliary_dataset(compromised_ids, source=source)
        return aux.class_counts(self.num_classes)

    def eval_client_ids(self) -> list[int]:
        """Client ids the experiment runner evaluates (all of them here).

        :class:`SyntheticPopulation` caps this with a deterministic subset so
        final evaluation stays O(evaluated clients) at 1e5+ scale.
        """
        return list(range(self.num_clients))

    def cache_info(self) -> dict:
        """Current cache occupancy and lifetime materialisation count."""
        return {
            "size": len(self._cache),
            "max_size": self.cache_size,
            "materializations": self.materializations,
        }

    def class_counts(self, client_id: int) -> np.ndarray:
        """Length-``num_classes`` label counts of one client (cheap).

        Raises :class:`IndexError` for an id outside the population.
        """
        raise NotImplementedError

    def _materialize(self, cid: int) -> ClientData:
        """Build one client's data from its class counts and its two seeds."""
        counts = self.class_counts(cid)
        data = self.generator.sample_client(counts, client_seed=self.seed * 100003 + cid)
        split_rng = np.random.default_rng(self.seed * 7919 + cid)
        train, test, val = train_test_val_split(data, rng=split_rng)
        return ClientData(client_id=cid, train=train, test=test, val=val, class_counts=counts)


class EagerPopulation(ClientPopulation):
    """The federation of one global partition, every client built up front.

    ``default_rng(seed)`` draws every client's lognormal size
    (:func:`~repro.data.partition.partition_sizes`) and then, client by
    client, a Dirichlet(α) label mix
    (:func:`~repro.data.partition.dirichlet_label_partition`).  The
    constructor then builds every client in cid order into a cache that holds
    them all, so the dataset build stays in set-up and every round's lookup
    is a cache hit.  The runner builds it when ``Scenario.population`` is
    unset; it is not a registry member, so there is one way to ask for it.
    """

    def __init__(
        self,
        dataset,
        num_clients: int,
        samples_per_client: int,
        alpha: float,
        seed: int = 0,
    ) -> None:
        super().__init__(
            dataset, num_clients, samples_per_client, alpha, seed, cache_size=num_clients
        )
        rng = np.random.default_rng(self.seed)
        sizes = partition_sizes(
            self.num_clients * self.samples_per_client,
            self.num_clients,
            rng,
            imbalance=SIZE_IMBALANCE,
            min_samples=MIN_SAMPLES,
        )
        self._counts = dirichlet_label_partition(sizes, self.num_classes, self.alpha, rng)
        for cid in range(self.num_clients):
            self.client(cid)

    def class_counts(self, client_id: int) -> np.ndarray:
        """The client's row of the global partition."""
        return self._counts[self._index(client_id)]


@POPULATIONS.register("synthetic")
class SyntheticPopulation(ClientPopulation):
    """Lazy population: each client's counts come from its own stream.

    Per-client metadata is drawn from the client's own
    :func:`~repro.federated.rng.population_rng` stream: a lognormal dataset
    size around ``samples_per_client`` (sigma :data:`SIZE_IMBALANCE`, the
    eager partition's spread) and a ``Dirichlet(α)`` label mix.  A client
    looks exactly like an eager client of the same generator and counts —
    only its existence is lazy.  ``cache_size`` bounds the clients held in
    memory and ``eval_clients`` caps :meth:`eval_client_ids`.
    """

    def __init__(
        self,
        dataset="femnist",
        num_clients: int = 1000,
        samples_per_client: int = 24,
        alpha: float = 0.5,
        seed: int = 0,
        cache_size: int = 64,
        eval_clients: int = 32,
    ) -> None:
        super().__init__(dataset, num_clients, samples_per_client, alpha, seed, cache_size)
        if eval_clients < 1:
            raise ValueError("eval_clients must be at least 1")
        self.eval_clients = int(eval_clients)

    def class_counts(self, client_id: int) -> np.ndarray:
        """Draw the client's size and label mix from its population stream.

        The draw order (size, then Dirichlet proportions, then the
        multinomial split) is part of the population's determinism contract:
        reordering it changes every client of every existing seed.
        """
        rng = population_rng(self.seed, self._index(client_id))
        spread = rng.lognormal(mean=-0.5 * SIZE_IMBALANCE**2, sigma=SIZE_IMBALANCE)
        size = max(MIN_SAMPLES, int(round(self.samples_per_client * spread)))
        proportions = rng.dirichlet(np.full(self.num_classes, self.alpha))
        return rng.multinomial(size, proportions).astype(np.int64)

    def eval_client_ids(self) -> list[int]:
        """At most ``eval_clients`` ids, drawn once per ``(seed, population)``.

        The draw comes from a dedicated four-word population stream (tag
        position differs from per-cid streams), so it cannot collide with or
        perturb any client's own metadata stream.
        """
        if self.eval_clients >= self.num_clients:
            return list(range(self.num_clients))
        rng = np.random.default_rng(
            np.random.SeedSequence((self.seed & _SEED_WORD_MASK, 0, POPULATION_TAG, 1))
        )
        chosen = rng.choice(self.num_clients, size=self.eval_clients, replace=False)
        return sorted(int(c) for c in chosen)

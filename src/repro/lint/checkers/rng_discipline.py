"""rng-discipline: every random draw must trace back to the run seed.

The whole execution stack — serial, batched, distributed —
promises bit-identical :class:`~repro.federated.history.TrainingHistory` per
seed.  That promise dies the moment any code inside ``src/repro`` pulls
entropy from outside the seed-derived streams of
:mod:`repro.federated.rng`: an unseeded ``np.random.default_rng()``, the
global ``np.random.*`` state, the stdlib ``random`` module, ``os.urandom``
or wall-clock time.  This checker bans those sources statically.

Seeded generators (``np.random.default_rng(seed)``) and explicitly passed
``np.random.Generator`` objects are always fine — the rule is about where
entropy *enters*, not how it flows.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.base import Checker, Project
from repro.lint.checkers._ast_utils import build_import_map, canonical_name
from repro.lint.findings import Finding
from repro.registry import CHECKERS

#: numpy.random attributes that are types/constructors, not global-state draws.
_NUMPY_RANDOM_TYPES = frozenset(
    {
        "numpy.random.Generator",
        "numpy.random.BitGenerator",
        "numpy.random.SeedSequence",
        "numpy.random.PCG64",
        "numpy.random.PCG64DXSM",
        "numpy.random.Philox",
        "numpy.random.SFC64",
        "numpy.random.MT19937",
    }
)

#: OS / environment entropy sources, by canonical call name.
_ENTROPY_CALLS = frozenset({"os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4"})

#: Wall-clock reads; banned because they are entropy in disguise (timeout
#: plumbing uses monotonic/perf counters, which are interval clocks and
#: stay allowed).
_CLOCK_CALLS = frozenset({"time.time", "time.time_ns", "datetime.datetime.now"})


@CHECKERS.register("rng-discipline")
class RngDisciplineChecker(Checker):
    """Ban entropy sources outside the seed-derived RNG streams."""

    name = "rng-discipline"
    description = (
        "randomness must flow through repro.federated.rng or a passed-in "
        "Generator; no unseeded default_rng, global np.random, stdlib "
        "random, os.urandom or wall-clock entropy"
    )
    rules = {
        "RNG001": "np.random.default_rng() without a seed (nondeterministic init)",
        "RNG002": "global numpy.random.* state used instead of a Generator",
        "RNG003": "stdlib random module used instead of a seeded Generator",
        "RNG004": "OS entropy source (os.urandom, uuid4, secrets) used",
        "RNG005": "wall-clock time used as an implicit entropy/identity source",
    }

    def run(self, project: Project) -> Iterator[Finding]:
        for source, tree in self.iter_trees(project):
            imports = build_import_map(tree)
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                canon = canonical_name(node.func, imports)
                if canon is None:
                    continue
                finding = self._classify(source, node, canon)
                if finding is not None:
                    yield finding

    def _classify(self, source, node: ast.Call, canon: str) -> Finding | None:
        if canon == "numpy.random.default_rng":
            seeded = bool(node.args or node.keywords)
            if node.args and isinstance(node.args[0], ast.Constant) and node.args[0].value is None:
                seeded = False
            if not seeded:
                return self.finding(
                    source,
                    node,
                    "RNG001",
                    "np.random.default_rng() without a seed draws OS entropy; "
                    "derive the generator from the run seed "
                    "(repro.federated.rng) or accept one from the caller",
                )
            return None
        if canon.startswith("numpy.random.") and canon not in _NUMPY_RANDOM_TYPES:
            return self.finding(
                source,
                node,
                "RNG002",
                f"{canon} uses numpy's global RNG state, which is "
                "execution-order dependent; use a per-stream Generator",
            )
        if canon == "random" or canon.startswith("random."):
            return self.finding(
                source,
                node,
                "RNG003",
                f"stdlib {canon} is process-global and unseeded by default; "
                "use a numpy Generator derived from the run seed",
            )
        if canon in _ENTROPY_CALLS or canon.startswith("secrets."):
            return self.finding(
                source,
                node,
                "RNG004",
                f"{canon} is an OS entropy source; deterministic runs must "
                "derive all randomness from the run seed",
            )
        if canon in _CLOCK_CALLS:
            return self.finding(
                source,
                node,
                "RNG005",
                f"{canon} reads the wall clock, which differs per run; "
                "results and identities must derive from the seed/config",
            )
        return None

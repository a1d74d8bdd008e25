"""Benchmark-side span recording around the program's public layer boundaries.

Nothing here edits the program: :class:`Recorder` swaps a timing wrapper
into a module or class attribute and puts the original back on
:meth:`Recorder.uninstall`.  Each wrapper charges one *layer* with a call
count, busy time (outermost entry only, so recursion is not counted twice)
and self time (busy time minus the time covered by wrapped calls nested
inside it).  A boundary may also name a *tally*: a count that each call
adds to, computed from the call's arguments (the rows of an update
matrix, say).  Spans live on a per-thread stack, because the sharded fold
and the thread backend call into the program from pool threads.

Two sets of boundaries exist.  :data:`CLOCK_BOUNDARIES` are the few the
untraced run needs for its end-to-end metrics (round latency, the closing
evaluation).  :data:`LAYER_BOUNDARIES` add every layer the traced run
reports on.

A recorder may carry a *checkpoint*: a function run before every
top-level call of a clock boundary, outside that call's timing.  Its
results and the interval it ran in are kept in :attr:`Recorder.checkpoints`,
so the caller can take the checkpoints' time out of its own clock.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict


class _Frame:
    __slots__ = ("layer", "child")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.child = 0.0


class Recorder:
    """Per-layer call count, busy time and self time, plus top-level spans."""

    def __init__(self, checkpoint=None) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self._checkpoint = checkpoint
        #: layer -> [calls, busy seconds, self seconds]
        self.layers: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        #: (layer, start, end) of every call made with no wrapped caller.
        self.top_level: list[tuple[str, float, float]] = []
        #: tally name -> sum of what the wrapped calls added to it.
        self.tallies: dict[str, int] = defaultdict(int)
        #: (start, end, result) of every checkpoint run.
        self.checkpoints: list[tuple[float, float, object]] = []

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, layer: str, tally=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        recorder = self
        checkpoint = self._checkpoint if layer in CLOCK_LAYERS else None

        def timed(*args, **kwargs):
            if tally is not None:
                name, count = tally
                with recorder._lock:
                    recorder.tallies[name] += count(*args, **kwargs)
            stack = recorder._stack()
            if checkpoint is not None and not stack:
                before = time.perf_counter()
                result = checkpoint()
                recorder.checkpoints.append((before, time.perf_counter(), result))
            nested = any(frame.layer == layer for frame in stack)
            frame = _Frame(layer)
            stack.append(frame)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                elapsed = end - start
                with recorder._lock:
                    entry = recorder.layers[layer]
                    entry[0] += 1
                    if not nested:
                        entry[1] += elapsed
                    entry[2] += elapsed - frame.child
                    if stack:
                        stack[-1].child += elapsed
                    else:
                        recorder.top_level.append((layer, start, end))

        timed.__wrapped__ = original
        setattr(owner, attr, timed)
        self._restore.append((owner, attr, original))

    def install(self, boundaries) -> None:
        for module_name, owner_name, attr, layer, *tally in boundaries:
            owner = importlib.import_module(module_name)
            if owner_name:
                owner = getattr(owner, owner_name)
            self.wrap(owner, attr, layer, *tally)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def calls(self, layer: str) -> int:
        return self.layers[layer][0] if layer in self.layers else 0

    def busy(self, layer: str) -> float:
        return self.layers[layer][1] if layer in self.layers else 0.0

    def self_time(self, layer: str) -> float:
        return self.layers[layer][2] if layer in self.layers else 0.0


# (module, class or "" for a module function, attribute, layer name
#  [, (tally name, count of one call from its arguments)])
CLOCK_BOUNDARIES = (
    ("repro.federated.server", "FederatedServer", "run_round", "server.round"),
    ("repro.experiments.runner", "", "evaluate_clients", "eval.evaluate_clients"),
)
CLOCK_LAYERS = frozenset(boundary[3] for boundary in CLOCK_BOUNDARIES)

LAYER_BOUNDARIES = CLOCK_BOUNDARIES + (
    ("repro.experiments.runner", "", "build_dataset", "runner.build_dataset"),
    ("repro.core.collapois", "CollaPoisAttack", "setup", "attack.setup"),
    ("repro.core.collapois", "CollaPoisAttack", "compute_update", "attack.compute_update"),
    ("repro.federated.algorithms.base", "FederatedAlgorithm", "benign_update",
     "client.benign_update"),
    ("repro.federated.algorithms.fedavg", "FedAvg", "benign_update", "client.benign_update"),
    ("repro.nn.model", "Sequential", "forward", "nn.forward"),
    ("repro.nn.model", "BatchedSequential", "forward", "nn.forward"),
    ("repro.nn.model", "Sequential", "backward", "nn.backward"),
    ("repro.nn.model", "BatchedSequential", "backward", "nn.backward"),
    ("repro.nn.optim", "SGD", "step", "nn.optim_step"),
    ("repro.nn.optim", "BatchedSGD", "step", "nn.optim_step"),
    ("repro.nn.optim", "BatchedSGD", "step_slice", "nn.optim_step"),
    ("repro.federated.engine.batched", "BatchedClientRunner", "run", "batched.run"),
    ("repro.federated.population.base", "ClientPopulation", "client", "population.client"),
    # The streaming path folds one update per accumulate call ...
    ("repro.defenses.base", "Aggregator", "accumulate", "defense.accumulate",
     ("defense.updates_folded", lambda _self, _state, _update: 1)),
    ("repro.defenses.base", "Aggregator", "finalize", "defense.finalize"),
    # ... the buffered (matrix) path folds the whole round in one call.
    ("repro.defenses.base", "Aggregator", "__call__", "defense.finalize",
     ("defense.updates_folded", lambda _self, updates, *_rest: len(updates))),
    ("repro.federated.secagg.masking", "", "mask_update", "secagg.mask"),
    ("repro.federated.secagg.aggregator", "SecureAggregator", "accumulate", "secagg.unmask"),
    ("repro.federated.engine.distributed.coordinator", "DistributedBackend", "spawn_local",
     "distributed.spawn"),
    ("repro.federated.engine.distributed.coordinator", "", "send_message", "wire.send"),
    ("repro.federated.engine.distributed.coordinator", "", "recv_message", "wire.recv"),
)

"""The server side of secure aggregation: a sealed unmask-then-fold layer.

In the multi-party protocol the server adds the masked contributions and
the pairwise masks cancel *in the modular sum* — it never holds a single
plaintext update.  This simulation keeps the observable contract of that
protocol while staying bit-identical to plaintext runs:

* everything outside this class — the wire, the round hooks, retained
  update lists, attack code — only ever sees masked bytes;
* the defense API only sees the finished fold, exactly as if the masks had
  cancelled in the sum.

The masks live in ``Z_2^64`` over IEEE-754 words (see
:mod:`repro.federated.secagg.masking`), but the defense fold is *float*
addition, where modular word cancellation has no meaning.  The sealed layer
therefore removes each client's aggregate mask exactly (word subtraction is
the exact inverse of word addition) before delegating to the wrapped
defense's slot-order fold — the simulation stand-in for the protocol's
in-sum cancellation, with the same result: the fold consumes the exact
plaintext bits, so secagg-on and secagg-off histories are bit-identical
per seed.

Only *sum-folding* defenses are compatible: their math depends on each
update solely through per-update-local transforms (identity, clipping,
signing — work a real deployment pushes to the client) plus the aggregate.
Defenses that compare updates *across* clients (Krum distances, coordinate
medians, anomaly detectors) declare
``requires_plaintext_updates = True`` and are rejected up front with the
structured :class:`PlaintextRequiredError`.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import replace

import numpy as np

from repro.defenses.base import AggregationContext, AggregationState, Aggregator
from repro.federated.engine.plan import ClientUpdate
from repro.federated.secagg.masking import unmask_update

#: The metadata/extras key marking an update's vector as masked words.
MASKED_KEY = "secagg_masked"


class PlaintextRequiredError(ValueError):
    """A defense that inspects individual updates was configured under secagg.

    Structured so callers (CLI, sweep harnesses) can tell the capability
    mismatch apart from other configuration errors: ``defense`` names the
    offending aggregator and ``capability`` the flag that failed.
    """

    capability = "requires_plaintext_updates"

    def __init__(self, defense: str):
        self.defense = defense
        super().__init__(
            f"defense {defense!r} inspects individual client updates "
            f"({self.capability}) and cannot run under secure aggregation, "
            "where the server only sees the masked sum; choose a sum-folding "
            "defense (see `repro list defenses` — the 'server-blind' "
            "capability) or disable secure_aggregation"
        )


class SecureAggregator(Aggregator):
    """Wrap a server-blind defense so it folds behind the masking boundary.

    ``inner`` is the configured defense (possibly already wrapped in
    :class:`~repro.federated.engine.sharding.ShardedAggregator` — sharding
    concerns how the plaintext fold is parallelised and composes cleanly
    inside the sealed layer).  ``check`` is the *unwrapped* defense whose
    capability flag gates construction; it defaults to ``inner``.

    Fold protocol only, by design: a matrix call would hand the defense a
    stacked plaintext matrix, which is exactly the server-side view secure
    aggregation removes.
    """

    shardable = False  # the sealed layer wraps the sharded fold, not vice versa

    def __init__(self, inner: Aggregator, seed: int, check: Aggregator | None = None):
        check = check if check is not None else inner
        if getattr(check, "requires_plaintext_updates", False):
            raise PlaintextRequiredError(getattr(check, "name", type(check).__name__))
        self.inner = inner
        self.seed = int(seed)
        self.name = f"secagg({getattr(inner, 'name', type(inner).__name__)})"

    def begin_round(self, ctx: AggregationContext) -> AggregationState:
        return self.inner.begin_round(ctx)

    def accumulate(self, state: AggregationState, update: ClientUpdate) -> None:
        if not update.metadata.get(MASKED_KEY):
            raise ValueError(
                f"secure aggregation received an unmasked update from client "
                f"{update.client_id}; every round participant must mask "
                "(was the update produced outside the execution engine?)"
            )
        ctx = state.ctx
        tel = ctx.telemetry
        span = (
            tel.tracer.span(
                "secagg_unmask", round=ctx.round_idx, client=update.client_id
            )
            if tel is not None
            else nullcontext()
        )
        with span:
            plaintext = unmask_update(
                update.update, self.seed, ctx.round_idx, update.client_id,
                ctx.sampled_clients,
            )
        metadata = {k: v for k, v in update.metadata.items() if k != MASKED_KEY}
        self.inner.accumulate(
            state, replace(update, update=plaintext, metadata=metadata)
        )

    def finalize(
        self,
        state: AggregationState,
        global_params: np.ndarray,
        ctx: AggregationContext | None = None,
    ) -> np.ndarray:
        return self.inner.finalize(state, global_params, ctx)

    def abort(self, state: AggregationState) -> None:
        self.inner.abort(state)

    def close(self) -> None:
        closer = getattr(self.inner, "close", None)
        if closer is not None:
            closer()

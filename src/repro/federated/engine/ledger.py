"""Per-link, per-round communication accounting for every backend.

Production federated deployments budget against bytes on the wire, not
FLOPs; this module gives each run a :class:`CommunicationLedger` recording
how many frames and bytes every link moved in every round, split into
protocol overhead (frame header + JSON envelope) versus vector payload, per
*channel*:

``model``
    The logical client↔server model traffic every backend implies —
    parameters down to each sampled client at round start, one update back
    per client — accounted analytically through
    :func:`~repro.federated.engine.distributed.protocol.message_size` by
    the :class:`LedgerHook`.  Uniform across the serial, batched and
    distributed backends: the *logical* federation traffic of a
    round does not depend on how the clients happen to execute, so ledgers
    are comparable across backends.

``wire``
    The frames a distributed coordinator actually exchanged with its worker
    processes (CONFIGURE/ROUND/TASK down, HELLO/CONFIGURED/UPDATE up),
    metered at the coordinator's sockets.  Setup traffic outside any round
    (HELLO, CONFIGURE, SHUTDOWN) is recorded at ``round_idx = -1``.

The ledger is plain counters — no vectors are copied to account for them —
and serialises losslessly into ``ExperimentResult.to_dict()`` (the
``ledger`` key of ``repro run --out`` JSON; ``repro ledger`` renders the
summary table).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.federated.engine.distributed.protocol import message_size
from repro.federated.engine.hooks import RoundHook
from repro.federated.engine.plan import ClientUpdate, RoundPlan

#: Round index of traffic outside any round (worker setup/teardown frames).
SETUP_ROUND = -1


@dataclass
class _LinkCounters:
    """Mutable frame/byte counters of one (round, channel, link, direction)."""

    frames: int = 0
    header_bytes: int = 0
    payload_bytes: int = 0


@dataclass
class CommunicationLedger:
    """Frame/byte counters keyed by round, channel, link and direction.

    ``link`` identifies the peer (``client:<id>`` on the model channel,
    ``worker:<pid>`` on the wire channel); ``direction`` is ``"down"``
    (server/coordinator → peer) or ``"up"``.  ``dtypes`` records the wire
    dtype each channel's vectors were accounted at.
    """

    _entries: dict = field(default_factory=dict)
    dtypes: dict = field(default_factory=dict)

    def record(
        self,
        *,
        round_idx: int,
        channel: str,
        link: str,
        direction: str,
        frames: int = 1,
        header_bytes: int = 0,
        payload_bytes: int = 0,
        dtype: str | None = None,
    ) -> None:
        """Add one observation; counters aggregate per key."""
        if direction not in ("down", "up"):
            raise ValueError(f"direction must be 'down' or 'up', got {direction!r}")
        key = (int(round_idx), str(channel), str(link), direction)
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = _LinkCounters()
        entry.frames += int(frames)
        entry.header_bytes += int(header_bytes)
        entry.payload_bytes += int(payload_bytes)
        if dtype is not None:
            self.dtypes[str(channel)] = dtype

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def channels(self) -> list[str]:
        return sorted({key[1] for key in self._entries})

    def rounds(self) -> list[int]:
        return sorted({key[0] for key in self._entries})

    def totals(self) -> dict:
        """Run-wide counters: frames, header/payload split, total bytes."""
        frames = header = payload = 0
        for entry in self._entries.values():
            frames += entry.frames
            header += entry.header_bytes
            payload += entry.payload_bytes
        return {
            "frames": frames,
            "header_bytes": header,
            "payload_bytes": payload,
            "bytes": header + payload,
        }

    def round_rows(self) -> list[dict]:
        """One summary row per (round, channel, direction), link-aggregated.

        The shape ``repro ledger`` renders: per-link detail stays in
        :meth:`to_dict` for tooling, the table shows the round trajectory.
        """
        grouped: dict[tuple, list] = {}
        for (round_idx, channel, link, direction), entry in self._entries.items():
            grouped.setdefault((round_idx, channel, direction), []).append((link, entry))
        rows = []
        for (round_idx, channel, direction) in sorted(grouped):
            links = grouped[(round_idx, channel, direction)]
            rows.append(
                {
                    "round": round_idx,
                    "channel": channel,
                    "direction": direction,
                    "links": len({link for link, _entry in links}),
                    "frames": sum(entry.frames for _link, entry in links),
                    "header_bytes": sum(entry.header_bytes for _link, entry in links),
                    "payload_bytes": sum(entry.payload_bytes for _link, entry in links),
                }
            )
        return rows

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-compatible form: per-link entries plus derived totals."""
        entries = [
            {
                "round": round_idx,
                "channel": channel,
                "link": link,
                "direction": direction,
                "frames": entry.frames,
                "header_bytes": entry.header_bytes,
                "payload_bytes": entry.payload_bytes,
            }
            for (round_idx, channel, link, direction), entry in sorted(
                self._entries.items()
            )
        ]
        return {"dtypes": dict(self.dtypes), "entries": entries, "totals": self.totals()}

    @classmethod
    def from_dict(cls, data: dict) -> "CommunicationLedger":
        """Rebuild from :meth:`to_dict` output (``totals`` are re-derived)."""
        ledger = cls()
        ledger.dtypes = dict(data.get("dtypes", {}))
        for entry in data.get("entries", []):
            ledger.record(
                round_idx=entry["round"],
                channel=entry["channel"],
                link=entry["link"],
                direction=entry["direction"],
                frames=entry.get("frames", 0),
                header_bytes=entry.get("header_bytes", 0),
                payload_bytes=entry.get("payload_bytes", 0),
            )
        return ledger


class LedgerHook(RoundHook):
    """Account the logical client↔server model traffic of every round.

    Backend-independent by construction: the hook sizes the frames the
    distributed protocol *would* use for each logical transfer — the
    parameter broadcast to every sampled client at round start, one update
    frame back per client — so a serial run and a distributed run of the
    same scenario report the same model-channel ledger.  ``wire_dtype``
    follows the backend's configured encoding when it has one, so an fp32
    distributed run's halved model traffic is visible in the ledger.
    """

    def __init__(self, ledger: CommunicationLedger, wire_dtype: str = "float64"):
        self.ledger = ledger
        self.wire_dtype = wire_dtype

    def on_round_start(self, server, plan: RoundPlan) -> None:
        dim = int(server.global_params.shape[0])
        header, payload = message_size(
            {"round": plan.round_idx}, {"params": dim}, dtype=self.wire_dtype
        )
        for client_id in plan.sampled_clients:
            self.ledger.record(
                round_idx=plan.round_idx,
                channel="model",
                link=f"client:{client_id}",
                direction="down",
                header_bytes=header,
                payload_bytes=payload,
                dtype=self.wire_dtype,
            )

    def on_update(self, server, plan: RoundPlan, update: ClientUpdate) -> None:
        fields = {"order": update.slot, "client": update.client_id, "loss": update.loss}
        if update.metadata.get("secagg_masked"):
            fields["masked"] = True
        # Buffered-async carried updates fire on_update in the round they
        # *arrive* (plan.round_idx), not the round that computed them — a
        # straggler's bytes reach the server late, and the ledger attributes
        # them to the arrival round exactly once.  The frame carries the
        # origin round so tooling can see the staleness on the wire.
        origin = update.metadata.get("origin_round")
        if origin is not None and origin != plan.round_idx:
            fields["origin_round"] = origin
        header, payload = message_size(
            fields, {"update": int(update.update.shape[0])}, dtype=self.wire_dtype
        )
        self.ledger.record(
            round_idx=plan.round_idx,
            channel="model",
            link=f"client:{update.client_id}",
            direction="up",
            header_bytes=header,
            payload_bytes=payload,
            dtype=self.wire_dtype,
        )

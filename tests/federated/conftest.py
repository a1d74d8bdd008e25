"""Shared doubles for the federated-engine tests."""

from __future__ import annotations

import time

import pytest

from repro.federated.engine.backends import SerialBackend
from repro.federated.engine.distributed import protocol, worker


class ReorderedBackend(SerialBackend):
    """Serial execution whose updates arrive out of slot order.

    Each round yields the malicious updates first, then the benign updates
    in reverse slot order, so any round with two or more benign clients
    arrives out of order — deterministically, with no threads or sleeps.
    ``arrivals`` records the slots of every round in arrival order.
    """

    def __init__(self) -> None:
        super().__init__()
        self.arrivals: list[list[int]] = []

    def iter_updates(self, plan, global_params):
        updates = list(super().iter_updates(plan, global_params))
        ordered = [u for u in updates if u.malicious]
        ordered += [u for u in reversed(updates) if not u.malicious]
        self.arrivals.append([u.slot for u in ordered])
        yield from ordered

    @property
    def out_of_order(self) -> bool:
        """Whether some round's updates arrived out of slot order."""
        return any(slots != sorted(slots) for slots in self.arrivals)


@pytest.fixture()
def reordered_backend() -> ReorderedBackend:
    return ReorderedBackend()


@pytest.fixture()
def delay_updates(monkeypatch):
    """Call with ``seconds`` to make workers hold each UPDATE ``seconds / (1 + slot)``.

    Lower slots then arrive last, out of slot order.  Local workers are
    forked from the test process, so they inherit the patch.
    """
    send = worker.send_message

    def delay(seconds: float) -> None:
        def delayed(sock, msg_type, fields, arrays=None):
            if msg_type is protocol.MessageType.UPDATE:
                time.sleep(seconds / (1.0 + fields["slot"]))
            return send(sock, msg_type, fields, arrays)

        monkeypatch.setattr(worker, "send_message", delayed)

    return delay

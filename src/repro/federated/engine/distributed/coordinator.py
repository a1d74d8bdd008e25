"""The coordinator side: ``DistributedBackend`` behind ``ExecutionBackend``.

The backend owns a set of worker links — sockets to worker processes it
spawned locally (:meth:`DistributedBackend.spawn_local`) or attached to
(``connect="host:port,..."`` for workers started standalone with
``python -m repro worker``).  Per round it:

1. lazily starts/configures workers (``CONFIGURE`` ships the scenario
   payload; workers cache the rebuilt context by fingerprint),
2. broadcasts the round's global parameters (``ROUND``),
3. dispatches benign tasks with *work-stealing*: every worker holds at most
   :data:`PIPELINE_DEPTH` outstanding tasks and receives the next pending
   task the moment one of its updates arrives, so fast workers naturally
   steal the slow workers' share,
4. runs malicious tasks in the driver (attacks are stateful — exactly like
   the in-process backends) while workers chew on the benign fan-out,
5. yields each :class:`~repro.federated.engine.plan.ClientUpdate` as its
   frame arrives, so the server folds while other workers still train — and
6. on a worker's death (EOF/reset mid-round) re-queues that worker's
   unfinished tasks for the surviving workers.  Tasks are deterministic in
   their ``(seed, round, client)`` stream, so a re-dispatched task computes
   the exact same update and the run's history is unchanged.

Bit-identity therefore holds per seed against the serial backend, under
any completion order and across worker deaths, as long as at least one
worker survives.
"""

from __future__ import annotations

import os
import select
import selectors
import socket
import subprocess
import sys
from collections import deque
from dataclasses import dataclass, field

import numpy as np

import repro
from repro.federated.engine.backends import (
    ExecutionBackend,
    maybe_span,
    run_malicious_task,
)
from repro.federated.engine.distributed.protocol import (
    PROTOCOL_VERSION,
    ConnectionClosed,
    MessageType,
    ProtocolError,
    context_fingerprint,
    context_payload,
    message_size,
    recv_message,
    send_message,
)
from repro.federated.engine.ledger import SETUP_ROUND
from repro.federated.engine.plan import ClientResult, ClientTask, RoundPlan
from repro.nn import serialization
from repro.registry import BACKENDS

#: Outstanding tasks per worker.  1 would be pure work-stealing but leaves a
#: worker idle for a dispatch round-trip between tasks; one prefetched task
#: hides that latency without hoarding work on a slow worker.
PIPELINE_DEPTH = 2

#: The worker CLI invocation ``spawn_local`` runs (module mode keeps the
#: child on the same interpreter and package as the coordinator).
_WORKER_CMD = ("-m", "repro", "worker", "--listen", "127.0.0.1:0", "--once")


@dataclass
class _WorkerLink:
    """One connected worker: socket, identity, and in-flight bookkeeping."""

    sock: socket.socket
    pid: int | None = None
    proc: subprocess.Popen | None = None
    fingerprint: str | None = None
    outstanding: dict[int, ClientTask] = field(default_factory=dict)
    alive: bool = True

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass
        self.alive = False


@BACKENDS.register("distributed")
class DistributedBackend(ExecutionBackend):
    """Fan benign clients out over socket-connected worker processes.

    ``max_workers`` local workers are spawned lazily on the first round
    (default: one per core, capped at 4); passing ``connect`` attaches to
    externally started workers instead and spawns nothing.  The backend
    needs a :class:`~repro.experiments.scenario.Scenario` to describe the
    execution context to its workers — the experiment runner plumbs it
    automatically; direct :class:`~repro.federated.server.FederatedServer`
    users call :meth:`configure_scenario` once before running.
    """

    name = "distributed"
    process_isolation = True
    distributed = True

    def __init__(
        self,
        max_workers: int | None = None,
        connect: str | list[str] | None = None,
        spawn_timeout: float = 60.0,
        wire_dtype: str = "float64",
        secure_aggregation: bool = False,
    ) -> None:
        super().__init__()
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers or max(1, min(4, os.cpu_count() or 1))
        self.connect = _parse_addresses(connect)
        self.spawn_timeout = spawn_timeout
        # Validate at construction so a typo fails before workers spawn.
        serialization.wire_dtype(wire_dtype)
        if secure_aggregation and wire_dtype != "float64":
            raise ValueError(
                "secure aggregation is incompatible with wire_dtype="
                f"{wire_dtype!r}: masked updates are IEEE-754 float64 words "
                "plus a pairwise mask mod 2**64, and any narrowing round-trip "
                "corrupts the ciphertext so the masks no longer cancel; use "
                "the bit-exact float64 wire format"
            )
        #: Wire encoding of every parameter/update vector this backend ships
        #: ("float64" = bit-exact default, "float32" = lossy, half traffic).
        self.wire_dtype = wire_dtype
        #: Declared at construction so an incompatible wire_dtype fails here
        #: rather than rounds later; the round-time trigger is the server's
        #: ``ctx.secagg_seed`` (guarded again in ``iter_updates``).
        self.secure_aggregation = secure_aggregation
        self._links: list[_WorkerLink] = []
        self._started = False
        self._scenario_payload: dict | None = None
        self._fingerprint: str | None = None
        #: Tasks re-queued after a worker death (observable by tests/hooks).
        self.redispatch_count = 0

    # -- configuration ------------------------------------------------------

    def configure_scenario(self, scenario) -> None:
        """Record the scenario whose context workers must rebuild.

        Accepts a :class:`~repro.experiments.scenario.Scenario` or its
        ``to_dict()`` form.  Only the context fields (data, model,
        algorithm, local training, seed) reach the wire.
        """
        data = scenario.to_dict() if hasattr(scenario, "to_dict") else dict(scenario)
        self._scenario_payload = context_payload(data)
        self._fingerprint = context_fingerprint(self._scenario_payload)

    @property
    def workers(self) -> list[_WorkerLink]:
        """Live worker links (read-only view for tests and diagnostics)."""
        return [link for link in self._links if link.alive]

    @property
    def worker_pids(self) -> list[int]:
        return [link.pid for link in self.workers if link.pid is not None]

    # -- wire accounting ----------------------------------------------------

    def _record_wire(
        self,
        pid: int | None,
        direction: str,
        round_idx: int,
        header_bytes: int,
        payload_bytes: int,
    ) -> None:
        if self.ledger is None:
            return
        self.ledger.record(
            round_idx=round_idx,
            channel="wire",
            link=f"worker:{pid}" if pid is not None else "worker:?",
            direction=direction,
            header_bytes=header_bytes,
            payload_bytes=payload_bytes,
            dtype=self.wire_dtype,
        )

    def _send(
        self,
        link: _WorkerLink,
        msg_type: MessageType,
        fields: dict,
        arrays: dict[str, np.ndarray] | None = None,
        dtype: str = "float64",
        round_idx: int = SETUP_ROUND,
    ) -> None:
        """Send one frame to a worker, metering it into the wire ledger.

        The byte split is computed analytically by :func:`message_size` —
        exact, because it runs the same canonical ``json.dumps`` the encoder
        does — so metering copies no vector bytes.
        """
        send_message(link.sock, msg_type, fields, arrays, dtype=dtype)
        if self.ledger is not None:
            lengths = {name: int(a.shape[0]) for name, a in (arrays or {}).items()}
            header, payload = message_size(fields, lengths, dtype=dtype)
            self._record_wire(link.pid, "down", round_idx, header, payload)

    def _recv(self, link: _WorkerLink, round_idx: int = SETUP_ROUND):
        """Receive one frame from a worker, metering it into the wire ledger."""
        meter = None
        if self.ledger is not None:

            def meter(_msg, header_bytes, payload_bytes):
                self._record_wire(link.pid, "up", round_idx, header_bytes, payload_bytes)

        return recv_message(link.sock, meter=meter)

    # -- worker lifecycle ---------------------------------------------------

    def _ensure_started(self) -> None:
        if self._started:
            return
        if self.connect:
            for address in self.connect:
                self._links.append(self._attach(address))
        else:
            self.spawn_local(self.max_workers)
        self._started = True

    def spawn_local(self, count: int) -> None:
        """Spawn ``count`` local worker processes and connect to them."""
        for _ in range(count):
            self._links.append(self._spawn_one())

    def _spawn_one(self) -> _WorkerLink:
        env = os.environ.copy()
        # The child must find the repro package no matter how this
        # interpreter found it (src checkout, editable install, zip path).
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root + os.pathsep + existing if existing else package_root
        )
        proc = subprocess.Popen(
            [sys.executable, *_WORKER_CMD],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            address = self._read_announcement(proc)
            return self._connect(address, proc=proc)
        except Exception:
            proc.kill()
            proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
            raise

    def _read_announcement(self, proc: subprocess.Popen) -> tuple[str, int]:
        """Wait for the worker's ``REPRO-WORKER LISTENING host port`` line."""
        assert proc.stdout is not None
        ready, _, _ = select.select([proc.stdout], [], [], self.spawn_timeout)
        if not ready:
            raise RuntimeError(
                f"spawned worker announced nothing within {self.spawn_timeout}s"
            )
        line = proc.stdout.readline()
        parts = line.split()
        if len(parts) != 4 or " ".join(parts[:2]) != "REPRO-WORKER LISTENING":
            raise RuntimeError(
                f"spawned worker exited or announced garbage: {line!r} "
                f"(returncode {proc.poll()})"
            )
        return parts[2], int(parts[3])

    def _attach(self, address: tuple[str, int]) -> _WorkerLink:
        return self._connect(address, proc=None)

    def _connect(
        self, address: tuple[str, int], proc: subprocess.Popen | None
    ) -> _WorkerLink:
        sock = socket.create_connection(address, timeout=self.spawn_timeout)
        sock.settimeout(self.spawn_timeout)
        # The HELLO frame is metered after decode — the worker's pid (the
        # ledger link label) only exists once the frame is read.
        sizes: list[tuple[int, int]] = []
        meter = (
            (lambda _msg, header, payload: sizes.append((header, payload)))
            if self.ledger is not None
            else None
        )
        msg, fields, _arrays = recv_message(sock, meter=meter)
        if msg is not MessageType.HELLO:
            raise ProtocolError(f"expected HELLO from worker, got {msg.name}")
        if fields.get("version") != PROTOCOL_VERSION:
            raise ProtocolError(
                f"worker at {address[0]}:{address[1]} speaks protocol "
                f"{fields.get('version')}, coordinator speaks {PROTOCOL_VERSION}"
            )
        sock.settimeout(None)
        for header, payload in sizes:
            self._record_wire(fields.get("pid"), "up", SETUP_ROUND, header, payload)
        return _WorkerLink(sock=sock, pid=fields.get("pid"), proc=proc)

    def _configure_links(self) -> None:
        """Ship the scenario to any worker not yet on the current context.

        CONFIGUREs are sent to every stale worker first and acknowledged
        after, so workers build their contexts concurrently.
        """
        stale = [
            link
            for link in self.workers
            if link.fingerprint != self._fingerprint
        ]
        for link in stale:
            try:
                # ``wire_dtype`` rides next to the context but stays out of
                # the fingerprint: the rebuilt context is dtype-independent,
                # so switching encodings must not invalidate worker caches.
                self._send(
                    link,
                    MessageType.CONFIGURE,
                    {
                        "fingerprint": self._fingerprint,
                        "scenario": self._scenario_payload,
                        "wire_dtype": self.wire_dtype,
                    },
                )
            except OSError:
                link.close()
        stale = [link for link in stale if link.alive]
        for link in stale:
            try:
                msg, fields, _arrays = self._recv(link)
            except ConnectionClosed:
                # A worker that died while building its context is simply
                # dropped; the round runs on the survivors.
                link.close()
                continue
            if msg is MessageType.ERROR:
                raise RuntimeError(
                    f"distributed worker failed to build its context:\n"
                    f"{fields.get('traceback')}"
                )
            if msg is not MessageType.CONFIGURED:
                raise ProtocolError(f"expected CONFIGURED, got {msg.name}")
            link.fingerprint = fields["fingerprint"]

    # -- round execution ----------------------------------------------------

    def iter_updates(self, plan: RoundPlan, global_params: np.ndarray):
        """Yield the round's client updates as they complete."""
        ctx = self.ctx
        benign = plan.benign_tasks
        pending: deque[ClientTask] = deque(benign)
        remaining: dict[int, ClientTask] = {t.order: t for t in benign}
        live: list[_WorkerLink] = []
        secagg_seed = ctx.secagg_seed
        if secagg_seed is not None and self.wire_dtype != "float64":
            # Belt and braces behind the constructor check: the round-time
            # trigger is the server's context, which a direct backend user
            # can reach without the constructor flag.
            raise RuntimeError(
                "secure aggregation is active but this coordinator ships "
                f"wire_dtype={self.wire_dtype!r}; masked updates survive only "
                "the bit-exact float64 wire format"
            )
        if benign:
            if self._scenario_payload is None:
                raise RuntimeError(
                    "DistributedBackend has no scenario to describe the worker "
                    "execution context; run through Scenario/run_experiment or "
                    "call backend.configure_scenario(scenario) first"
                )
            self._ensure_started()
            self._configure_links()
            live = self.workers
            if not live:
                raise RuntimeError("no distributed workers available")
            round_fields: dict = {"round": plan.round_idx}
            if secagg_seed is not None:
                # Workers mask at the source: each masked update leaves the
                # worker as ciphertext, so the coordinator process never
                # holds a remote client's plaintext update.
                round_fields["secagg"] = {
                    "seed": int(secagg_seed),
                    "participants": [int(c) for c in plan.sampled_clients],
                }
            if ctx.telemetry is not None:
                # Protocol v4: ask workers to profile their phases and attach
                # a telemetry blob to every UPDATE frame.
                round_fields["telemetry"] = True
            with maybe_span(
                ctx.telemetry, "dispatch",
                round=plan.round_idx, tasks=len(benign), backend="distributed",
            ):
                for link in live:
                    try:
                        self._send(
                            link,
                            MessageType.ROUND,
                            round_fields,
                            {"params": global_params},
                            dtype=self.wire_dtype,
                            round_idx=plan.round_idx,
                        )
                    except OSError:
                        self._bury(link, pending, None)
                self._refill_survivors(pending, plan.round_idx, None, remaining)

        # Driver-side malicious work overlaps with the worker fan-out:
        # attacks keep their cross-round state here.
        for task in plan.malicious_tasks:
            yield self.make_update(
                run_malicious_task(ctx, task, global_params, self._get_driver_model()),
                plan,
            )
        if not benign:
            return

        sel = selectors.DefaultSelector()
        for link in self.workers:
            sel.register(link.sock, selectors.EVENT_READ, link)
        try:
            while remaining:
                for key, _events in sel.select():
                    link: _WorkerLink = key.data
                    try:
                        msg, fields, arrays = self._recv(link, round_idx=plan.round_idx)
                    except ConnectionClosed:
                        self._bury(link, pending, sel)
                        self._refill_survivors(pending, plan.round_idx, sel, remaining)
                        continue
                    if msg is MessageType.ERROR:
                        raise RuntimeError(
                            f"distributed worker task failed:\n{fields.get('traceback')}"
                        )
                    if msg is not MessageType.UPDATE:
                        raise ProtocolError(f"expected UPDATE, got {msg.name}")
                    order = fields["order"]
                    self._merge_worker_telemetry(link, fields, plan, pending)
                    link.outstanding.pop(order, None)
                    if not self._fill(link, pending, plan.round_idx):
                        # The worker died as we topped it up (EPIPE on send):
                        # same cleanup as a death detected on the recv side.
                        self._bury(link, pending, sel)
                        self._refill_survivors(pending, plan.round_idx, sel, remaining)
                    task = remaining.pop(order, None)
                    if task is None:
                        # Already completed before a re-dispatch raced it.
                        continue
                    result = ClientResult(
                        task=task,
                        update=arrays["update"],
                        loss=fields.get("loss"),
                        # Masked at the source: ``make_update`` must not mask
                        # this vector a second time.
                        extras={"secagg_masked": True} if fields.get("masked") else {},
                    )
                    yield self.make_update(result, plan)
        finally:
            sel.close()

    def _merge_worker_telemetry(
        self, link: _WorkerLink, fields: dict, plan: RoundPlan, pending: deque
    ) -> None:
        """Fold one UPDATE frame's profiling blob into the driver's trace.

        The worker's ``train_s`` becomes a ``client_train`` span ending at
        the frame's receipt (``wire=True`` marks the reconstruction); its
        ``mono`` send timestamp yields the per-link clock-offset estimate
        (driver minus worker clock, minimum over frames — an annotation for
        reading cross-host traces, never a correction).  Queue-depth
        histograms are observed per receipt whether or not the worker sent a
        blob, so driver-side congestion is visible even against v4 workers
        with profiling declined.
        """
        tel = self.ctx.telemetry
        if tel is None:
            return
        blob = fields.get("telemetry")
        if blob:
            now = tel.tracer.now()
            attrs = {
                "round": plan.round_idx,
                "client": fields.get("client"),
                "worker": link.pid,
                "wire": True,
            }
            for extra in ("mask_s", "context_build_s"):
                if blob.get(extra) is not None:
                    attrs[extra] = blob[extra]
            train_s = float(blob.get("train_s", 0.0))
            tel.tracer.add_span("client_train", now - train_s, now, **attrs)
            mono = blob.get("mono")
            if mono is not None:
                tel.record_clock_offset(f"worker:{link.pid}", now - float(mono))
        metrics = tel.metrics
        metrics.histogram("distributed.pending_depth").observe(len(pending))
        metrics.histogram("distributed.worker_outstanding").observe(
            len(link.outstanding)
        )

    def _fill(self, link: _WorkerLink, pending: deque, round_idx: int) -> bool:
        """Top the worker's pipeline up to :data:`PIPELINE_DEPTH` tasks.

        Returns ``False`` when the worker died mid-send; the caller must
        then run :meth:`_bury` (and usually :meth:`_refill_survivors`) —
        ``_fill`` itself only puts the undelivered task back.
        """
        while link.alive and pending and len(link.outstanding) < PIPELINE_DEPTH:
            task = pending.popleft()
            fields = {
                "order": task.order,
                "client": task.client_id,
                "round": round_idx,
                "rng_seed": task.rng_seed,
            }
            state = self.ctx.algorithm.client_benign_state(task.client_id)
            arrays = {"state": state} if state is not None else None
            try:
                self._send(link, MessageType.TASK, fields, arrays,
                           dtype=self.wire_dtype, round_idx=round_idx)
            except OSError:
                pending.appendleft(task)
                return False
            link.outstanding[task.order] = task
        return True

    def _bury(self, link: _WorkerLink, pending: deque, sel) -> None:
        """Clean up one dead worker: deregister, close, re-queue its tasks."""
        if sel is not None:
            try:
                sel.unregister(link.sock)
            except (KeyError, ValueError):
                pass  # never registered, or already deregistered
        link.close()
        if link.proc is not None:
            link.proc.poll()
        if link.outstanding:
            self.redispatch_count += len(link.outstanding)
            for task in sorted(link.outstanding.values(), key=lambda t: t.order):
                pending.appendleft(task)
            link.outstanding.clear()

    def _refill_survivors(
        self, pending: deque, round_idx: int, sel, remaining: dict
    ) -> None:
        """Redistribute pending tasks, burying any worker that dies mid-send.

        Loops until the surviving pipelines are topped up with no further
        deaths; raises when no worker is left but tasks still are.
        """
        while True:
            survivors = self.workers
            if not survivors and remaining:
                raise RuntimeError(
                    f"all distributed workers died with {len(remaining)} "
                    "tasks unfinished"
                )
            dead = next(
                (
                    link
                    for link in survivors
                    if not self._fill(link, pending, round_idx)
                ),
                None,
            )
            if dead is None:
                return
            self._bury(dead, pending, sel)

    # -- teardown -----------------------------------------------------------

    def close(self) -> None:
        """Shut workers down and reap spawned processes (idempotent).

        Like the pool backends, a closed coordinator is reusable: the next
        round respawns (or re-attaches) its workers lazily.
        """
        for link in self._links:
            if link.alive:
                try:
                    self._send(link, MessageType.SHUTDOWN, {})
                except OSError:
                    pass
            link.close()
            if link.proc is not None:
                try:
                    link.proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    link.proc.kill()
                    link.proc.wait()
                if link.proc.stdout is not None:
                    link.proc.stdout.close()
        self._links = []
        self._started = False


def _parse_addresses(connect) -> tuple[tuple[str, int], ...]:
    """Normalise ``connect`` into ``(host, port)`` pairs.

    Accepts a list of ``"host:port"`` strings or one comma-separated string
    (the form a ``backend="distributed:connect='h1:p1,h2:p2'"`` spec or a
    scenario's ``backend_kwargs`` carries through JSON).
    """
    if connect is None:
        return ()
    if isinstance(connect, str):
        connect = [part for part in connect.split(",") if part.strip()]
    addresses = []
    for item in connect:
        host, sep, port_text = str(item).strip().rpartition(":")
        if not sep or not host:
            raise ValueError(
                f"malformed worker address {item!r}; expected 'host:port'"
            )
        try:
            addresses.append((host, int(port_text)))
        except ValueError as exc:
            raise ValueError(
                f"malformed worker address {item!r}; expected 'host:port'"
            ) from exc
    return tuple(addresses)

"""The coordinator side: ``DistributedBackend`` behind ``ExecutionBackend``.

The backend owns a set of worker links — loopback sockets to worker
processes it forked (:meth:`DistributedBackend.spawn_local`) or sockets to
workers it attached to (``connect="host:port,..."`` for workers started
standalone with ``python -m repro worker``).  Per round it:

1. lazily starts/configures workers (``CONFIGURE`` ships the scenario
   payload; workers cache the rebuilt context by fingerprint).  Local
   workers are forked from the driver, so none starts an interpreter or
   imports numpy again.  Under telemetry the round that starts them
   carries a ``spawn`` (or, for attached workers, ``connect``) span and a
   ``context_build`` span,
2. broadcasts the round's global parameters (``ROUND``),
3. dispatches benign tasks with *work-stealing*: every worker holds at most
   :data:`PIPELINE_DEPTH` outstanding tasks and receives the next pending
   task the moment one of its updates arrives, so fast workers naturally
   steal the slow workers' share,
4. runs malicious tasks in the driver (attacks are stateful — exactly like
   the in-process backends) while workers chew on the benign fan-out,
5. yields each :class:`~repro.federated.engine.plan.ClientUpdate` as its
   frame arrives, so the server folds while other workers still train; the
   frame carries the client's example count and, under secure aggregation,
   ciphertext masked by the worker, so the coordinator never reads its own
   dataset for a benign client — and
6. on a worker's death (EOF/reset mid-round) re-queues that worker's
   unfinished tasks for the surviving workers.  Tasks are deterministic in
   their ``(seed, round, client)`` stream, so a re-dispatched task computes
   the exact same update and the run's history is unchanged.

Bit-identity therefore holds per seed against the serial backend, under
any completion order and across worker deaths, as long as at least one
worker survives.
"""

from __future__ import annotations

import math
import os
import select
import selectors
import signal
import socket
import time
import weakref
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.federated.engine.backends import ExecutionBackend, maybe_span
from repro.federated.engine.distributed.protocol import (
    PROTOCOL_VERSION,
    ConnectionClosed,
    MessageType,
    ProtocolError,
    context_fingerprint,
    context_payload,
    recv_message,
    send_message,
)
from repro.federated.engine.distributed.worker import fork_worker
from repro.federated.engine.ledger import SETUP_ROUND
from repro.federated.engine.plan import ClientTask, RoundPlan
from repro.registry import BACKENDS, is_count

#: Outstanding tasks per worker.  1 would be pure work-stealing but leaves a
#: worker idle for a dispatch round-trip between tasks; one prefetched task
#: hides that latency without hoarding work on a slow worker.
PIPELINE_DEPTH = 2

#: Seconds :func:`_release` gives forked workers to exit before it kills them.
_REAP_TIMEOUT = 10.0


@dataclass
class _WorkerLink:
    """One connected worker: socket, identity, and in-flight bookkeeping."""

    sock: socket.socket
    pid: int | None = None
    #: The pid this process forked the worker as, until it is reaped;
    #: ``None`` for an attached worker.
    child: int | None = None
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

    ``max_workers`` local workers are forked lazily on the first round
    (default: one per CPU this process may run on, capped at 4 — its
    affinity mask, not the host's core count, so a pinned process does not
    spawn workers that can only time-slice); passing ``connect`` attaches to
    externally started workers instead and spawns nothing.  The backend
    needs a :class:`~repro.experiments.scenario.Scenario` to describe the
    execution context to its workers — the experiment runner plumbs it
    automatically; direct :class:`~repro.federated.server.FederatedServer`
    users call :meth:`configure_scenario` once before running.

    Every vector crosses the wire as float64, bit for bit.  ``wire_dtype``
    accepts ``"float64"`` and rejects any other value; it stays only so that
    perfbench's ``secagg-distributed`` workload and results JSON that pass
    it keep loading.
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
    ) -> None:
        super().__init__()
        if max_workers is not None and not is_count(max_workers):
            raise ValueError(
                f"max_workers must be a positive int or None, not {max_workers!r}"
            )
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
        self.max_workers = max_workers or min(4, cpus)
        self.connect = _parse_addresses(connect)
        if (
            isinstance(spawn_timeout, bool)
            or not isinstance(spawn_timeout, (int, float))
            or not 0 < spawn_timeout < math.inf
        ):
            raise ValueError(
                f"spawn_timeout must be a positive, finite number of seconds, "
                f"not {spawn_timeout!r}"
            )
        self.spawn_timeout = spawn_timeout
        if wire_dtype != "float64":
            raise ValueError(
                f"wire_dtype={wire_dtype!r} is not supported: every vector "
                "crosses the wire as float64"
            )
        #: Mutated in place only, so that the finaliser releases this very
        #: list: a backend dropped without close() still reaps its workers.
        self._links: list[_WorkerLink] = []
        weakref.finalize(self, _release, self._links)
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
        )

    def _send(
        self,
        link: _WorkerLink,
        msg_type: MessageType,
        fields: dict,
        arrays: dict[str, np.ndarray] | None = None,
        round_idx: int = SETUP_ROUND,
    ) -> None:
        """Send one frame to a worker, metering it into the wire ledger.

        The ledger records the byte split :func:`send_message` returns for
        the frame it sent, so metering encodes nothing a second time.
        """
        header, payload = send_message(link.sock, msg_type, fields, arrays)
        if self.ledger is not None:
            self._record_wire(link.pid, "down", round_idx, header, payload)

    def _recv(self, link: _WorkerLink, round_idx: int = SETUP_ROUND):
        """Receive one frame from a worker, metering it into the wire ledger."""
        meter = None
        if self.ledger is not None:

            def meter(_msg, header_bytes, payload_bytes):
                self._record_wire(link.pid, "up", round_idx, header_bytes, payload_bytes)

        return recv_message(link.sock, meter=meter)

    # -- worker lifecycle ---------------------------------------------------

    def _ensure_started(self, round_idx: int) -> None:
        if self._started:
            return
        telemetry = self.ctx.telemetry
        if self.connect:
            with maybe_span(telemetry, "connect", round=round_idx,
                            workers=len(self.connect)):
                self._attach_all(self.connect)
        else:
            with maybe_span(telemetry, "spawn", round=round_idx,
                            workers=self.max_workers):
                self.spawn_local(self.max_workers)
        self._started = True

    def spawn_local(self, count: int) -> None:
        """Fork ``count`` local workers and connect to them over loopback TCP.

        For each worker this process binds a listener on an ephemeral
        loopback port, forks the worker onto it
        (:func:`~repro.federated.engine.distributed.worker.fork_worker`),
        closes its own copy and connects.  A forked worker starts with the
        driver's imports and waits at most ``spawn_timeout`` for its
        coordinator.  Its link is attached as a standalone worker's is,
        HELLO and version check included: TCP and not a socketpair, because
        loopback TCP grows its buffers to megabytes where an AF_UNIX pair's
        stay near 200 KB.  Local spawn needs Linux (:func:`_reap` waits on a
        pidfd).

        The call is all-or-nothing: on any failure it closes every link it
        opened and kills and reaps every worker it forked before re-raising,
        so a retried round does not spawn on top of leftovers.
        """
        pids: list[int] = []
        links: list[_WorkerLink] = []
        try:
            for _ in range(count):
                with socket.create_server(("127.0.0.1", 0)) as listener:
                    address = listener.getsockname()[:2]
                    pids.append(fork_worker(listener, self.spawn_timeout))
                links.append(self._connect(address, child=pids[-1]))
        except BaseException:
            for link in links:
                link.close()
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            raise
        self._links.extend(links)

    def _attach_all(self, addresses: tuple[tuple[str, int], ...]) -> None:
        """Connect to every externally started worker, all or nothing.

        A worker serves one coordinator at a time, so a link left open by a
        failed attach would hold its worker until a retried round timed
        out.  On any failure, every link this call opened is closed before
        re-raising, as in :meth:`spawn_local`.
        """
        links: list[_WorkerLink] = []
        try:
            for address in addresses:
                links.append(self._connect(address, child=None))
        except BaseException:
            for link in links:
                link.close()
            raise
        self._links.extend(links)

    def _connect(self, address: tuple[str, int], child: int | None) -> _WorkerLink:
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
        try:
            msg, fields, _arrays = recv_message(sock, meter=meter)
            if msg is not MessageType.HELLO:
                raise ProtocolError(f"expected HELLO from worker, got {msg.name}")
            if fields.get("version") != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"worker at {address[0]}:{address[1]} speaks protocol "
                    f"{fields.get('version')}, coordinator speaks {PROTOCOL_VERSION}"
                )
        except BaseException:
            sock.close()  # a refused worker holds no socket of ours
            raise
        sock.settimeout(None)
        for header, payload in sizes:
            self._record_wire(fields.get("pid"), "up", SETUP_ROUND, header, payload)
        return _WorkerLink(sock=sock, pid=fields.get("pid"), child=child)

    def _configure_links(self, round_idx: int) -> None:
        """Ship the scenario to any worker not yet on the current context.

        CONFIGUREs are sent to every stale worker first and acknowledged
        after, so workers build their contexts concurrently.  Under
        telemetry the exchange is one ``context_build`` span, opened only
        when some worker is stale.
        """
        stale = [
            link
            for link in self.workers
            if link.fingerprint != self._fingerprint
        ]
        if not stale:
            return
        with maybe_span(self.ctx.telemetry, "context_build", round=round_idx,
                        workers=len(stale)):
            for link in stale:
                try:
                    self._send(
                        link,
                        MessageType.CONFIGURE,
                        {"fingerprint": self._fingerprint, "scenario": self._scenario_payload},
                    )
                except OSError:
                    link.close()
            stale = [link for link in stale if link.alive]
            for link in stale:
                try:
                    msg, fields, _arrays = self._recv(link)
                except ConnectionClosed:
                    # A worker that died while building its context is
                    # simply dropped; the round runs on the survivors.
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
        remaining: dict[int, ClientTask] = {t.slot: t for t in benign}
        live: list[_WorkerLink] = []
        secagg_seed = ctx.secagg_seed
        if benign:
            if self._scenario_payload is None:
                raise RuntimeError(
                    "DistributedBackend has no scenario to describe the worker "
                    "execution context; run through Scenario/run_experiment or "
                    "call backend.configure_scenario(scenario) first"
                )
            self._ensure_started(plan.round_idx)
            self._configure_links(plan.round_idx)
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
                            round_idx=plan.round_idx,
                        )
                    except OSError:
                        self._bury(link, pending, None)
                self._refill_survivors(pending, plan.round_idx, None, remaining)

        # Driver-side malicious work overlaps with the worker fan-out:
        # attacks keep their cross-round state here.
        yield from self._malicious_updates(plan, global_params)
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
                    slot = fields["slot"]
                    self._merge_worker_telemetry(link, fields, plan, pending)
                    link.outstanding.pop(slot, None)
                    if not self._fill(link, pending, plan.round_idx):
                        # The worker died as we topped it up (EPIPE on send):
                        # same cleanup as a death detected on the recv side.
                        self._bury(link, pending, sel)
                        self._refill_survivors(pending, plan.round_idx, sel, remaining)
                    task = remaining.pop(slot, None)
                    if task is None:
                        # Already completed before a re-dispatch raced it.
                        continue
                    update = task.update(
                        arrays["update"], fields["num_examples"], fields.get("loss")
                    )
                    if fields.get("masked"):
                        # Masked at the source, so never sealed again here.
                        update.metadata["secagg_masked"] = True
                    yield update
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

        A task that carries a state vector (FedDC drift) goes only to a
        worker with no task outstanding.  A busy worker may be blocked
        sending its previous UPDATE, and while this process is blocked
        sending it a frame larger than the socket buffers, neither side
        reads.  Stateless TASK frames fit the buffers and keep the prefetch.

        Returns ``False`` when the worker died mid-send; the caller must
        then run :meth:`_bury` (and usually :meth:`_refill_survivors`) —
        ``_fill`` itself only puts the undelivered task back.
        """
        while link.alive and pending and len(link.outstanding) < PIPELINE_DEPTH:
            task = pending[0]
            state = self.ctx.algorithm.client_benign_state(task.client_id)
            if state is not None and link.outstanding:
                break
            pending.popleft()
            fields = {
                "slot": task.slot,
                "client": task.client_id,
                "round": round_idx,
                "rng_seed": task.rng_seed,
            }
            arrays = {"state": state} if state is not None else None
            try:
                self._send(link, MessageType.TASK, fields, arrays, round_idx=round_idx)
            except OSError:
                pending.appendleft(task)
                return False
            link.outstanding[task.slot] = task
        return True

    def _bury(self, link: _WorkerLink, pending: deque, sel) -> None:
        """Clean up one dead worker: deregister, close, re-queue its tasks."""
        if sel is not None:
            try:
                sel.unregister(link.sock)
            except (KeyError, ValueError):
                pass  # never registered, or already deregistered
        link.close()
        if link.child is not None and os.waitpid(link.child, os.WNOHANG)[0]:
            link.child = None  # reaped already: close() has nothing to wait for
        if link.outstanding:
            self.redispatch_count += len(link.outstanding)
            for task in sorted(link.outstanding.values(), key=lambda t: t.slot):
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
        """Shut workers down and reap forked workers (idempotent).

        Every worker is sent SHUTDOWN before any process is waited on, so
        the workers exit together; :func:`_release` then closes the links
        and reaps the forked workers.  Like the pool backends, a closed
        coordinator is reusable: the next round respawns (or re-attaches)
        its workers lazily.
        """
        for link in self._links:
            if link.alive:
                try:
                    self._send(link, MessageType.SHUTDOWN, {})
                except OSError:
                    pass
        _release(self._links)
        self._started = False


def _release(links: list[_WorkerLink]) -> None:
    """Close every link, then reap each forked worker against one deadline.

    Shared by :meth:`DistributedBackend.close` and the finaliser of a
    backend dropped without it: a worker whose link closes reads EOF and
    ends its session.  Each worker gets until one shared deadline, then
    SIGKILL (see :func:`_reap`).  Empties ``links``.
    """
    for link in links:
        link.close()
    deadline = time.monotonic() + _REAP_TIMEOUT
    for link in links:
        if link.child is not None:
            _reap(link.child, deadline)
            link.child = None
    links.clear()


def _reap(pid: int, deadline: float) -> int:
    """Wait until ``deadline`` for child ``pid`` to exit, SIGKILL it if it has not, and reap it.

    Returns the exit code as :func:`os.waitstatus_to_exitcode` reports it
    (``-9`` after the kill).  The wait polls a pidfd (Linux 5.3+), which
    becomes readable the moment the process exits, so it never sleeps
    past the exit.
    """
    pidfd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        exited = poller.poll(max(0.0, deadline - time.monotonic()) * 1000)
    finally:
        os.close(pidfd)
    if not exited:
        os.kill(pid, signal.SIGKILL)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _parse_addresses(connect) -> tuple[tuple[str, int], ...]:
    """Normalise ``connect`` into ``(host, port)`` pairs.

    Accepts a list of ``"host:port"`` strings or one comma-separated string
    (the form a ``backend="distributed:connect='h1:p1,h2:p2'"`` spec or a
    scenario's ``backend_kwargs`` carries through JSON).  A port outside
    1-65535 is rejected: the socket layer would dial it modulo 2**16.
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
            port = int(port_text)
        except ValueError as exc:
            raise ValueError(
                f"malformed worker address {item!r}; expected 'host:port'"
            ) from exc
        if not 1 <= port <= 65535:
            raise ValueError(f"worker address {item!r} has port {port}; expected 1-65535")
        addresses.append((host, port))
    return tuple(addresses)

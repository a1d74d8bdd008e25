"""Long-lived distributed-execution worker.

A worker serves one coordinator at a time over a TCP socket.  A standalone
worker is an interpreter of its own (``python -m repro worker``) that
listens, announces its address on stdout, and serves coordinators until
interrupted.  A local worker is forked from the driver (:func:`fork_worker`)
and serves that one coordinator over loopback.  Each session runs:

1. On connect it sends ``HELLO`` (protocol version + pid).
2. ``CONFIGURE`` carries a scenario payload (see
   :func:`~repro.federated.engine.distributed.protocol.context_payload`);
   the worker rebuilds the execution context — federation, model factory,
   algorithm, local-training config — through the *same* runner builders
   the driver uses, so both sides construct bit-identical state.  Contexts
   are cached across rounds (and, for standalone workers, across whole
   runs) keyed by the payload's fingerprint.
3. ``ROUND`` installs the round's global parameter vector once, so ``TASK``
   frames stay small.
4. Each ``TASK`` is executed through
   :func:`~repro.federated.engine.backends.run_benign_task` on the cached
   scratch model, which builds the client's
   :class:`~repro.federated.engine.plan.ClientUpdate` with its example
   count; the ``UPDATE`` frame (header from
   :func:`~repro.federated.engine.distributed.protocol.update_header`) is
   streamed back the moment it exists.  A task may carry the client's
   algorithm state vector (FedDC drift); it is installed before execution.

Determinism needs no extra machinery: a task's randomness comes entirely
from its ``(seed, round, client)`` stream seed (:mod:`repro.federated.rng`)
and vectors cross the wire as raw float64, so a remote worker computes the
exact bytes the serial backend would.
"""

from __future__ import annotations

import gc
import os
import socket
import sys
import time
import traceback
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.federated.engine.backends import EngineContext, run_benign_task
from repro.federated.engine.distributed.protocol import (
    PROTOCOL_VERSION,
    ConnectionClosed,
    MessageType,
    ProtocolError,
    context_fingerprint,
    recv_message,
    send_message,
    update_header,
)
from repro.federated.engine.plan import ClientTask
from repro.federated.secagg.masking import mask_update
from repro.nn.serialization import flatten_params

#: Built contexts a worker keeps warm; small because each holds a federation.
_CONTEXT_CACHE_SIZE = 4

#: The stdout line with which a standalone worker announces its bound address.
ANNOUNCE_PREFIX = "REPRO-WORKER LISTENING"


@dataclass
class _WorkerContext:
    """One rebuilt execution context plus its reusable scratch model."""

    fingerprint: str
    engine: EngineContext
    model: object


def build_context(payload: dict) -> _WorkerContext:
    """Rebuild the benign execution context from a scenario payload.

    Uses the experiment runner's own builders, so dataset, model factory
    and algorithm are constructed exactly as the driver constructs them
    (both are deterministic in the payload's seeds).
    """
    # Imported here: the protocol/coordinator side must stay importable
    # without dragging the whole experiments stack in.
    from repro.experiments.runner import (
        build_algorithm,
        build_dataset,
        build_model_factory,
    )
    from repro.experiments.scenario import Scenario

    scenario = Scenario.from_dict(dict(payload))
    dataset, generator = build_dataset(scenario)
    model_factory = build_model_factory(scenario, generator)
    algorithm = build_algorithm(scenario)
    model = model_factory()
    algorithm.init_state(dataset.num_clients, flatten_params(model).shape[0])
    if hasattr(algorithm, "set_label_distributions"):
        # Mirrors FederatedServer.__init__; harmless for the benign path but
        # keeps worker-side algorithm state indistinguishable from driver's.
        # label_distributions() reads class counts only, so a lazy
        # population materialises no client for it.
        algorithm.set_label_distributions(dataset.label_distributions())
    engine = EngineContext(
        dataset=dataset,
        model_factory=model_factory,
        algorithm=algorithm,
        local_config=scenario.local,
        attack=None,
    )
    return _WorkerContext(
        fingerprint=context_fingerprint(payload), engine=engine, model=model
    )


class WorkerServer:
    """Accept loop + per-coordinator session loop of one worker process."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, once: bool = False) -> None:
        self.host = host
        self.port = port
        self.once = once
        self._contexts: OrderedDict[str, _WorkerContext] = OrderedDict()
        #: Seconds the most recent context build took; attached to the first
        #: profiled UPDATE after the build, then cleared (context builds are
        #: per-session, not per-task, so charging every task would mislead).
        self._last_context_build_s: float | None = None

    def _log(self, message: str) -> None:
        print(f"[repro-worker {os.getpid()}] {message}", file=sys.stderr, flush=True)

    def serve(self) -> None:
        """Bind, announce the bound address on stdout, and serve coordinators."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((self.host, self.port))
            listener.listen(1)
            host, port = listener.getsockname()[:2]
            print(f"{ANNOUNCE_PREFIX} {host} {port}", flush=True)
            self.accept_loop(listener)
        finally:
            listener.close()

    def accept_loop(self, listener: socket.socket) -> None:
        """Serve the coordinators that connect to ``listener``, one at a time.

        Returns after the first session when ``once`` is set.  A timeout on
        ``listener`` bounds each wait for a coordinator (``accept`` raises
        :class:`TimeoutError`); a session's socket never has one.
        """
        while True:
            conn, peer = listener.accept()
            conn.settimeout(None)
            self._log(f"coordinator connected from {peer[0]}:{peer[1]}")
            try:
                self._serve_coordinator(conn)
            except ConnectionError:
                # The coordinator vanished mid-send; nothing to salvage.
                self._log("coordinator connection lost")
            finally:
                conn.close()
                self._log("coordinator session ended")
            if self.once:
                return

    def _context_for(self, fingerprint: str, payload: dict) -> _WorkerContext:
        """Fetch or build the context for a fingerprint (LRU-cached)."""
        cached = self._contexts.get(fingerprint)
        if cached is not None:
            self._contexts.move_to_end(fingerprint)
            return cached
        self._log(f"building execution context {fingerprint}")
        build_start = time.monotonic()
        context = build_context(payload)
        self._last_context_build_s = time.monotonic() - build_start
        if context.fingerprint != fingerprint:
            raise ProtocolError(
                f"scenario payload hashes to {context.fingerprint}, "
                f"coordinator announced {fingerprint}"
            )
        self._contexts[fingerprint] = context
        while len(self._contexts) > _CONTEXT_CACHE_SIZE:
            self._contexts.popitem(last=False)
        return context

    def _serve_coordinator(self, conn: socket.socket) -> None:
        send_message(
            conn, MessageType.HELLO, {"version": PROTOCOL_VERSION, "pid": os.getpid()}
        )
        active: _WorkerContext | None = None
        global_params: np.ndarray | None = None
        secagg: dict | None = None
        telemetry = False
        while True:
            try:
                msg, fields, arrays = recv_message(conn)
            except ConnectionClosed:
                return
            if msg is MessageType.SHUTDOWN:
                return
            if msg is MessageType.CONFIGURE:
                try:
                    active = self._context_for(fields["fingerprint"], fields["scenario"])
                except Exception:
                    send_message(
                        conn, MessageType.ERROR, {"traceback": traceback.format_exc()}
                    )
                    continue
                send_message(
                    conn, MessageType.CONFIGURED, {"fingerprint": active.fingerprint}
                )
            elif msg is MessageType.ROUND:
                global_params = arrays["params"]
                secagg = fields.get("secagg")
                telemetry = bool(fields.get("telemetry"))
            elif msg is MessageType.TASK:
                self._run_task(
                    conn, active, global_params, fields, arrays, secagg, telemetry
                )
            else:
                send_message(
                    conn,
                    MessageType.ERROR,
                    {"traceback": f"worker cannot handle message type {msg.name}"},
                )

    def _run_task(
        self,
        conn: socket.socket,
        active: _WorkerContext | None,
        global_params: np.ndarray | None,
        fields: dict,
        arrays: dict[str, np.ndarray],
        secagg: dict | None = None,
        telemetry: bool = False,
    ) -> None:
        slot = fields.get("slot")
        try:
            if active is None:
                raise ProtocolError("TASK received before CONFIGURE")
            if global_params is None:
                raise ProtocolError("TASK received before ROUND parameters")
            task = ClientTask(
                client_id=fields["client"],
                round_idx=fields["round"],
                rng_seed=fields["rng_seed"],
                malicious=False,
                slot=slot,
            )
            state = arrays.get("state")
            if state is not None:
                active.engine.algorithm.set_client_benign_state(task.client_id, state)
            train_start = time.monotonic()
            update = run_benign_task(active.engine, task, global_params, active.model)
            train_s = time.monotonic() - train_start
            mask_s = None
            if secagg is not None:
                # Mask at the source: the plaintext update never leaves this
                # process.  Masks are pure functions of (seed, round, pair)
                # and the ring of (seed, round, participant set), so a
                # re-dispatched task after a worker death regenerates the
                # identical ciphertext on whichever worker picks it up.
                mask_start = time.monotonic()
                update.update = mask_update(
                    update.update,
                    secagg["seed"],
                    task.round_idx,
                    task.client_id,
                    secagg["participants"],
                )
                mask_s = time.monotonic() - mask_start
                update.metadata["secagg_masked"] = True
            update_fields = update_header(update)
            if telemetry:
                # Worker-side profiling (protocol v4): phase durations plus
                # the worker's monotonic send timestamp, from which the
                # coordinator estimates the per-link clock offset.  ``mono``
                # is stamped below, right before the frame is sent.
                blob = {"train_s": round(train_s, 6)}
                if mask_s is not None:
                    blob["mask_s"] = round(mask_s, 6)
                if self._last_context_build_s is not None:
                    blob["context_build_s"] = round(self._last_context_build_s, 6)
                    self._last_context_build_s = None
                update_fields["telemetry"] = blob
        except Exception:
            send_message(
                conn,
                MessageType.ERROR,
                {"traceback": traceback.format_exc(), "slot": slot},
            )
            return
        if telemetry:
            update_fields["telemetry"]["mono"] = time.monotonic()
        send_message(conn, MessageType.UPDATE, update_fields, {"update": update.update})


def fork_worker(listener: socket.socket, accept_timeout: float) -> int:
    """Fork a worker that serves one coordinator on ``listener``; return its pid.

    The child is a copy of this process, so it starts with numpy and repro
    already imported.  It never returns into the caller's stack: it leaves
    through ``os._exit``, with status 0 once its session ends and 1 after
    printing a traceback to stderr.  Before it serves, the child

    * freezes the garbage collector, so no object created before the fork
      is finalised in it (a finaliser could close a descriptor number the
      child has reused for its own socket);
    * points ``sys.stdout`` and ``sys.stderr`` back at the process's own
      streams, since replacements such as pytest's capture objects write to
      descriptors the next step closes;
    * closes every inherited descriptor except 0-2 and ``listener``, so
      its copy of another link's socket cannot keep that link open; and
    * waits at most ``accept_timeout`` seconds for the coordinator.

    The output streams are flushed before the fork, or the child would
    write their buffered output a second time.  The caller still holds its
    own copy of ``listener`` and closes it.
    """
    for stream in (sys.stdout, sys.stderr, sys.__stdout__, sys.__stderr__):
        if stream is not None:
            stream.flush()
    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        gc.freeze()
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
        keep = listener.fileno()
        os.closerange(3, keep)
        os.closerange(max(3, keep + 1), os.sysconf("SC_OPEN_MAX"))
        listener.settimeout(accept_timeout)
        WorkerServer(once=True).accept_loop(listener)
        status = 0
    except BaseException:
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(status)


def parse_listen_address(listen: str) -> tuple[str, int]:
    """Parse a ``--listen`` value into ``(host, port)``.

    Accepts ``host:port``, ``:port`` (all interfaces) and a bare port
    (loopback), with ``port`` in 0-65535.  ``port`` 0 means an ephemeral
    port — the announce line reports what was actually bound.
    """
    if ":" in listen:
        host, _, port_text = listen.rpartition(":")
    else:
        host, port_text = "127.0.0.1", listen
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ValueError(
            f"malformed --listen address {listen!r}; expected host:port"
        ) from exc
    if not 0 <= port <= 65535:
        raise ValueError(
            f"--listen address {listen!r} has port {port}; expected 0-65535 "
            "(0: ephemeral)"
        )
    return host, port


def run_worker(listen: str = "127.0.0.1:0", once: bool = False) -> int:
    """CLI entry point: parse ``host:port``, serve until shutdown/SIGINT."""
    host, port = parse_listen_address(listen)
    server = WorkerServer(host=host, port=port, once=once)
    try:
        server.serve()
    except KeyboardInterrupt:
        pass
    return 0

"""Tests for the distributed execution subsystem.

The acceptance bar: per seed, ``backend="distributed"`` produces a
``TrainingHistory`` bit-identical to ``backend="serial"``.  The invariant
matrix (``test_invariant_matrix.py``) holds that for every defense,
algorithm, participation model, aggregation mode and population it
crosses with the backend.  The pins kept here are the mechanisms it
cannot express: forced out-of-order worker completion, a worker killed
mid-round (its unfinished tasks are re-dispatched to the survivor), FedDC
drift larger than the socket buffers, frame faults, and the worker
lifecycle.
"""

from __future__ import annotations

import errno
import gc
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from repro.experiments.scenario import Scenario
from repro.federated.engine import CallbackHook, build_round_plan
from repro.federated.engine.backends import EngineContext, make_backend
from repro.federated.engine.distributed import coordinator, protocol, worker
from repro.federated.engine.distributed.coordinator import (
    DistributedBackend,
    _parse_addresses,
)


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes it allocates above what is live before."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _peak = tracemalloc.get_traced_memory()
        result = fn(*args)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return result, peak - base


#: This checkout's ``src``, for the fresh interpreters some tests start.
_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)


def fork_child(code: int, sleep: float = 0.0) -> int:
    """Fork a child that sleeps ``sleep`` seconds, then exits with ``code``."""
    pid = os.fork()
    if pid == 0:
        try:
            time.sleep(sleep)
        finally:
            os._exit(code)
    return pid


class TrickleSocket:
    """A socket double whose ``sendmsg`` takes at most ``limit`` bytes per call."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.sent = bytearray()
        self.calls: list[int] = []

    def sendmsg(self, buffers) -> int:
        taken = 0
        for buffer in buffers:
            chunk = bytes(buffer[: self.limit - taken])
            self.sent += chunk
            taken += len(chunk)
        self.calls.append(taken)
        return taken


def base_scenario(**overrides) -> Scenario:
    """Tiny full-participation federation: 8 benign tasks per round."""
    scenario = Scenario(
        dataset="femnist",
        num_clients=8,
        samples_per_client=10,
        num_classes=4,
        image_size=8,
        hidden=(16,),
        rounds=2,
        sample_rate=1.0,
        local={"epochs": 1, "batch_size": 8, "lr": 0.05},
        seed=5,
        attack="none",
        max_test_samples=8,
    )
    return scenario.with_overrides(**overrides) if overrides else scenario


@lru_cache(maxsize=None)
def serial_history() -> list:
    """The serial-backend reference history of :func:`base_scenario`."""
    return base_scenario().run().history.to_dict()["records"]


def distributed_history(hooks=None, **overrides) -> tuple[list, object]:
    overrides = {"backend": "distributed", "backend_workers": 2, **overrides}
    result = base_scenario(**overrides).run(hooks=hooks)
    return result.history.to_dict()["records"], result.extras["server"]



class TestProtocol:
    def test_message_roundtrip_is_bitexact(self):
        rng = np.random.default_rng(0)
        arrays = {"params": rng.normal(size=257), "state": rng.normal(size=31)}
        fields = {"slot": 3, "loss": 0.25, "label": "x"}
        decoded_fields, decoded = protocol.decode_message(
            protocol.encode_message(fields, arrays)
        )
        assert decoded_fields == fields
        for name, original in arrays.items():
            assert decoded[name].tobytes() == original.tobytes()

    def test_encode_rejects_a_vector_that_is_not_flat(self):
        with pytest.raises(ValueError, match="'m' is not a flat vector"):
            protocol.encode_message({}, {"v": np.zeros(3), "m": np.zeros((2, 2))})

    def test_reserved_header_field_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            protocol.encode_message({"_arrays": 1})

    def test_vectors_cross_as_raw_little_endian_float64(self):
        vector = np.arange(3, dtype=np.float32)  # widened on encode
        payload = protocol.encode_message({}, {"v": vector})
        assert payload.endswith(np.arange(3, dtype="<f8").tobytes())
        # message_size's split: 8 B frame header + envelope, then 8 B/element.
        assert protocol.message_size({}, {"v": 3}) == (8 + len(payload) - 24, 24)

    def test_frame_roundtrip_over_socketpair(self):
        left, right = socket.socketpair()
        try:
            update = np.arange(5, dtype=np.float64) / 3.0
            protocol.send_message(
                left, protocol.MessageType.UPDATE, {"slot": 1}, {"update": update}
            )
            msg, fields, arrays = protocol.recv_message(right)
            assert msg is protocol.MessageType.UPDATE
            assert fields == {"slot": 1}
            assert arrays["update"].tobytes() == update.tobytes()
        finally:
            left.close()
            right.close()

    def test_frames_cross_without_copies_of_their_vectors(self):
        # send_message gathers the frame from the vector's own buffer;
        # recv_message fills one buffer and copies the vector out once.
        vector = np.random.default_rng(5).normal(size=20_000)
        left, right = socket.socketpair()
        try:
            for sock in (left, right):
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 20)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
                sock.settimeout(5)  # a full buffer fails instead of hanging
            _none, sent = traced_peak(
                protocol.send_message,
                left, protocol.MessageType.UPDATE, {"slot": 0}, {"update": vector},
            )
            (_msg, _fields, arrays), received = traced_peak(protocol.recv_message, right)
        finally:
            left.close()
            right.close()
        assert arrays["update"].tobytes() == vector.tobytes()
        assert sent < 0.05 * vector.nbytes
        assert received <= 2 * vector.nbytes * 1.01

    @pytest.mark.parametrize("fields, arrays", [
        ({}, {}),
        ({"slot": 4, "client": 17, "loss": 0.25, "num_examples": 9}, {"update": np.arange(7.0)}),
        ({"round": 3, "label": "\u00fc"}, {"params": np.zeros(0), "state": np.ones(5, np.float32)}),
    ], ids=["empty", "update", "two-vectors"])
    def test_send_returns_the_split_both_sides_meter(self, fields, arrays):
        left, right = socket.socketpair()
        try:
            split = protocol.send_message(left, protocol.MessageType.TASK, fields, arrays)
            metered = []
            protocol.recv_message(right, meter=lambda _msg, *sizes: metered.append(sizes))
        finally:
            left.close()
            right.close()
        lengths = {name: len(vector) for name, vector in arrays.items()}
        assert split == protocol.message_size(fields, lengths) == metered[0]

    def test_partial_sends_deliver_the_frame_bit_for_bit(self):
        sock = TrickleSocket(limit=4096)
        vectors = {"update": np.random.default_rng(6).normal(size=3000), "state": np.zeros(0)}
        protocol.send_message(sock, protocol.MessageType.TASK, {"slot": 4}, vectors)
        assert len(sock.calls) > 1
        assert max(sock.calls) == 4096
        assert bytes(sock.sent) == _frame(
            protocol.encode_message({"slot": 4}, vectors),
            msg_type=protocol.MessageType.TASK,
        )
        msg, fields, arrays = _receive(bytes(sock.sent))
        assert msg is protocol.MessageType.TASK
        assert fields == {"slot": 4}
        assert set(arrays) == set(vectors)
        for name, vector in vectors.items():
            assert arrays[name].tobytes() == vector.tobytes()

    def test_recv_rejects_bad_magic_and_version(self):
        for header in (b"XX\x01\x06", bytes((82, 87, 99, 6))):  # magic / version
            left, right = socket.socketpair()
            try:
                left.sendall(header + b"\x00\x00\x00\x00")
                with pytest.raises(protocol.ProtocolError):
                    protocol.recv_message(right)
            finally:
                left.close()
                right.close()

    def test_recv_raises_connection_closed_mid_frame(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"RW")  # partial header, then EOF
            left.close()
            with pytest.raises(protocol.ConnectionClosed):
                protocol.recv_message(right)
        finally:
            right.close()

    def test_update_header_is_the_update_frame_layout(self):
        plan = build_round_plan(0, [4, 7], set(), seed=0, attack_active=False)
        update = plan.tasks[1].update(np.ones(3), num_examples=12, loss=0.5)
        assert protocol.update_header(update) == {
            "slot": 1, "client": 7, "loss": 0.5, "num_examples": 12,
        }
        update.metadata["secagg_masked"] = True
        assert protocol.update_header(update)["masked"] is True

    def test_context_payload_projects_and_fingerprints(self):
        scenario = base_scenario()
        payload = protocol.context_payload(scenario.to_dict())
        assert set(payload) == set(protocol.CONTEXT_FIELDS)
        fingerprint = protocol.context_fingerprint(payload)
        # Defense/round-count changes do not invalidate a worker's cache ...
        other = scenario.with_overrides(defense="krum", rounds=7)
        assert protocol.context_fingerprint(
            protocol.context_payload(other.to_dict())
        ) == fingerprint
        # ... but context-relevant changes do.
        reseeded = scenario.with_overrides(seed=6)
        assert protocol.context_fingerprint(
            protocol.context_payload(reseeded.to_dict())
        ) != fingerprint


def _frame(payload: bytes, magic=b"RW", version=None, msg_type=6, length=None) -> bytes:
    """Raw frame bytes: 2 B magic, 1 B version, 1 B type, 4 B BE length, payload."""
    version = protocol.PROTOCOL_VERSION if version is None else version
    length = len(payload) if length is None else length
    return struct.pack(">2sBBI", magic, version, msg_type, length) + payload


def _message(header: bytes, body: bytes = b"") -> bytes:
    """Raw message payload: 4 B BE header length, JSON header, vector bytes."""
    return struct.pack(">I", len(header)) + header + body


def _receive(data: bytes):
    """Send ``data`` then EOF over a socketpair and decode one frame."""
    left, right = socket.socketpair()
    right.settimeout(5)  # a decoder that blocks fails instead of hanging
    try:
        left.sendall(data)
        left.close()
        return protocol.recv_message(right)
    finally:
        left.close()
        right.close()


ONE_FLOAT = np.float64(1.0).tobytes()

MALFORMED_FRAMES = {
    "wrong magic": _frame(_message(b"{}"), magic=b"XX"),
    "wrong version": _frame(_message(b"{}"), version=protocol.PROTOCOL_VERSION - 1),
    "oversized length": _frame(b"", length=protocol.MAX_PAYLOAD + 1),
    "unknown type": _frame(_message(b"{}"), msg_type=99),
    "payload shorter than header prefix": _frame(b"\x00\x00"),
    "payload shorter than header": _frame(struct.pack(">I", 64) + b"{}"),
    "corrupt JSON header": _frame(_message(b'{"slot": 1,')),
    "non-UTF-8 header": _frame(_message(b'{"client": "\xff"}')),
    "JSON list header": _frame(_message(b"[1, 2]")),
    "arrays not a list": _frame(_message(b'{"_arrays": {"x": 1}}')),
    "array entry without length": _frame(_message(b'{"_arrays": [["x"]]}')),
    "negative array length": _frame(
        _message(b'{"_arrays": [["x", -1], ["y", 2]]}', ONE_FLOAT)
    ),
    "boolean array length": _frame(_message(b'{"_arrays": [["x", true]]}', ONE_FLOAT)),
    "array declared twice": _frame(
        _message(b'{"_arrays": [["x", 1], ["x", 1]]}', ONE_FLOAT * 2)
    ),
    "truncated array": _frame(_message(b'{"_arrays": [["x", 4]]}', ONE_FLOAT)),
    "trailing bytes": _frame(_message(b"{}", b"\x00" * 3)),
}


class TestFrameFaults:
    """Every malformed frame ends in a ProtocolError, never a hang."""

    def test_truncated_frame_raises_connection_closed(self):
        with pytest.raises(protocol.ConnectionClosed):
            _receive(_frame(_message(b"{}"), length=64))

    @pytest.mark.parametrize("case", sorted(MALFORMED_FRAMES))
    def test_malformed_frame_raises_protocol_error(self, case):
        with pytest.raises(protocol.ProtocolError) as excinfo:
            _receive(MALFORMED_FRAMES[case])
        # A real violation, not the peer's EOF (ConnectionClosed subclasses it).
        assert not isinstance(excinfo.value, protocol.ConnectionClosed)

    def test_well_formed_frame_still_decodes(self):
        msg, fields, arrays = _receive(
            _frame(_message(b'{"_arrays": [["x", 1]], "slot": 2}', ONE_FLOAT))
        )
        assert msg is protocol.MessageType.UPDATE
        assert fields == {"slot": 2}
        assert arrays["x"].tolist() == [1.0]


class TestFloat64Only:
    """float64 is the one wire format; ``wire_dtype`` accepts nothing else."""

    def test_backend_rejects_any_other_wire_dtype(self):
        with pytest.raises(ValueError, match="float64"):
            DistributedBackend(max_workers=1, wire_dtype="float32")
        DistributedBackend(max_workers=1, wire_dtype="float64").close()

    def test_scenario_rejects_any_other_wire_dtype_before_any_build(self):
        with pytest.raises(ValueError, match="float64"):
            base_scenario(backend="distributed:wire_dtype='float32'")
        scenario = base_scenario(backend="distributed:wire_dtype='float64'")
        assert scenario.backend_kwargs == {"wire_dtype": "float64"}


class TestCoordinatorConfig:
    def test_registered_and_constructible(self):
        backend = make_backend("distributed", max_workers=2)
        assert isinstance(backend, DistributedBackend)
        assert backend.max_workers == 2
        backend.close()
        backend.close()  # idempotent

    def test_default_workers_follow_cpu_affinity(self, monkeypatch):
        """A process pinned to one CPU spawns one worker, whatever the host has."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert DistributedBackend().max_workers == 1

    @pytest.mark.parametrize("max_workers", [2.5, True, "2", 0, -1])
    def test_max_workers_must_be_a_count(self, max_workers):
        with pytest.raises(ValueError, match="max_workers"):
            DistributedBackend(max_workers=max_workers)

    @pytest.mark.parametrize("failure", ["fork", "hello"])
    def test_failed_spawn_leaves_no_workers(self, monkeypatch, failure):
        """A failed second worker fails the whole spawn: no link open, every fork reaped.

        ``fork``: the second ``os.fork`` raises.  ``hello``: the second
        worker is forked after the protocol version is patched to the
        previous one, so it inherits the patch and says so in its HELLO.
        """
        real_fork = os.fork
        forked: list[int] = []

        def fork():
            if forked:
                if failure == "fork":
                    raise OSError(errno.EAGAIN, "fork refused")
                monkeypatch.setattr(
                    worker, "PROTOCOL_VERSION", protocol.PROTOCOL_VERSION - 1
                )
            pid = real_fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        backend = DistributedBackend(max_workers=2, spawn_timeout=10.0)
        begin = time.monotonic()
        try:
            with pytest.raises(OSError if failure == "fork" else protocol.ProtocolError):
                backend.spawn_local(2)
            assert time.monotonic() - begin < 20
            assert backend.workers == []
            assert len(forked) == (1 if failure == "fork" else 2)
            for pid in forked:
                with pytest.raises(ProcessLookupError):
                    os.kill(pid, 0)
        finally:
            backend.close()

    def test_spawn_starts_no_interpreter(self, monkeypatch):
        """Local workers are forked from this process, not exec'd."""

        def popen(*_args, **_kwargs):
            raise AssertionError("spawn_local started a subprocess")

        monkeypatch.setattr(subprocess, "Popen", popen)
        backend = DistributedBackend(max_workers=2)
        try:
            backend.spawn_local(2)
            links = backend.workers
            assert len(links) == 2
            assert [link.child for link in links] == [link.pid for link in links]
        finally:
            backend.close()

    def test_close_shuts_every_worker_down_before_reaping_any(self, monkeypatch):
        backend = DistributedBackend(max_workers=2)
        events: list[tuple[str, int]] = []
        statuses: list[int] = []
        real_send, real_reap = backend._send, coordinator._reap

        def send(link, msg_type, *args, **kwargs):
            events.append((msg_type.name, link.pid))
            return real_send(link, msg_type, *args, **kwargs)

        def reap(pid, deadline):
            events.append(("reap", pid))
            statuses.append(real_reap(pid, deadline))
            return statuses[-1]

        monkeypatch.setattr(backend, "_send", send)
        monkeypatch.setattr(coordinator, "_reap", reap)
        try:
            backend.spawn_local(2)
            pids = [link.child for link in backend.workers]
        finally:
            backend.close()
        assert events == [("SHUTDOWN", pid) for pid in pids] + [("reap", pid) for pid in pids]
        assert statuses == [0, 0]
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_dropped_backend_reaps_its_workers(self):
        """A backend dropped without close() leaves no zombie behind."""
        backend = DistributedBackend(max_workers=2)
        backend.spawn_local(2)
        children = [link.child for link in backend.workers]
        del backend
        gc.collect()
        for pid in children:
            with pytest.raises(ChildProcessError):  # reaped by the finaliser
                os.waitpid(pid, os.WNOHANG)

    def test_reap_kills_a_process_past_the_deadline(self):
        pid = fork_child(0, sleep=30)
        begin = time.monotonic()
        assert coordinator._reap(pid, time.monotonic() + 0.2) == -signal.SIGKILL
        assert time.monotonic() - begin < 10
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    def test_reap_returns_the_exit_status(self):
        pid = fork_child(3)
        assert coordinator._reap(pid, time.monotonic() + 20) == 3
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    def test_forked_worker_holds_only_its_own_descriptors(self):
        """No inherited descriptor survives the fork: 0-2 and two sockets only."""
        other = DistributedBackend(max_workers=1)
        backend = DistributedBackend(max_workers=1)
        try:
            other.spawn_local(1)
            backend.spawn_local(1)
            fd_dir = f"/proc/{backend.workers[0].pid}/fd"
            targets = {int(fd): os.readlink(f"{fd_dir}/{fd}") for fd in os.listdir(fd_dir)}
            other_link = os.readlink(f"/proc/self/fd/{other.workers[0].sock.fileno()}")
        finally:
            backend.close()
            other.close()
        assert {0, 1, 2} <= set(targets)
        extra = [target for fd, target in targets.items() if fd > 2]
        # Its listener and its session socket, and no copy of the other link.
        assert len(extra) == 2
        assert all(target.startswith("socket:") for target in extra)
        assert other_link not in extra

    def test_crashed_coordinator_link_ends_its_worker(self):
        """Closing a link without SHUTDOWN ends its worker, whoever forked since.

        The second worker is forked while the first link is open; had it
        kept its copy of that socket, the first worker would never read EOF.
        """
        first = DistributedBackend(max_workers=1)
        second = DistributedBackend(max_workers=1)
        try:
            first.spawn_local(1)
            second.spawn_local(1)
            link = first.workers[0]
            link.close()  # as a crashed coordinator would: no SHUTDOWN
            assert coordinator._reap(link.child, time.monotonic() + 10) == 0
            link.child = None
        finally:
            first.close()
            second.close()

    def test_forked_worker_finalises_no_object_of_the_driver(self, monkeypatch):
        """Garbage made before the fork is never collected in a worker.

        A finaliser run in the child could close a descriptor number the
        child has reused for its own socket.  The stand-in here, an
        unreachable cycle made right before the fork, closes every
        descriptor above 2 if it is ever finalised outside the driver; the
        worker collects garbage before it accepts its coordinator.
        """
        driver = os.getpid()

        class Finaliser:
            def __init__(self):
                self.cycle = self

            def __del__(self):
                if os.getpid() != driver:
                    os.closerange(3, os.sysconf("SC_OPEN_MAX"))

        real_fork, real_accept_loop = os.fork, worker.WorkerServer.accept_loop

        def fork():
            Finaliser()
            return real_fork()

        def accept_loop(server, listener):
            gc.collect()
            return real_accept_loop(server, listener)

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(worker.WorkerServer, "accept_loop", accept_loop)
        records, _server = distributed_history(backend_workers=1)
        assert records == serial_history()

    def test_fork_writes_buffered_output_once(self, capfd, monkeypatch):
        # Block-buffered whatever buffering this process started with, and
        # flushed by the worker as it exits.
        with (
            open(1, "w", buffering=1 << 16, closefd=False) as stdout,
            monkeypatch.context() as patch,
        ):
            patch.setattr(sys, "__stdout__", stdout)
            stdout.write("buffered before the fork\n")
            backend = DistributedBackend(max_workers=1)
            try:
                backend.spawn_local(1)
            finally:
                backend.close()
        assert capfd.readouterr().out.count("buffered before the fork") == 1

    def test_accept_loop_gives_up_when_no_coordinator_connects(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(0.2)
            begin = time.monotonic()
            with pytest.raises(TimeoutError):
                worker.WorkerServer(once=True).accept_loop(listener)
        assert time.monotonic() - begin < 5

    def test_forked_worker_exits_when_no_coordinator_connects(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            pid = worker.fork_worker(listener, accept_timeout=0.2)
        assert coordinator._reap(pid, time.monotonic() + 10) == 1

    def test_parse_addresses(self):
        assert _parse_addresses(None) == ()
        assert _parse_addresses("h1:1, h2:2") == (("h1", 1), ("h2", 2))
        assert _parse_addresses(["h1:1", "h2:2"]) == (("h1", 1), ("h2", 2))
        with pytest.raises(ValueError, match="host:port"):
            _parse_addresses(["nocolon"])
        with pytest.raises(ValueError, match="host:port"):
            _parse_addresses(["h:notaport"])
        # Ports wrap modulo 2**16 in the socket layer: 99999 would dial 34463.
        assert _parse_addresses("h:1,h:65535") == (("h", 1), ("h", 65535))
        for port in (99999, 65536, 0, -1):
            with pytest.raises(ValueError, match="1-65535"):
                _parse_addresses(f"127.0.0.1:{port}")

    def test_parse_listen_address(self):
        from repro.federated.engine.distributed.worker import parse_listen_address

        assert parse_listen_address("127.0.0.1:7011") == ("127.0.0.1", 7011)
        assert parse_listen_address(":0") == ("", 0)  # all interfaces, ephemeral
        assert parse_listen_address("8080") == ("127.0.0.1", 8080)  # bare port
        with pytest.raises(ValueError, match="host:port"):
            parse_listen_address("127.0.0.1:notaport")
        assert parse_listen_address(":65535") == ("", 65535)
        for listen in ("99999", "-5", "127.0.0.1:65536"):
            with pytest.raises(ValueError, match="0-65535"):
                parse_listen_address(listen)

    def test_backend_is_reusable_after_close(self):
        """Matching the pool backends: close() releases, next round respawns."""
        from repro.experiments.runner import (
            build_algorithm,
            build_backend,
            build_dataset,
            build_model_factory,
        )
        from repro.federated.server import FederatedServer, ServerConfig

        scenario = base_scenario(backend="distributed", backend_workers=1)
        dataset, generator = build_dataset(scenario)
        server = FederatedServer(
            dataset,
            build_model_factory(scenario, generator),
            build_algorithm(scenario),
            ServerConfig(rounds=2, participation="uniform:sample_rate=1.0", seed=5, local=scenario.local),
            backend=build_backend(scenario),
        )
        with server:
            server.run_round()
        assert server.backend.workers == []     # context exit shut them down
        server.run_round()                      # respawns workers lazily
        server.close()
        assert server.history.to_dict()["records"] == serial_history()

    def test_scenario_spec_routes_backend_kwargs(self):
        scenario = base_scenario(backend="distributed:max_workers=3")
        assert scenario.backend == "distributed"
        assert scenario.backend_workers == 3
        spec = base_scenario(
            backend="distributed:connect='127.0.0.1:5555'"
        )
        assert spec.backend_kwargs == {"connect": "127.0.0.1:5555"}
        # Lossless JSON round-trip, including backend_kwargs.
        assert Scenario.from_dict(json.loads(spec.to_json())) == spec

    def test_scenario_rejects_unknown_backend_kwargs(self):
        with pytest.raises(ValueError, match="does not accept"):
            base_scenario(backend="distributed:frobnicate=1")

    def test_unconfigured_backend_raises_helpfully(self, small_federation, image_model_factory):
        from repro.federated.algorithms.fedavg import FedAvg
        from repro.federated.client import LocalTrainingConfig
        from repro.federated.server import FederatedServer, ServerConfig

        config = ServerConfig(rounds=1, participation="uniform:sample_rate=0.5", seed=2,
                              local=LocalTrainingConfig(epochs=1, batch_size=8))
        with FederatedServer(
            small_federation, image_model_factory, FedAvg(), config,
            backend="distributed",
        ) as server:
            with pytest.raises(RuntimeError, match="configure_scenario"):
                server.run_round()


class TestBitIdentity:
    def test_feddc_drift_larger_than_the_socket_buffers(self):
        """A TASK that carries drift goes only to a worker with nothing outstanding.

        At ``hidden=(4096,)`` a drift vector is 8.75 MB, more than the
        loopback buffers hold.  Prefetched to a worker that is sending its
        previous UPDATE, it blocks both sides' sends for good.  The runs
        happen in a fresh interpreter with a timeout, so a hang fails this
        test instead of stalling the suite.
        """
        scenario = base_scenario(
            num_clients=4, num_classes=10, image_size=16, hidden=(4096,),
            rounds=1, algorithm="feddc",
        )
        code = (
            "import json\n"
            "from repro.experiments.scenario import Scenario\n"
            f"scenario = Scenario.from_dict(json.loads({scenario.to_json()!r}))\n"
            "serial = scenario.run().history.to_dict()\n"
            "run = scenario.with_overrides(backend='distributed', backend_workers=1).run()\n"
            "print(json.dumps(run.history.to_dict() == serial))\n"
        )
        env = os.environ.copy()
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert json.loads(out.stdout.splitlines()[-1]) is True

    def test_reordered_completion(self, delay_updates):
        """Forced out-of-order arrival must not change the history."""
        delay_updates(0.4)
        arrivals: list[int] = []
        hook = CallbackHook(on_update=lambda s, p, u: arrivals.append(u.slot))
        records, _server = distributed_history(hooks=[hook])
        assert records == serial_history()
        per_round = len(arrivals) // 2
        first_round = arrivals[:per_round]
        assert first_round != sorted(first_round), "delays failed to reorder arrivals"

    def test_worker_kill_redispatches_and_matches_serial(self, delay_updates):
        """SIGKILLing a worker mid-round re-runs its tasks on the survivor."""
        delay_updates(0.3)
        killed: list[int] = []

        def kill_one(server, plan, update):
            if killed:
                return
            backend = server.backend
            victims = [link for link in backend.workers if link.outstanding]
            if victims:
                os.kill(victims[-1].pid, signal.SIGKILL)
                killed.append(victims[-1].pid)

        hook = CallbackHook(on_update=kill_one)
        records, server = distributed_history(hooks=[hook])
        assert records == serial_history()
        assert killed, "test never killed a worker"
        assert server.backend.redispatch_count > 0
        assert killed[0] not in server.backend.worker_pids


@pytest.fixture
def worker_address():
    """Run `python -m repro worker` for one test; yield its announced address."""
    env = os.environ.copy()
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        line = proc.stdout.readline().split()
        assert line[:2] == ["REPRO-WORKER", "LISTENING"]
        yield f"{line[2]}:{line[3]}"
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()


class TestStandaloneWorker:
    def test_attach_to_externally_started_worker(self, worker_address):
        """`python -m repro worker` + backend_kwargs connect= end to end."""
        records, server = distributed_history(
            backend_workers=None, backend_kwargs={"connect": worker_address},
            telemetry=True,
        )
        assert records == serial_history()
        names = [span.name for span in server.telemetry.tracer.spans()]
        assert names.count("connect") == 1
        assert "spawn" not in names

    def test_failed_attach_leaves_no_links(self, worker_address):
        """One refused address fails the whole attach and frees the live worker.

        A worker serves one coordinator at a time: had the live link stayed
        open, the second attach would wait out its whole spawn_timeout.
        """
        unbound = socket.socket()  # bound but never listening: refuses connections
        unbound.bind(("127.0.0.1", 0))
        refused = f"127.0.0.1:{unbound.getsockname()[1]}"
        backend = DistributedBackend(connect=[worker_address, refused], spawn_timeout=10.0)
        retry = DistributedBackend(connect=worker_address, spawn_timeout=10.0)
        try:
            backend.bind(EngineContext(None, None, None, None))
            with pytest.raises(ConnectionRefusedError):
                backend._ensure_started(round_idx=0)
            assert backend.workers == []
            retry.bind(EngineContext(None, None, None, None))
            retry._ensure_started(round_idx=0)
            assert len(retry.workers) == 1
        finally:
            backend.close()
            retry.close()
            unbound.close()


    def test_previous_protocol_worker_is_refused_at_hello(self):
        """A v6 worker would mask over the complete graph: it never connects.

        Frames did not change in v7, only the mask graph under a masked
        UPDATE's words, so the version byte is what keeps such a worker
        from silently corrupting the fold.
        """
        listener = socket.create_server(("127.0.0.1", 0))
        old = protocol.PROTOCOL_VERSION - 1
        payload = protocol.encode_message({"version": old, "pid": 0})

        def old_worker():
            conn, _addr = listener.accept()
            with conn:
                conn.sendall(
                    struct.pack(">2sBBI", b"RW", old, protocol.MessageType.HELLO,
                                len(payload)) + payload
                )

        thread = threading.Thread(target=old_worker, daemon=True)
        thread.start()
        address = f"127.0.0.1:{listener.getsockname()[1]}"
        backend = DistributedBackend(connect=address, spawn_timeout=10.0)
        try:
            backend.bind(EngineContext(None, None, None, None))
            with pytest.raises(protocol.ProtocolError, match=f"version {old}"):
                backend._ensure_started(round_idx=0)
            assert backend.workers == []
        finally:
            backend.close()
            thread.join(timeout=10)
            listener.close()


class TestWorkerErrorPropagation:
    def test_task_failure_reaches_the_driver(self):
        """A worker-side exception surfaces as a driver-side RuntimeError."""
        # An out-of-range client id makes the worker's dataset lookup fail.
        scenario = base_scenario(backend="distributed", backend_workers=1)
        from repro.experiments.runner import build_backend, build_dataset, build_model_factory

        backend = build_backend(scenario)
        try:
            dataset, generator = build_dataset(scenario)
            from repro.experiments.runner import build_algorithm
            from repro.federated.engine.backends import EngineContext
            from repro.federated.engine.plan import build_round_plan
            from repro.nn.serialization import flatten_params

            factory = build_model_factory(scenario, generator)
            backend.bind(EngineContext(
                dataset=dataset, model_factory=factory,
                algorithm=build_algorithm(scenario),
                local_config=scenario.local,
            ))
            params = flatten_params(factory())
            bogus = build_round_plan(0, [dataset.num_clients + 3], set(), seed=5,
                                     attack_active=False)
            with pytest.raises(RuntimeError, match="worker task failed"):
                list(backend.iter_updates(bogus, params))
        finally:
            backend.close()

"""Tests for the distributed execution subsystem.

The acceptance bar: per seed, ``backend="distributed"`` produces a
``TrainingHistory`` bit-identical to ``backend="serial"`` — for a streaming
defense (``mean``) and a buffering one (``krum``), for the stateful-benign
FedDC algorithm (drift ships with each task), under forced out-of-order
worker completion, and across a worker killed mid-round (its unfinished
tasks are re-dispatched to the survivor).
"""

from __future__ import annotations

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
from repro.federated.engine.distributed import coordinator, protocol
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
def serial_history(defense: str = "mean", algorithm: str = "fedavg") -> list:
    """Serial-backend reference history for one (defense, algorithm) cell."""
    result = base_scenario(defense=defense, algorithm=algorithm).run()
    return result.history.to_dict()["records"]


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

    def test_failed_spawn_leaves_no_workers(self, monkeypatch):
        """One bad worker fails the whole spawn: no link open, every process reaped."""
        real_popen = subprocess.Popen
        started: list[subprocess.Popen] = []

        def popen(args, **kwargs):
            if started:  # the second worker announces garbage, then hangs
                args = [sys.executable, "-c",
                        "print('garbage', flush=True); import time; time.sleep(30)"]
            started.append(real_popen(args, **kwargs))
            return started[-1]

        monkeypatch.setattr(coordinator.subprocess, "Popen", popen)
        backend = DistributedBackend(max_workers=2)
        begin = time.monotonic()
        try:
            with pytest.raises(RuntimeError, match="garbage"):
                backend.spawn_local(2)
            assert time.monotonic() - begin < 20
            assert backend.workers == []
            assert len(started) == 2
            assert all(proc.returncode is not None for proc in started)
        finally:
            backend.close()

    def test_close_shuts_every_worker_down_before_reaping_any(self, monkeypatch):
        backend = DistributedBackend(max_workers=2)
        events: list[tuple[str, int]] = []
        real_send, real_reap = backend._send, coordinator._reap

        def send(link, msg_type, *args, **kwargs):
            events.append((msg_type.name, link.pid))
            return real_send(link, msg_type, *args, **kwargs)

        def reap(proc, deadline):
            events.append(("reap", proc.pid))
            real_reap(proc, deadline)

        monkeypatch.setattr(backend, "_send", send)
        monkeypatch.setattr(coordinator, "_reap", reap)
        try:
            backend.spawn_local(2)
            procs = [link.proc for link in backend.workers]
        finally:
            backend.close()
        pids = [proc.pid for proc in procs]
        assert events == [("SHUTDOWN", pid) for pid in pids] + [("reap", pid) for pid in pids]
        assert [proc.returncode for proc in procs] == [0, 0]
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_reap_kills_a_process_past_the_deadline(self):
        proc = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(30)"],
            stdout=subprocess.PIPE, text=True,
        )
        coordinator._reap(proc, time.monotonic() + 0.2)
        assert proc.returncode == -signal.SIGKILL
        assert proc.stdout.closed

    def test_reap_drains_output_until_the_process_exits(self):
        proc = subprocess.Popen(
            [sys.executable, "-c", "print('x' * 100_000); raise SystemExit(3)"],
            stdout=subprocess.PIPE, text=True,
        )
        coordinator._reap(proc, time.monotonic() + 20)
        assert proc.returncode == 3
        assert proc.stdout.closed

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
        assert server.history.to_dict()["records"] == serial_history("mean")

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
    @pytest.mark.parametrize("defense", ["mean", "krum"])
    def test_distributed_equals_serial(self, defense):
        records, server = distributed_history(defense=defense)
        assert records == serial_history(defense)
        # The workers really were separate interpreters.
        assert server.backend.redispatch_count == 0

    def test_feddc_state_ships_with_tasks(self):
        records, _server = distributed_history(algorithm="feddc")
        assert records == serial_history("mean", "feddc")

    def test_reordered_completion(self, monkeypatch):
        """Forced out-of-order arrival must not change the history."""
        # Worker-side test knob: lower slots sleep longest after computing,
        # so updates reach the coordinator out of slot order.
        monkeypatch.setenv("REPRO_WORKER_TEST_DELAY", "0.4")
        arrivals: list[int] = []
        hook = CallbackHook(on_update=lambda s, p, u: arrivals.append(u.slot))
        records, _server = distributed_history(hooks=[hook])
        assert records == serial_history("mean")
        per_round = len(arrivals) // 2
        first_round = arrivals[:per_round]
        assert first_round != sorted(first_round), "delays failed to reorder arrivals"

    def test_lazy_population_reaches_the_workers(self):
        """Workers rebuild the driver's lazy population, not an eager federation."""
        population = dict(
            num_clients=200,
            samples_per_client=12,
            sample_rate=0.05,
            population="synthetic:cache_size=16",
        )
        serial = base_scenario(**population).run().history.to_dict()["records"]
        records, _server = distributed_history(backend_workers=1, **population)
        assert records == serial

    def test_worker_kill_redispatches_and_matches_serial(self, monkeypatch):
        """SIGKILLing a worker mid-round re-runs its tasks on the survivor."""
        monkeypatch.setenv("REPRO_WORKER_TEST_DELAY", "0.3")
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
        assert records == serial_history("mean")
        assert killed, "test never killed a worker"
        assert server.backend.redispatch_count > 0
        assert killed[0] not in server.backend.worker_pids


@pytest.fixture
def worker_address():
    """Run `python -m repro worker` for one test; yield its announced address."""
    env = os.environ.copy()
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
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
        assert records == serial_history("mean")
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

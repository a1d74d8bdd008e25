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
import subprocess
import sys
from functools import lru_cache

import numpy as np
import pytest

from repro.experiments.scenario import Scenario
from repro.federated.engine import CallbackHook
from repro.federated.engine.backends import make_backend
from repro.federated.engine.distributed import protocol
from repro.federated.engine.distributed.coordinator import (
    DistributedBackend,
    _parse_addresses,
)
from repro.nn.serialization import vector_from_bytes, vector_to_bytes


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
        fields = {"order": 3, "loss": 0.25, "label": "x"}
        decoded_fields, decoded = protocol.decode_message(
            protocol.encode_message(fields, arrays)
        )
        assert decoded_fields == fields
        for name, original in arrays.items():
            assert decoded[name].tobytes() == original.tobytes()

    def test_vector_codec_rejects_matrices_and_misalignment(self):
        with pytest.raises(ValueError, match="flat vector"):
            vector_to_bytes(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="aligned"):
            vector_from_bytes(b"\x00" * 7)

    def test_frame_roundtrip_over_socketpair(self):
        left, right = socket.socketpair()
        try:
            update = np.arange(5, dtype=np.float64) / 3.0
            protocol.send_message(
                left, protocol.MessageType.UPDATE, {"order": 1}, {"update": update}
            )
            msg, fields, arrays = protocol.recv_message(right)
            assert msg is protocol.MessageType.UPDATE
            assert fields == {"order": 1}
            assert arrays["update"].tobytes() == update.tobytes()
        finally:
            left.close()
            right.close()

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


class TestWireDtype:
    """fp32 wire format: protocol plumbing plus the end-to-end opt-in."""

    def test_float32_message_roundtrip_halves_bytes(self):
        rng = np.random.default_rng(1)
        vector = rng.normal(size=257)
        full = protocol.encode_message({"k": 1}, {"v": vector})
        half = protocol.encode_message({"k": 1}, {"v": vector}, dtype="float32")
        # Same header modulo the _dtype tag; the array section halves.
        assert len(full) - len(half) == 257 * 4
        fields, arrays = protocol.decode_message(half)
        assert fields == {"k": 1}
        np.testing.assert_array_equal(
            arrays["v"], vector.astype(np.float32).astype(np.float64)
        )
        assert arrays["v"].dtype == np.float64  # always rehydrated to f64

    def test_dtype_header_only_present_with_arrays(self):
        fields, _arrays = protocol.decode_message(
            protocol.encode_message({"k": 1}, None, dtype="float32")
        )
        assert fields == {"k": 1}  # no arrays -> no _dtype leaks through

    def test_unknown_dtype_rejected_on_encode_and_decode(self):
        with pytest.raises(ValueError, match="unknown wire dtype"):
            protocol.encode_message({}, {"v": np.zeros(3)}, dtype="float16")
        # A peer declaring an unknown dtype is a protocol violation.
        payload = bytearray(
            protocol.encode_message({}, {"v": np.zeros(3)}, dtype="float32")
        )
        corrupt = bytes(payload).replace(b'"_dtype":"float32"', b'"_dtype":"flort32"')
        with pytest.raises(protocol.ProtocolError, match="unknown wire dtype"):
            protocol.decode_message(corrupt)

    def test_reserved_header_fields_rejected(self):
        for reserved in ("_arrays", "_dtype"):
            with pytest.raises(ValueError, match="reserved"):
                protocol.encode_message({reserved: 1})

    def test_backend_validates_wire_dtype_at_construction(self):
        with pytest.raises(ValueError, match="unknown wire dtype"):
            DistributedBackend(max_workers=1, wire_dtype="float16")
        backend = DistributedBackend(max_workers=1, wire_dtype="float32")
        assert backend.wire_dtype == "float32"
        backend.close()

    def test_float32_run_tracks_serial_within_tolerance(self):
        """The lossy opt-in: not bit-identical, but numerically close."""
        records, _server = distributed_history(
            backend_kwargs={"wire_dtype": "float32"}
        )
        reference = serial_history("mean")
        assert [r["round_idx"] for r in records] == [
            r["round_idx"] for r in reference
        ]
        # Sampling draws on the driver, so client choice is unaffected; only
        # the shipped float payloads are quantised.
        assert [r["sampled_clients"] for r in records] == [
            r["sampled_clients"] for r in reference
        ]
        for got, want in zip(records, reference, strict=True):
            np.testing.assert_allclose(
                got["mean_benign_loss"], want["mean_benign_loss"], rtol=1e-4
            )
            np.testing.assert_allclose(
                got["update_norm"], want["update_norm"], rtol=1e-4
            )
        # fp32 really was lossy somewhere (guards against silently running f64).
        assert any(
            got["update_norm"] != want["update_norm"]
            for got, want in zip(records, reference, strict=True)
        )

    def test_scenario_spec_routes_wire_dtype(self):
        scenario = base_scenario(backend="distributed:wire_dtype='float32'")
        assert scenario.backend == "distributed"
        assert scenario.backend_kwargs == {"wire_dtype": "float32"}


class TestCoordinatorConfig:
    def test_registered_and_constructible(self):
        backend = make_backend("distributed", max_workers=2)
        assert isinstance(backend, DistributedBackend)
        assert backend.max_workers == 2
        backend.close()
        backend.close()  # idempotent

    def test_parse_addresses(self):
        assert _parse_addresses(None) == ()
        assert _parse_addresses("h1:1, h2:2") == (("h1", 1), ("h2", 2))
        assert _parse_addresses(["h1:1", "h2:2"]) == (("h1", 1), ("h2", 2))
        with pytest.raises(ValueError, match="host:port"):
            _parse_addresses(["nocolon"])
        with pytest.raises(ValueError, match="host:port"):
            _parse_addresses(["h:notaport"])

    def test_parse_listen_address(self):
        from repro.federated.engine.distributed.worker import parse_listen_address

        assert parse_listen_address("127.0.0.1:7011") == ("127.0.0.1", 7011)
        assert parse_listen_address(":0") == ("", 0)  # all interfaces, ephemeral
        assert parse_listen_address("8080") == ("127.0.0.1", 8080)  # bare port
        with pytest.raises(ValueError, match="host:port"):
            parse_listen_address("127.0.0.1:notaport")

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


class TestStandaloneWorker:
    def test_attach_to_externally_started_worker(self):
        """`python -m repro worker` + backend_kwargs connect= end to end."""
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
            address = f"{line[2]}:{line[3]}"
            records, _server = distributed_history(
                backend_workers=None, backend_kwargs={"connect": address}
            )
            assert records == serial_history("mean")
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()


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

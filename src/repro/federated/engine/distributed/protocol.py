"""Wire protocol of the distributed execution subsystem.

Everything crossing a coordinator↔worker socket is a *frame*::

    +-------+---------+------+----------------+---------+
    | magic | version | type | payload length | payload |
    |  2 B  |   1 B   | 1 B  |   4 B (BE)     |  ...    |
    +-------+---------+------+----------------+---------+

and every payload is a *message*: a 4-byte length-prefixed JSON header
followed by zero or more named flat vectors, concatenated in the order the
header's ``_arrays`` list declares them.  Every vector crosses the wire as
raw little-endian float64, the dtype models compute in, so it round-trips
bit for bit: that is what lets ``backend="distributed"`` equal
``backend="serial"`` per seed, and what lets secure aggregation ship masked
IEEE-754 words intact.  :func:`send_message` sends a frame gathered from
its vectors' own buffers (header and envelope, then each vector's memory,
in ``sendmsg`` calls), and :func:`recv_message` receives it into one
preallocated buffer, from which each vector is copied out once.

The message types mirror a round's life cycle: a worker announces itself
with ``HELLO``; the coordinator installs the execution context with
``CONFIGURE`` (acknowledged by ``CONFIGURED``), broadcasts the round's
global parameters with ``ROUND``, and dispatches ``TASK`` frames; the
worker streams an ``UPDATE`` frame back per task the moment it is computed
(or ``ERROR`` with a traceback); ``SHUTDOWN`` ends the session.  An
``UPDATE`` header is built by :func:`update_header` alone, for the worker's
frame and for the communication ledger's logical model channel alike.

The decoder trusts nothing it reads: a frame with the wrong magic, version
or type, an oversized or truncated payload, a header that is not a UTF-8
JSON object, a malformed ``_arrays`` layout or trailing bytes raises
:class:`ProtocolError` (a peer gone mid-frame raises its subclass
:class:`ConnectionClosed`), never another exception type.

The module depends only on the standard library plus NumPy, so both sides
of the wire — and any future non-Python tooling reading the frames — share
one small surface.
"""

from __future__ import annotations

import enum
import hashlib
import json
import socket
import struct

import numpy as np

#: Bumped on any incompatible change to framing or message layout; both
#: sides refuse to talk across versions instead of mis-parsing frames.
#: Version 2 added the ``_dtype`` header field (fp32 wire format).
#: Version 3 added secure aggregation: ``ROUND`` may carry a ``secagg``
#: header field ({seed, participants}) instructing workers to mask, and a
#: masked ``UPDATE`` declares itself with ``masked: true`` — its vector is
#: ciphertext (IEEE-754 words plus the client's round mask mod 2**64)
#: riding the float64 transport, which a v2 peer would mis-read as numbers.
#: Version 4 added worker-side profiling: ``ROUND`` may carry
#: ``telemetry: true``, asking workers to time their phases; each ``UPDATE``
#: then carries a compact ``telemetry`` blob ({train_s, mask_s?,
#: context_build_s?, mono}) the coordinator merges into the driver's trace,
#: using ``mono`` (the worker's monotonic send timestamp) for a per-link
#: clock-offset estimate.  Strictly observational — the blob never feeds
#: back into aggregation.
#: Version 5 added ``population`` and ``population_kwargs`` to the
#: ``CONFIGURE`` context, so a worker rebuilds the driver's lazy population
#: instead of an eager federation with different client data.
#: Version 6 renamed the ``order`` field of ``TASK``, ``UPDATE`` and
#: ``ERROR`` to ``slot`` and added ``num_examples`` (the client's training
#: set size) to ``UPDATE``, so the coordinator builds updates without
#: reading its own dataset.  The bump is manual: the wire-protocol golden
#: fingerprints the frame structure, not header field names.
#: Version 7 changed what a masked ``UPDATE``'s words carry: the client's
#: mask over its ring neighbours on the round's sparse SecAgg+ graph
#: (:func:`repro.federated.secagg.masking.mask_neighbours`), not over every
#: other participant.  No frame or header changed, but a v6 peer would mask
#: or unmask those words with the complete graph and silently corrupt the
#: fold, so the two refuse each other at ``HELLO``.
#: Version 8 removed the ``_dtype`` header field and the ``CONFIGURE``
#: frame's wire-encoding field with the fp32 format: every vector is
#: float64, eight bytes per declared element.  A v7 peer could still send
#: fp32 bytes under ``_dtype``, so the two refuse each other at ``HELLO``.
PROTOCOL_VERSION = 8

_MAGIC = b"RW"
_HEADER = struct.Struct(">2sBBI")
_JSON_LEN = struct.Struct(">I")

#: Upper bound on a single frame's payload (guards against garbage length
#: prefixes allocating unbounded buffers): 1 GiB ≈ a 134M-parameter update.
MAX_PAYLOAD = 1 << 30

#: The one wire encoding of a vector: raw little-endian float64.
_FLOAT64 = np.dtype("<f8")


class MessageType(enum.IntEnum):
    """Frame types, in round-trip order of a typical session."""

    HELLO = 1        # worker → coordinator: {version, pid}
    CONFIGURE = 2    # coordinator → worker: {fingerprint, scenario}
    CONFIGURED = 3   # worker → coordinator: {fingerprint}
    ROUND = 4        # coordinator → worker: {round} + params vector
    TASK = 5         # coordinator → worker: task fields (+ optional state)
    UPDATE = 6       # worker → coordinator: update_header(...) + update
    ERROR = 7        # worker → coordinator: {traceback, slot?}
    SHUTDOWN = 8     # coordinator → worker: {}


class ProtocolError(RuntimeError):
    """A frame violated the protocol (bad magic, version, type or layout)."""


class ConnectionClosed(ProtocolError):
    """The peer closed the socket (mid-frame or between frames)."""


# -- message codec ----------------------------------------------------------


def _envelope(fields: dict, lengths: dict[str, int]) -> bytes:
    """The length-prefixed JSON header of a message whose vectors have ``lengths``."""
    if "_arrays" in fields:
        raise ValueError("'_arrays' is reserved for the codec")
    header = dict(fields)
    header["_arrays"] = [[name, int(length)] for name, length in lengths.items()]
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return _JSON_LEN.pack(len(header_bytes)) + header_bytes


def _message_parts(
    fields: dict, arrays: dict[str, np.ndarray] | None
) -> tuple[bytes, list[np.ndarray]]:
    """A message's envelope and its vectors as flat little-endian float64.

    A vector that already is one is passed through, not copied.
    """
    vectors = {
        name: np.ascontiguousarray(array, dtype=_FLOAT64)
        for name, array in (arrays or {}).items()
    }
    for name, vector in vectors.items():
        if vector.ndim != 1:
            raise ValueError(f"array {name!r} is not a flat vector: shape {vector.shape}")
    envelope = _envelope(fields, {name: len(v) for name, v in vectors.items()})
    return envelope, list(vectors.values())


def encode_message(fields: dict, arrays: dict[str, np.ndarray] | None = None) -> bytes:
    """Serialise a JSON-able field dict plus named flat float64 vectors.

    Raises ``ValueError`` when a field claims the codec's reserved
    ``_arrays`` key or a vector is not flat.
    """
    envelope, vectors = _message_parts(fields, arrays)
    return b"".join([envelope, *vectors])


def message_size(fields: dict, arrays: dict[str, int] | None = None) -> tuple[int, int]:
    """Frame-size accounting without materialising the frame.

    ``arrays`` maps vector names to their *lengths* (element counts), so no
    array bytes are copied.  Returns ``(overhead_bytes, vector_bytes)``:
    overhead is the frame header plus the length-prefixed JSON envelope —
    built by the same helper as :func:`encode_message`'s, so the split is
    exact — and vector_bytes is the raw float64 payload of the declared
    vectors.  This is what the communication ledger records per frame.
    """
    arrays = arrays or {}
    vector_bytes = sum(int(length) for length in arrays.values()) * _FLOAT64.itemsize
    return _HEADER.size + len(_envelope(fields, arrays)), vector_bytes


def decode_message(payload: bytes | bytearray) -> tuple[dict, dict[str, np.ndarray]]:
    """Inverse of :func:`encode_message`; malformed input raises :class:`ProtocolError`.

    Each vector is read in place from ``payload`` and copied once, into a
    writable native float64 array that does not keep the frame alive.
    """
    if len(payload) < _JSON_LEN.size:
        raise ProtocolError("message payload shorter than its header prefix")
    (header_len,) = _JSON_LEN.unpack_from(payload)
    offset = _JSON_LEN.size
    if len(payload) < offset + header_len:
        raise ProtocolError("message payload shorter than its declared header")
    try:
        # UnicodeDecodeError and JSONDecodeError are both ValueErrors.
        fields = json.loads(bytes(payload[offset : offset + header_len]).decode("utf-8"))
    except ValueError as exc:
        raise ProtocolError(f"message header is not UTF-8 JSON: {exc}") from exc
    if not isinstance(fields, dict):
        raise ProtocolError(
            f"message header is a JSON {type(fields).__name__}, not an object"
        )
    offset += header_len
    layout = fields.pop("_arrays", [])
    if not isinstance(layout, list):
        raise ProtocolError(f"array layout {layout!r} is not a list")
    arrays: dict[str, np.ndarray] = {}
    for entry in layout:
        # [name, length] with a non-negative int length (bool is not one).
        if not (
            isinstance(entry, list)
            and len(entry) == 2
            and isinstance(entry[0], str)
            and type(entry[1]) is int
            and entry[1] >= 0
        ):
            raise ProtocolError(f"malformed array entry {entry!r} in message header")
        name, length = entry
        if name in arrays:
            raise ProtocolError(f"array {name!r} declared twice in message header")
        nbytes = length * _FLOAT64.itemsize
        if offset + nbytes > len(payload):
            raise ProtocolError(f"array {name!r} truncated in message payload")
        arrays[name] = np.frombuffer(
            payload, dtype=_FLOAT64, count=length, offset=offset
        ).astype(np.float64)
        offset += nbytes
    if offset != len(payload):
        raise ProtocolError(f"{len(payload) - offset} trailing bytes in message")
    return fields, arrays


def update_header(update) -> dict:
    """The JSON header of a client update's ``UPDATE`` frame.

    ``update`` is a :class:`~repro.federated.engine.plan.ClientUpdate`.  The
    worker sends this header (plus its optional ``telemetry`` blob) and the
    communication ledger sizes its logical model channel with it, so the
    two can never disagree on the layout.  ``masked`` appears only on
    secure-aggregation ciphertext.
    """
    fields = {
        "slot": update.slot,
        "client": update.client_id,
        "loss": update.loss,
        "num_examples": update.num_examples,
    }
    if update.metadata.get("secagg_masked"):
        fields["masked"] = True
    return fields


# -- frame I/O --------------------------------------------------------------


def recv_exact(sock: socket.socket, count: int) -> bytearray:
    """Read exactly ``count`` bytes into one buffer or raise :class:`ConnectionClosed`."""
    buffer = bytearray(count)
    received = 0
    with memoryview(buffer) as view:
        while received < count:
            try:
                got = sock.recv_into(view[received:])
            except ConnectionError as exc:
                # A killed peer surfaces as RST, not EOF; same meaning here.
                raise ConnectionClosed(f"peer connection lost: {exc}") from exc
            if not got:
                raise ConnectionClosed(
                    f"peer closed the connection ({received}/{count} bytes read)"
                )
            received += got
    return buffer


def send_message(
    sock: socket.socket,
    msg_type: MessageType,
    fields: dict,
    arrays: dict[str, np.ndarray] | None = None,
) -> tuple[int, int]:
    """Frame and send one message, gathered from the vectors' own buffers.

    The frame header, the JSON envelope and each vector's memory go out in
    gathered ``sendmsg`` calls, looping on partial sends, so no vector is
    copied into a frame.  Blocking; the frame is complete when it returns.
    Returns the frame's ``(overhead_bytes, vector_bytes)`` split, the one
    :func:`message_size` computes and the receiving side's meter reports.
    """
    envelope, vectors = _message_parts(fields, arrays)
    vector_bytes = sum(v.nbytes for v in vectors)
    length = len(envelope) + vector_bytes
    if length > MAX_PAYLOAD:
        raise ProtocolError(f"payload of {length} bytes exceeds MAX_PAYLOAD")
    header = _HEADER.pack(_MAGIC, PROTOCOL_VERSION, int(msg_type), length)
    buffers = [memoryview(header + envelope)]
    buffers.extend(memoryview(v).cast("B") for v in vectors if v.nbytes)
    while buffers:
        sent = sock.sendmsg(buffers)
        while buffers and sent >= len(buffers[0]):
            sent -= len(buffers.pop(0))
        if sent:
            buffers[0] = buffers[0][sent:]
    return _HEADER.size + len(envelope), vector_bytes


def recv_message(
    sock: socket.socket,
    meter=None,
) -> tuple[MessageType, dict, dict[str, np.ndarray]]:
    """Receive one frame; raises :class:`ConnectionClosed` on EOF.

    ``meter``, when given, is called once per successfully decoded frame as
    ``meter(msg, overhead_bytes, vector_bytes)`` with the same split
    :func:`message_size` computes on the send side — the receive half of the
    communication ledger's wire accounting.  Metering is observation only:
    it never changes what crosses the wire.
    """
    magic, version, msg_type, length = _HEADER.unpack(recv_exact(sock, _HEADER.size))
    if magic != _MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"peer speaks protocol version {version}, this side speaks "
            f"{PROTOCOL_VERSION}"
        )
    if length > MAX_PAYLOAD:
        raise ProtocolError(f"declared payload of {length} bytes exceeds MAX_PAYLOAD")
    try:
        msg = MessageType(msg_type)
    except ValueError as exc:
        raise ProtocolError(f"unknown message type {msg_type}") from exc
    payload = recv_exact(sock, length)
    fields, arrays = decode_message(payload)
    if meter is not None:
        (header_len,) = _JSON_LEN.unpack_from(payload)
        envelope = _JSON_LEN.size + header_len
        meter(msg, _HEADER.size + envelope, length - envelope)
    return msg, fields, arrays


# -- execution-context payloads ---------------------------------------------

#: The scenario fields a worker needs to rebuild the benign execution
#: context (federation, model factory, algorithm, local-training config).
#: Deliberately excludes attack/defense/round-count fields so re-running a
#: scenario with a different defense reuses a standalone worker's cache.
CONTEXT_FIELDS = (
    "dataset",
    "dataset_kwargs",
    "num_clients",
    "samples_per_client",
    "alpha",
    "num_classes",
    "image_size",
    "data_seed",
    "population",
    "population_kwargs",
    "model",
    "model_kwargs",
    "hidden",
    "algorithm",
    "algorithm_kwargs",
    "local",
    "seed",
)


def context_payload(scenario_dict: dict) -> dict:
    """Project a scenario dict onto the fields a worker context needs."""
    return {key: scenario_dict[key] for key in CONTEXT_FIELDS if key in scenario_dict}


def context_fingerprint(payload: dict) -> str:
    """Stable identity of a worker context; the worker's cache key."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

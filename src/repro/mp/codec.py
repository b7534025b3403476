"""Versioned, pickle-free wire codec for the multiprocess shard engine.

Every message between the service parent and a shard worker process is
one *frame*: a fixed little-endian header (magic, version, message type,
shard id, sequence number, payload length), the payload, and a CRC-32 of
everything before it — the same corruption-fails-loudly discipline as
the serialize-v2 octree format (:mod:`repro.octree.serialize`), whose
blobs ride inside snapshot/restore payloads unmodified.

Nothing here touches ``pickle``: bulk voxel data moves as packed
little-endian numpy buffers (u32 key components + one occupancy byte
per observation) written and read whole, with no per-item code; floats
as IEEE-754 doubles; and structured odds-and-ends
(stats dicts, telemetry relay events, worker config) as UTF-8 JSON.
That keeps the protocol auditable, version-checkable, and immune to the
arbitrary-code-execution hazard of unpickling bytes from a crashed or
corrupted worker.

Replies share one envelope (:func:`encode_reply`): a body specific to
the request type plus the worker's drained telemetry relay events, so
every round trip piggybacks the child's spans/counters back to the
parent registry without a separate channel.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.octree.key import VoxelKey
from repro.sensor.scaninsert import ScanBatch

__all__ = [
    "CodecError",
    "Frame",
    "MSG_APPLY",
    "MSG_BOX_QUERY",
    "MSG_DROP_TENANT",
    "MSG_ERROR",
    "MSG_FINALIZE",
    "MSG_MEM",
    "MSG_OK",
    "MSG_PING",
    "MSG_QUERY_MANY",
    "MSG_RESTORE",
    "MSG_SNAPSHOT",
    "MSG_SHUTDOWN",
    "MSG_STATS",
    "WIRE_VERSION",
    "decode_busy_seconds",
    "decode_frame",
    "decode_json",
    "decode_keys",
    "decode_observations",
    "decode_reply",
    "decode_restore",
    "decode_values",
    "encode_busy_seconds",
    "encode_frame",
    "encode_json",
    "encode_keys",
    "encode_observations",
    "encode_reply",
    "encode_restore",
    "encode_values",
    "message_name",
]

_MAGIC = b"RMPC"

#: Wire protocol version; a mismatched worker fails the handshake loudly
#: instead of misparsing frames.  v2 added the trace-context field
#: (``parent_span``) to the fixed header; v3 adds the tenant slot (u32,
#: 0 = the default single-tenant map) so one worker process hosts many
#: tenants' shard pipelines side by side.
WIRE_VERSION = 3

# Request types (parent -> worker).
MSG_APPLY = 1
MSG_QUERY_MANY = 2
MSG_BOX_QUERY = 3
MSG_SNAPSHOT = 4
MSG_RESTORE = 5
MSG_STATS = 6
MSG_FINALIZE = 7
MSG_PING = 8
MSG_SHUTDOWN = 9
MSG_DROP_TENANT = 10
MSG_MEM = 11
# Reply types (worker -> parent).
MSG_OK = 20
MSG_ERROR = 21

_NAMES = {
    MSG_APPLY: "APPLY",
    MSG_QUERY_MANY: "QUERY_MANY",
    MSG_BOX_QUERY: "BOX_QUERY",
    MSG_SNAPSHOT: "SNAPSHOT",
    MSG_RESTORE: "RESTORE",
    MSG_STATS: "STATS",
    MSG_FINALIZE: "FINALIZE",
    MSG_PING: "PING",
    MSG_SHUTDOWN: "SHUTDOWN",
    MSG_DROP_TENANT: "DROP_TENANT",
    MSG_MEM: "MEM",
    MSG_OK: "OK",
    MSG_ERROR: "ERROR",
}

# magic, version, type, shard, seq, payload length, parent span id,
# tenant slot.
_HEADER = struct.Struct("<4sBBiIIQI")
_CRC = struct.Struct("<I")
_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")
_RESTORE_HEAD = struct.Struct("<BII")


class CodecError(ValueError):
    """A frame or payload failed structural or CRC validation."""


def message_name(msg_type: int) -> str:
    """Human-readable message-type name (for errors and logs)."""
    return _NAMES.get(msg_type, f"type{msg_type}")


@dataclass(frozen=True)
class Frame:
    """One decoded wire frame.

    ``parent_span`` is the sender's active span id (0 = none): the
    trace context that lets a worker process parent its spans under the
    request span that crossed the pipe, so process-mode waterfalls join
    into one tree.  ``tenant`` is the tenant slot the command targets
    (0 = the default single-tenant map); it rides the fixed header next
    to the trace context so every command addresses one tenant's shard
    pipeline without touching the payload formats.
    """

    type: int
    shard: int
    seq: int
    payload: bytes
    parent_span: int = 0
    tenant: int = 0


def encode_frame(
    msg_type: int,
    shard: int,
    seq: int,
    payload: bytes = b"",
    parent_span: int = 0,
    tenant: int = 0,
) -> bytes:
    """Frame one message: header + payload + CRC-32 trailer."""
    if msg_type not in _NAMES:
        raise CodecError(f"unknown message type {msg_type}")
    head = _HEADER.pack(
        _MAGIC,
        WIRE_VERSION,
        msg_type,
        shard,
        seq,
        len(payload),
        parent_span & 0xFFFFFFFFFFFFFFFF,
        tenant & 0xFFFFFFFF,
    )
    body = head + payload
    return body + _CRC.pack(zlib.crc32(body) & 0xFFFFFFFF)


def decode_frame(data: bytes) -> Frame:
    """Validate and decode one frame (magic, version, length, CRC)."""
    if len(data) < _HEADER.size + _CRC.size:
        raise CodecError(f"truncated frame ({len(data)} bytes)")
    (stored_crc,) = _CRC.unpack_from(data, len(data) - _CRC.size)
    body = data[: -_CRC.size]
    actual_crc = zlib.crc32(body) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise CodecError(
            f"corrupt frame: CRC-32 mismatch "
            f"(stored {stored_crc:#010x}, computed {actual_crc:#010x})"
        )
    magic, version, msg_type, shard, seq, length, parent_span, tenant = (
        _HEADER.unpack_from(body, 0)
    )
    if magic != _MAGIC:
        raise CodecError(f"bad magic {magic!r}; not an mp wire frame")
    if version != WIRE_VERSION:
        raise CodecError(
            f"wire version mismatch: frame v{version}, codec v{WIRE_VERSION}"
        )
    payload = body[_HEADER.size:]
    if len(payload) != length:
        raise CodecError(
            f"frame length mismatch: header says {length}, got {len(payload)}"
        )
    return Frame(
        type=msg_type,
        shard=shard,
        seq=seq,
        payload=payload,
        parent_span=parent_span,
        tenant=tenant,
    )


# ----------------------------------------------------------------------
# Bulk voxel payloads: packed arrays, not per-item Python objects.
# ----------------------------------------------------------------------


def _u32_bytes(keys: np.ndarray) -> bytes:
    """``(N, 3)`` integer keys as little-endian u32 triples; a component
    outside u32 is refused, where a bare ``astype`` would wrap it."""
    if keys.size and (keys.min() < 0 or keys.max() > 0xFFFFFFFF):
        raise CodecError("key component outside the wire's u32 range")
    return keys.astype("<u4").tobytes()


def _keys_from(payload: bytes, count: int) -> np.ndarray:
    """``count`` u32 key triples after the count word, as ``(N, 3)``."""
    return np.frombuffer(payload, "<u4", 3 * count, _U32.size).reshape(-1, 3)


def encode_observations(batch: ScanBatch) -> bytes:
    """Pack a batch as u32 key triples + occupancy bytes."""
    return (
        _U32.pack(len(batch))
        + _u32_bytes(batch.keys_array())
        + batch.occupied_array().astype(np.uint8).tobytes()
    )


def decode_observations(payload: bytes) -> ScanBatch:
    """Inverse of :func:`encode_observations`."""
    if len(payload) < _U32.size:
        raise CodecError("truncated observations payload")
    (count,) = _U32.unpack_from(payload, 0)
    expected = _U32.size + 12 * count + count
    if len(payload) != expected:
        raise CodecError(
            f"observations payload length mismatch: expected {expected}, "
            f"got {len(payload)}"
        )
    occupied = np.frombuffer(payload, np.uint8, count, _U32.size + 12 * count)
    return ScanBatch(
        keys=_keys_from(payload, count).astype(np.int64), occupied=occupied != 0
    )


def encode_keys(keys: Sequence[VoxelKey]) -> bytes:
    """Pack a key list as u32 triples."""
    return _U32.pack(len(keys)) + _u32_bytes(
        np.asarray(keys, dtype=np.int64).reshape(-1, 3)
    )


def decode_keys(payload: bytes) -> List[VoxelKey]:
    """Inverse of :func:`encode_keys`."""
    if len(payload) < _U32.size:
        raise CodecError("truncated keys payload")
    (count,) = _U32.unpack_from(payload, 0)
    if len(payload) != _U32.size + 12 * count:
        raise CodecError("keys payload length mismatch")
    return [(x, y, z) for x, y, z in _keys_from(payload, count).tolist()]


def encode_values(values: Sequence[Optional[float]]) -> bytes:
    """Pack query answers: presence bytes + doubles for present values."""
    present = [value for value in values if value is not None]
    return (
        _U32.pack(len(values))
        + bytes(value is not None for value in values)
        + np.array(present, dtype="<f8").tobytes()
    )


def decode_values(payload: bytes) -> List[Optional[float]]:
    """Inverse of :func:`encode_values`."""
    if len(payload) < _U32.size:
        raise CodecError("truncated values payload")
    (count,) = _U32.unpack_from(payload, 0)
    presence = payload[_U32.size: _U32.size + count]
    if len(presence) != count:
        raise CodecError("values payload length mismatch")
    if len(payload) - _U32.size - count != 8 * sum(presence):
        raise CodecError("values payload presence/value count mismatch")
    present = iter(np.frombuffer(payload, "<f8", -1, _U32.size + count).tolist())
    return [next(present) if flag else None for flag in presence]


# ----------------------------------------------------------------------
# Structured payloads (config, stats, telemetry relay): UTF-8 JSON.
# ----------------------------------------------------------------------


def encode_json(obj: Any) -> bytes:
    """JSON-encode a structured payload (config, stats, relay events)."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode("utf-8")


def decode_json(payload: bytes) -> Any:
    """Inverse of :func:`encode_json`."""
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CodecError(f"bad JSON payload: {error}") from error


def encode_reply(body: bytes, events: Sequence[Dict[str, Any]] = ()) -> bytes:
    """The shared reply envelope: body + drained telemetry relay events."""
    events_blob = encode_json(list(events)) if events else b"[]"
    return _U32.pack(len(body)) + body + events_blob


def decode_reply(payload: bytes) -> Tuple[bytes, List[Dict[str, Any]]]:
    """Inverse of :func:`encode_reply`; returns ``(body, events)``."""
    if len(payload) < _U32.size:
        raise CodecError("truncated reply payload")
    (length,) = _U32.unpack_from(payload, 0)
    body = payload[_U32.size: _U32.size + length]
    if len(body) != length:
        raise CodecError("reply body length mismatch")
    events = decode_json(payload[_U32.size + length:])
    if not isinstance(events, list):
        raise CodecError("reply events payload is not a list")
    return body, events


# ----------------------------------------------------------------------
# Restore payload: optional snapshot blob + journal-tail batches.
# ----------------------------------------------------------------------


def encode_restore(
    blob: Optional[bytes], upto: int, batches: Sequence[ScanBatch]
) -> bytes:
    """Pack one shard-rebuild command.

    ``blob`` is a serialize-v2 octree checkpoint (or ``None`` for a
    from-scratch rebuild), ``upto`` the journal entries it covers, and
    ``batches`` the journal tail to replay on top of it.
    """
    chunks = [
        _RESTORE_HEAD.pack(
            1 if blob is not None else 0, upto, len(batches)
        ),
        _U32.pack(len(blob) if blob is not None else 0),
        blob or b"",
    ]
    for batch in batches:
        encoded = encode_observations(batch)
        chunks.append(_U32.pack(len(encoded)))
        chunks.append(encoded)
    return b"".join(chunks)


def decode_restore(
    payload: bytes,
) -> Tuple[Optional[bytes], int, List[ScanBatch]]:
    """Inverse of :func:`encode_restore`."""
    if len(payload) < _RESTORE_HEAD.size + _U32.size:
        raise CodecError("truncated restore payload")
    has_blob, upto, num_batches = _RESTORE_HEAD.unpack_from(payload, 0)
    offset = _RESTORE_HEAD.size
    (blob_length,) = _U32.unpack_from(payload, offset)
    offset += _U32.size
    blob = payload[offset: offset + blob_length] if has_blob else None
    offset += blob_length
    batches: List[ScanBatch] = []
    for _ in range(num_batches):
        if len(payload) < offset + _U32.size:
            raise CodecError("truncated restore batch")
        (length,) = _U32.unpack_from(payload, offset)
        offset += _U32.size
        batches.append(decode_observations(payload[offset: offset + length]))
        offset += length
    if offset != len(payload):
        raise CodecError(
            f"trailing bytes in restore payload ({len(payload) - offset})"
        )
    return blob, upto, batches


def encode_busy_seconds(busy: float) -> bytes:
    """The APPLY reply body: the shard's busy seconds for the batch."""
    return _F64.pack(busy)


def decode_busy_seconds(body: bytes) -> float:
    """Inverse of :func:`encode_busy_seconds`."""
    if len(body) != _F64.size:
        raise CodecError("bad busy-seconds reply body")
    return _F64.unpack(body)[0]

"""The multiprocess wire codec: round trips and corruption rejection.

The codec is the trust boundary between the service parent and shard
worker processes — every payload kind must survive a round trip
bit-exactly, and every structural violation (flipped bytes, truncation,
version skew) must fail loudly with :class:`CodecError`, never misparse.
"""

import numpy as np
import pytest

from repro.mp import codec
from repro.mp.codec import CodecError
from repro.sensor.scaninsert import ScanBatch


class TestFrames:
    def test_frame_round_trip(self):
        payload = b"hello shard"
        data = codec.encode_frame(codec.MSG_APPLY, 3, 17, payload)
        frame = codec.decode_frame(data)
        assert frame.type == codec.MSG_APPLY
        assert frame.shard == 3
        assert frame.seq == 17
        assert frame.payload == payload
        assert frame.parent_span == 0

    def test_parent_span_round_trip(self):
        parent = (4242 << 40) | 7
        data = codec.encode_frame(
            codec.MSG_APPLY, 1, 2, b"obs", parent_span=parent
        )
        assert codec.decode_frame(data).parent_span == parent

    def test_tenant_round_trip(self):
        data = codec.encode_frame(codec.MSG_APPLY, 1, 2, b"obs", tenant=4242)
        frame = codec.decode_frame(data)
        assert frame.tenant == 4242
        # Default (single-tenant) traffic rides slot 0.
        assert codec.decode_frame(codec.encode_frame(codec.MSG_PING, 0, 1)).tenant == 0

    def test_drop_tenant_frame_round_trip(self):
        data = codec.encode_frame(codec.MSG_DROP_TENANT, 2, 9, tenant=7)
        frame = codec.decode_frame(data)
        assert frame.type == codec.MSG_DROP_TENANT
        assert frame.tenant == 7

    def test_empty_payload_round_trip(self):
        frame = codec.decode_frame(codec.encode_frame(codec.MSG_PING, 0, 1))
        assert frame.type == codec.MSG_PING
        assert frame.payload == b""

    @pytest.mark.parametrize("position", [0, 5, 10, -5, -1])
    def test_flipped_byte_fails_crc(self, position):
        data = bytearray(
            codec.encode_frame(codec.MSG_APPLY, 1, 2, b"payload bytes")
        )
        data[position] ^= 0xFF
        with pytest.raises(CodecError):
            codec.decode_frame(bytes(data))

    def test_truncated_frame_rejected(self):
        data = codec.encode_frame(codec.MSG_STATS, 0, 1, b"x" * 32)
        with pytest.raises(CodecError, match="truncated"):
            codec.decode_frame(data[:6])

    def test_version_mismatch_rejected(self):
        import struct
        import zlib

        head = struct.pack(
            "<4sBBiIIQI",
            b"RMPC",
            codec.WIRE_VERSION + 1,
            codec.MSG_PING,
            0,
            1,
            0,
            0,
            0,
        )
        data = head + struct.pack("<I", zlib.crc32(head) & 0xFFFFFFFF)
        with pytest.raises(CodecError, match="version mismatch"):
            codec.decode_frame(data)

    def test_unknown_message_type_rejected_on_encode(self):
        with pytest.raises(CodecError, match="unknown message type"):
            codec.encode_frame(99, 0, 1)


class TestPayloads:
    def test_observations_round_trip(self):
        observations = [
            ((1, 2, 3), True),
            ((0, 0, 0), False),
            ((4095, 17, 2048), True),
        ]
        payload = codec.encode_observations(ScanBatch.coerce(observations))
        assert codec.decode_observations(payload).observations == observations

    def test_observation_payload_bytes_are_frozen(self):
        """The v3 layout, byte for byte: u32 count, u32 key triples,
        one occupancy byte each — all little-endian."""
        batch = ScanBatch(
            keys=np.array([[1, 2, 3], [4095, 0, 65536]], dtype=np.int64),
            occupied=np.array([True, False]),
        )
        payload = codec.encode_observations(batch)
        assert payload == bytes.fromhex(
            "02000000"
            "01000000" "02000000" "03000000"
            "ff0f0000" "00000000" "00000100"
            "01" "00"
        )
        decoded = codec.decode_observations(payload)
        assert decoded.keys_array().dtype == np.int64
        assert decoded.keys_array().tolist() == batch.keys_array().tolist()
        assert decoded.occupied_array().tolist() == [True, False]
        assert codec.encode_observations(decoded) == payload
        assert codec.WIRE_VERSION == 3

    def test_empty_observations(self):
        empty = codec.decode_observations(
            codec.encode_observations(ScanBatch.coerce([]))
        )
        assert empty.observations == []

    def test_observations_length_mismatch_rejected(self):
        payload = codec.encode_observations(
            ScanBatch.coerce([((1, 2, 3), True)])
        )
        with pytest.raises(CodecError, match="length mismatch"):
            codec.decode_observations(payload + b"\x00")

    @pytest.mark.parametrize("component", [-1, 1 << 32])
    def test_key_component_outside_u32_refused(self, component):
        """A bare ``astype`` would wrap these onto some other voxel."""
        batch = ScanBatch.coerce([((1, component, 3), True)])
        with pytest.raises(CodecError, match="u32"):
            codec.encode_observations(batch)
        with pytest.raises(CodecError, match="u32"):
            codec.encode_keys([(1, component, 3)])

    def test_keys_round_trip(self):
        keys = [(9, 8, 7), (0, 1, 2), (100, 200, 300)]
        assert codec.decode_keys(codec.encode_keys(keys)) == keys

    def test_values_round_trip_with_missing(self):
        values = [0.25, None, -3.5, None, 0.0]
        assert codec.decode_values(codec.encode_values(values)) == values

    def test_json_round_trip(self):
        obj = {"hit_ratio": 0.5, "cache": {"hits": 3}, "names": ["a", "b"]}
        assert codec.decode_json(codec.encode_json(obj)) == obj

    def test_bad_json_rejected(self):
        with pytest.raises(CodecError, match="bad JSON"):
            codec.decode_json(b"{not json")

    def test_busy_seconds_round_trip(self):
        body = codec.encode_busy_seconds(0.125)
        assert codec.decode_busy_seconds(body) == 0.125
        with pytest.raises(CodecError):
            codec.decode_busy_seconds(body + b"\x00")


class TestReplyEnvelope:
    def test_reply_round_trip(self):
        events = [{"k": "count", "n": "cache.hits", "c": "cache", "v": 2}]
        payload = codec.encode_reply(b"body-bytes", events)
        body, decoded = codec.decode_reply(payload)
        assert body == b"body-bytes"
        assert decoded == events

    def test_reply_without_events(self):
        body, events = codec.decode_reply(codec.encode_reply(b"abc"))
        assert body == b"abc"
        assert events == []

    def test_truncated_reply_rejected(self):
        payload = codec.encode_reply(b"some body", [])
        with pytest.raises(CodecError):
            codec.decode_reply(payload[:2])


class TestRestore:
    def test_restore_round_trip_with_blob(self):
        blob = b"serialized-octree-v2"
        batches = [
            [((1, 1, 1), True), ((2, 2, 2), False)],
            [((3, 3, 3), True)],
        ]
        decoded_blob, upto, tail = codec.decode_restore(
            codec.encode_restore(
                blob, 7, [ScanBatch.coerce(batch) for batch in batches]
            )
        )
        assert (decoded_blob, upto) == (blob, 7)
        assert [batch.observations for batch in tail] == batches

    def test_restore_round_trip_without_blob(self):
        blob, upto, tail = codec.decode_restore(
            codec.encode_restore(
                None, 0, [ScanBatch.coerce([((5, 5, 5), True)])]
            )
        )
        assert (blob, upto) == (None, 0)
        assert [batch.observations for batch in tail] == [[((5, 5, 5), True)]]

    def test_restore_trailing_bytes_rejected(self):
        payload = codec.encode_restore(b"blob", 1, [])
        with pytest.raises(CodecError, match="trailing bytes"):
            codec.decode_restore(payload + b"\x00")

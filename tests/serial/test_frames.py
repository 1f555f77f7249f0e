"""Tests of the length-prefixed remote-worker frame protocol."""

from __future__ import annotations

import io
import struct

import pytest

from repro.errors import SerializationError
from repro.serial import xdr
from repro.serial.frames import (
    FRAME_HEADER_BYTES,
    FRAME_HELLO,
    FRAME_JOB,
    FRAME_RESULT,
    FRAME_STOP,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameAssembler,
    decode_header,
    encode_frame,
    read_frame,
)


def _reader(data: bytes, chunk: int = 65536):
    """A ``read(n)`` callable over a byte string, like ``socket.recv``."""
    stream = io.BytesIO(data)
    return lambda n: stream.read(min(n, chunk))


class TestEncodeDecode:
    def test_header_round_trip(self):
        frame = encode_frame(FRAME_JOB, b"abc")
        kind, length = decode_header(frame[:FRAME_HEADER_BYTES])
        assert (kind, length) == (FRAME_JOB, 3)
        assert frame[FRAME_HEADER_BYTES:] == b"abc"

    def test_empty_payload(self):
        frame = encode_frame(FRAME_STOP)
        assert len(frame) == FRAME_HEADER_BYTES
        assert decode_header(frame) == (FRAME_STOP, 0)

    def test_xdr_payload_round_trip(self):
        payload = xdr.encode({"job_id": 7, "kind": "serial", "payload": b"\x00\x01"})
        frame = encode_frame(FRAME_RESULT, payload)
        kind, length = decode_header(frame[:FRAME_HEADER_BYTES])
        assert kind == FRAME_RESULT
        assert xdr.decode(frame[FRAME_HEADER_BYTES:]) == {
            "job_id": 7, "kind": "serial", "payload": b"\x00\x01",
        }

    def test_unknown_kind_rejected_on_encode(self):
        with pytest.raises(SerializationError, match="unknown frame kind"):
            encode_frame(42, b"")

    def test_oversized_payload_rejected_on_encode(self):
        with pytest.raises(SerializationError, match="exceeds"):
            encode_frame(FRAME_JOB, b"x" * 17, max_bytes=16)
        assert encode_frame(FRAME_JOB, b"x" * 16, max_bytes=16)

    def test_default_limit_is_generous(self):
        assert MAX_FRAME_BYTES >= 8 * 1024 * 1024


class TestHeaderValidation:
    def test_truncated_header(self):
        frame = encode_frame(FRAME_STOP)
        with pytest.raises(SerializationError, match="truncated frame header"):
            decode_header(frame[: FRAME_HEADER_BYTES - 1])

    def test_bad_magic(self):
        frame = bytearray(encode_frame(FRAME_STOP))
        frame[:4] = b"HTTP"
        with pytest.raises(SerializationError, match="bad frame magic"):
            decode_header(bytes(frame))

    @pytest.mark.parametrize("version", [1, 3, 4, 9, 10, 11, 12, 13, PROTOCOL_VERSION + 1])
    def test_version_mismatch(self, version):
        # any stamp but ours is refused at the header, before a payload byte
        # (9: the last protocol with chunk frames; 10: the last whose batch
        # payload was not a book; 11: the last with a row per book position
        # and a cache_hit reply column; 12: the last whose ResultColumns reply
        # was a dictionary of arrays; 13: the last whose book was a dictionary
        # of columns), naming both versions
        assert PROTOCOL_VERSION == 14
        header = struct.pack(">4sHHI", b"RWF\x01", version, FRAME_JOB, 0)
        with pytest.raises(
            SerializationError, match=f"version mismatch: peer speaks v{version}, .* v14"
        ):
            decode_header(header)

    @pytest.mark.parametrize("kind", [0, 5, 10, 11, 99])
    def test_unknown_kind(self, kind):
        # 5 and 10 were the chunk frames of protocol v9: unknown like any other
        header = struct.pack(">4sHHI", b"RWF\x01", PROTOCOL_VERSION, kind, 0)
        with pytest.raises(SerializationError, match=f"unknown frame kind {kind}"):
            decode_header(header)
        with pytest.raises(SerializationError, match=f"unknown frame kind {kind}"):
            encode_frame(kind, b"")

    def test_oversized_announcement_rejected_before_payload(self):
        # the header alone must be enough to refuse: no payload bytes exist
        header = struct.pack(
            ">4sHHI", b"RWF\x01", PROTOCOL_VERSION, FRAME_JOB, MAX_FRAME_BYTES + 1
        )
        with pytest.raises(SerializationError, match="above the"):
            decode_header(header)


class TestFrameAssembler:
    def test_byte_by_byte_feed(self):
        frames = encode_frame(FRAME_HELLO, b"hi") + encode_frame(FRAME_STOP)
        assembler = FrameAssembler()
        out = []
        for index in range(len(frames)):
            assembler.feed(frames[index : index + 1])
            out.extend(assembler)
        assert out == [(FRAME_HELLO, b"hi"), (FRAME_STOP, b"")]
        assert assembler.pending_bytes == 0

    def test_pop_returns_none_when_incomplete(self):
        assembler = FrameAssembler()
        assembler.feed(encode_frame(FRAME_JOB, b"abcdef")[:-2])
        assert assembler.pop() is None
        assert assembler.pending_bytes > 0

    def test_many_frames_in_one_feed(self):
        blob = b"".join(encode_frame(FRAME_RESULT, bytes([i])) for i in range(10))
        assembler = FrameAssembler()
        assembler.feed(blob)
        assert [payload for _, payload in assembler] == [bytes([i]) for i in range(10)]

    def test_corrupted_stream_raises(self):
        assembler = FrameAssembler()
        with pytest.raises(SerializationError):
            assembler.feed(b"garbage-that-is-long-enough-to-be-a-header")

    def test_assembler_honours_max_bytes(self):
        frame = encode_frame(FRAME_JOB, b"x" * 64)
        assembler = FrameAssembler(max_bytes=16)
        with pytest.raises(SerializationError, match="above the"):
            assembler.feed(frame)


class TestReadFrame:
    def test_round_trip(self):
        data = encode_frame(FRAME_JOB, b"payload") + encode_frame(FRAME_STOP)
        read = _reader(data)
        assert read_frame(read) == (FRAME_JOB, b"payload")
        assert read_frame(read) == (FRAME_STOP, b"")

    def test_clean_eof_returns_none(self):
        assert read_frame(_reader(b"")) is None

    def test_eof_mid_header_raises(self):
        data = encode_frame(FRAME_STOP)[: FRAME_HEADER_BYTES - 3]
        with pytest.raises(SerializationError, match="closed mid-frame"):
            read_frame(_reader(data))

    def test_eof_mid_payload_raises(self):
        data = encode_frame(FRAME_JOB, b"x" * 100)[:-1]
        with pytest.raises(SerializationError, match="closed mid-frame"):
            read_frame(_reader(data))

    def test_short_reads_are_retried(self):
        # recv-style reads returning one byte at a time still assemble a frame
        data = encode_frame(FRAME_HELLO, b"abc")
        assert read_frame(_reader(data, chunk=1)) == (FRAME_HELLO, b"abc")

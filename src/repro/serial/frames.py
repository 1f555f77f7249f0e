"""Length-prefixed message frames for the remote worker protocol.

The paper ships jobs between the master and its MPI slaves with
``MPI_Send_Obj`` / ``MPI_Recv_Obj``: a serialized Nsp object travels as one
self-delimiting message.  The remote TCP backend
(:mod:`repro.cluster.backends.remote`) needs the same property over a byte
stream, so this module defines the wire framing both ends share:

.. code-block:: text

    +-------+---------+--------+----------------+-----------------+
    | magic | version |  kind  | payload length |     payload     |
    | 4 B   | u16 BE  | u16 BE |     u32 BE     | `length` bytes  |
    +-------+---------+--------+----------------+-----------------+

The payload of :data:`FRAME_JOB` / :data:`FRAME_RESULT` frames is an XDR
encoding (:mod:`repro.serial.xdr`) of a plain dictionary, so everything the
existing codecs can serialize -- including whole
:class:`~repro.pricing.batch.ProblemBatch` super-jobs -- crosses the machine
boundary unchanged.  The header is validated before any payload byte is
read: a wrong magic, a protocol-version mismatch, or a length above
``max_bytes`` raises :class:`~repro.errors.SerializationError` without
allocating the payload, so a confused or hostile peer cannot make the
master balloon its memory.

Framing is deliberately socket-free: :func:`encode_frame` returns bytes,
:class:`FrameAssembler` consumes arbitrary chunks (what ``recv`` happens to
return) and yields complete frames, and :func:`read_frame` drives any
blocking ``read(n)`` callable.  The socket handling lives with the backend
and the worker, the byte format lives here, next to the other codecs.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from collections import deque
from typing import Callable, Iterator

from repro.errors import SerializationError

__all__ = [
    "PROTOCOL_VERSION",
    "FRAME_HELLO",
    "FRAME_JOB",
    "FRAME_RESULT",
    "FRAME_STOP",
    "FRAME_PING",
    "FRAME_PONG",
    "FRAME_CHALLENGE",
    "FRAME_AUTH",
    "FRAME_MAGIC",
    "FRAME_HEADER_BYTES",
    "MAX_FRAME_BYTES",
    "encode_frame",
    "decode_header",
    "FrameAssembler",
    "read_frame",
    "auth_proof",
    "verify_proof",
]

#: bytes opening every frame ("Repro Worker Frame")
FRAME_MAGIC = b"RWF\x01"
_MAGIC = FRAME_MAGIC

#: stamped in every frame header; both ends refuse any other stamp, so bump
#: it on any change to the frame layout or the payload dictionaries.
PROTOCOL_VERSION = 11

#: worker -> master greeting sent once per connection (worker identity)
FRAME_HELLO = 1
#: master -> worker: one job to price (payload: job dictionary)
FRAME_JOB = 2
#: worker -> master: one priced job (payload: result dictionary)
FRAME_RESULT = 3
#: master -> worker: no more work, close the connection (empty payload) --
#: the paper's empty message of Fig. 4
FRAME_STOP = 4
#: master -> worker: liveness probe (payload: opaque token bytes, echoed
#: back verbatim); cheap enough to send between campaigns
FRAME_PING = 6
#: worker -> master: keepalive answer carrying the ping's token unchanged
FRAME_PONG = 7
#: master -> worker: authentication challenge.  Payload:
#: ``{"nonce": master_nonce, "proof": HMAC-SHA256(secret, worker_nonce)}`` --
#: the master proves knowledge of the shared secret over the nonce the
#: worker published in its hello, and challenges the worker back
FRAME_CHALLENGE = 8
#: worker -> master: handshake answer.  Payload:
#: ``{"proof": HMAC-SHA256(secret, master_nonce)}``
FRAME_AUTH = 9

# 5 and 10 are unassigned (the chunk frames of protocols up to v9)
_KNOWN_KINDS = frozenset(
    (FRAME_HELLO, FRAME_JOB, FRAME_RESULT, FRAME_STOP,
     FRAME_PING, FRAME_PONG, FRAME_CHALLENGE, FRAME_AUTH)
)

_HEADER = struct.Struct(">4sHHI")

#: size in bytes of the fixed frame header
FRAME_HEADER_BYTES = _HEADER.size

#: default refusal threshold for a single frame payload (64 MiB); generous
#: for serialized problem batches, small enough to stop runaway peers
MAX_FRAME_BYTES = 64 * 1024 * 1024


def encode_frame(
    kind: int, payload: bytes = b"", *, max_bytes: int = MAX_FRAME_BYTES
) -> bytes:
    """Frame ``payload`` as one self-delimiting message."""
    if kind not in _KNOWN_KINDS:
        raise SerializationError(f"unknown frame kind {kind!r}")
    payload = bytes(payload)
    if len(payload) > max_bytes:
        raise SerializationError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{max_bytes}-byte limit"
        )
    return _HEADER.pack(_MAGIC, PROTOCOL_VERSION, kind, len(payload)) + payload


def decode_header(header: bytes, *, max_bytes: int = MAX_FRAME_BYTES) -> tuple[int, int]:
    """Validate a frame header; return ``(kind, payload_length)``.

    Raises :class:`SerializationError` on a short header, wrong magic,
    protocol-version mismatch, unknown frame kind or oversized payload --
    before a single payload byte is consumed.
    """
    if len(header) < FRAME_HEADER_BYTES:
        raise SerializationError(
            f"truncated frame header: got {len(header)} of {FRAME_HEADER_BYTES} bytes"
        )
    magic, version, kind, length = _HEADER.unpack(header[:FRAME_HEADER_BYTES])
    if magic != _MAGIC:
        raise SerializationError(f"bad frame magic {magic!r}: not a repro worker stream")
    if version != PROTOCOL_VERSION:
        raise SerializationError(
            f"frame protocol version mismatch: peer speaks v{version}, "
            f"this end speaks v{PROTOCOL_VERSION}"
        )
    if kind not in _KNOWN_KINDS:
        raise SerializationError(f"unknown frame kind {kind}")
    if length > max_bytes:
        raise SerializationError(
            f"frame announces a {length}-byte payload, above the "
            f"{max_bytes}-byte limit"
        )
    return kind, length


class FrameAssembler:
    """Incremental frame decoder for non-blocking socket reads.

    Feed it whatever ``recv`` returned -- half a header, three frames and a
    bit of a fourth -- and pop complete ``(kind, payload)`` frames as they
    become available:

    >>> asm = FrameAssembler()
    >>> data = encode_frame(FRAME_STOP) + encode_frame(FRAME_STOP)
    >>> asm.feed(data[:5]); asm.pop() is None
    True
    >>> asm.feed(data[5:]); [kind for kind, _ in asm]
    [4, 4]
    """

    def __init__(self, *, max_bytes: int = MAX_FRAME_BYTES) -> None:
        self._buffer = bytearray()
        self._frames: deque[tuple[int, bytes]] = deque()
        self._max_bytes = max_bytes

    def feed(self, data: bytes) -> None:
        """Append raw stream bytes and extract every now-complete frame."""
        self._buffer.extend(data)
        while len(self._buffer) >= FRAME_HEADER_BYTES:
            kind, length = decode_header(
                bytes(self._buffer[:FRAME_HEADER_BYTES]), max_bytes=self._max_bytes
            )
            end = FRAME_HEADER_BYTES + length
            if len(self._buffer) < end:
                return
            payload = bytes(self._buffer[FRAME_HEADER_BYTES:end])
            del self._buffer[:end]
            self._frames.append((kind, payload))

    def pop(self) -> tuple[int, bytes] | None:
        """Next complete ``(kind, payload)`` frame, or ``None``."""
        if self._frames:
            return self._frames.popleft()
        return None

    def __iter__(self) -> Iterator[tuple[int, bytes]]:
        while self._frames:
            yield self._frames.popleft()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards the next (incomplete) frame."""
        return len(self._buffer)


def read_frame(
    read: Callable[[int], bytes], *, max_bytes: int = MAX_FRAME_BYTES
) -> tuple[int, bytes] | None:
    """Blocking-read one frame through a ``read(n) -> bytes`` callable.

    ``read`` may return fewer bytes than asked (like ``socket.recv``); it is
    called until the frame completes.  A clean end of stream *before* the
    first header byte returns ``None``; an end of stream mid-frame raises
    :class:`SerializationError` (the peer died mid-message).
    """

    def _read_exactly(n: int, *, at_message_boundary: bool) -> bytes | None:
        chunks = bytearray()
        while len(chunks) < n:
            chunk = read(n - len(chunks))
            if not chunk:
                if not chunks and at_message_boundary:
                    return None
                raise SerializationError(
                    f"connection closed mid-frame ({len(chunks)} of {n} bytes)"
                )
            chunks.extend(chunk)
        return bytes(chunks)

    header = _read_exactly(FRAME_HEADER_BYTES, at_message_boundary=True)
    if header is None:
        return None
    kind, length = decode_header(header, max_bytes=max_bytes)
    if length == 0:
        return kind, b""
    payload = _read_exactly(length, at_message_boundary=False)
    assert payload is not None
    return kind, payload


def auth_proof(secret: str | bytes, nonce: bytes) -> bytes:
    """HMAC-SHA256 proof of ``secret`` over a peer-supplied ``nonce``.

    Both handshake directions use this: the master proves itself over the
    worker's hello nonce, the worker answers over the master's challenge
    nonce.  Only the proofs cross the wire -- never the secret itself.
    """
    if isinstance(secret, str):
        secret = secret.encode("utf-8")
    return hmac.new(secret, bytes(nonce), hashlib.sha256).digest()


def verify_proof(secret: str | bytes, nonce: bytes, proof: object) -> bool:
    """Constant-time check of a peer's handshake ``proof``.

    ``hmac.compare_digest`` keeps the comparison timing-independent of how
    many leading bytes match, so a peer cannot binary-search the digest.
    """
    if not isinstance(proof, (bytes, bytearray)):
        return False
    return hmac.compare_digest(auth_proof(secret, nonce), bytes(proof))

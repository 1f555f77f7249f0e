"""``Serial`` objects: serialized (optionally compressed) value buffers.

In Nsp, "almost all the Nsp objects can be serialized into a Serial object"
and these Serial objects are what gets packed and shipped over MPI
(``MPI_Send_Obj`` / ``MPI_Recv_Obj``).  Nsp also recently gained "the
possibility to compress the serialized buffer used in serialized objects",
with transparent decompression in ``unserialize``.

This module reproduces that behaviour:

>>> from repro.serial import serialize
>>> s = serialize(list(range(100)))
>>> s                                        # doctest: +ELLIPSIS
<...-bytes serial>
>>> s1 = s.compress()
>>> s1.unserialize() == s.unserialize()
True
"""

from __future__ import annotations

import zlib
from typing import Any

from repro.errors import SerializationError
from repro.serial import xdr

__all__ = ["Serial", "serialize", "unserialize"]

#: header bytes marking a raw or compressed serialized payload
_MAGIC_RAW = b"NSR0"
_MAGIC_COMPRESSED = b"NSC0"


class Serial:
    """An immutable serialized value.

    A :class:`Serial` wraps the XDR byte encoding of a value, possibly
    compressed with zlib.  It can be transmitted, stored or hashed without
    ever materialising the underlying object; :meth:`unserialize` rebuilds
    the value (transparently handling compression, like Nsp's
    ``unserialize`` method).
    """

    __slots__ = ("_payload", "_compressed")

    def __init__(self, payload: bytes, compressed: bool = False) -> None:
        self._payload = payload if type(payload) is bytes else bytes(payload)
        self._compressed = bool(compressed)

    # -- constructors ------------------------------------------------------------
    @classmethod
    def from_value(cls, value: Any) -> "Serial":
        """Serialize ``value`` (without compression)."""
        return cls(xdr.encode(value), compressed=False)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Serial":
        """Rebuild a :class:`Serial` from :meth:`to_bytes` output (for files
        and message passing)."""
        data = bytes(data)
        if len(data) < 4:
            raise SerializationError("serial buffer too short")
        magic, payload = data[:4], data[4:]
        if magic == _MAGIC_RAW:
            return cls(payload, compressed=False)
        if magic == _MAGIC_COMPRESSED:
            return cls(payload, compressed=True)
        raise SerializationError(f"unknown serial magic {magic!r}")

    # -- views -------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Self-describing byte representation (magic + payload)."""
        magic = _MAGIC_COMPRESSED if self._compressed else _MAGIC_RAW
        return magic + self._payload

    @property
    def payload(self) -> bytes:
        """The raw (possibly compressed) payload without the magic header."""
        return self._payload

    @property
    def is_compressed(self) -> bool:
        return self._compressed

    @property
    def nbytes(self) -> int:
        """Size in bytes of :meth:`to_bytes` (what travels over the wire)."""
        return len(self._payload) + 4

    # -- transformations -----------------------------------------------------------
    def compress(self, level: int = 6) -> "Serial":
        """Return a compressed copy (no-op if already compressed)."""
        if self._compressed:
            return self
        return Serial(zlib.compress(self._payload, level), compressed=True)

    def uncompress(self) -> "Serial":
        """Return an uncompressed copy (no-op if not compressed)."""
        if not self._compressed:
            return self
        try:
            raw = zlib.decompress(self._payload)
        except zlib.error as exc:  # pragma: no cover - corrupted input
            raise SerializationError(f"corrupted compressed serial: {exc}") from exc
        return Serial(raw, compressed=False)

    def unserialize(self) -> Any:
        """Rebuild the original value (decompressing transparently)."""
        raw = self.uncompress()._payload
        return xdr.decode(raw)

    # -- dunder -------------------------------------------------------------------
    def __len__(self) -> int:
        return self.nbytes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Serial):
            return NotImplemented
        return self.to_bytes() == other.to_bytes()

    def __hash__(self) -> int:
        return hash(self.to_bytes())

    def __repr__(self) -> str:
        kind = "compressed serial" if self._compressed else "serial"
        return f"<{self.nbytes}-bytes {kind}>"


def serialize(value: Any) -> Serial:
    """Serialize any supported value into a :class:`Serial` object."""
    return Serial.from_value(value)


def unserialize(serial: Serial | bytes) -> Any:
    """Rebuild a value from a :class:`Serial` (or its byte representation)."""
    if isinstance(serial, (bytes, bytearray)):
        serial = Serial.from_bytes(serial)
    if not isinstance(serial, Serial):
        raise SerializationError("unserialize expects a Serial object or bytes")
    return serial.unserialize()

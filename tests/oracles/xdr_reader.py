"""The byte-at-a-time XDR reader that :mod:`repro.serial.xdr` replaced.

A cursor object hands out slices (``_Reader.take``) and one function per
value dispatches on the tag (``_decode_from``): several Python calls per
field.  It is kept, unchanged, as the reference the offset-based reader is
tested against: on any byte string the production :func:`repro.serial.xdr.decode`
must return a value equal to :func:`decode`'s here (arrays equal by dtype
and bytes), or raise :class:`~repro.errors.SerializationError` where this
one raises.  Registered objects are rebuilt by the same codecs (a grid's
nested book, a batch's members are read by the production reader in both).
"""

from __future__ import annotations

import struct
from typing import Any

import numpy as np

from repro.errors import SerializationError
from repro.serial.xdr import (
    _ARRAY_DTYPES,
    _CODECS,
    _TAG_ARRAY,
    _TAG_BYTES,
    _TAG_DICT,
    _TAG_FALSE,
    _TAG_FLOAT,
    _TAG_INT,
    _TAG_LIST,
    _TAG_NONE,
    _TAG_OBJECT,
    _TAG_STRING,
    _TAG_TRUE,
)

__all__ = ["decode"]


class _Reader:
    """Cursor over an encoded byte string."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise SerializationError("truncated XDR stream")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def take_padded(self, n: int) -> bytes:
        out = self.take(n)
        remainder = n % 4
        if remainder:
            self.take(4 - remainder)
        return out

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def text(self, what: str) -> str:
        """A length-prefixed padded UTF-8 string: a string value, a
        dictionary key, the type name of a registered object."""
        raw = self.take_padded(self.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SerializationError(f"{what} {raw[:40]!r} is not UTF-8: {exc}") from exc

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.data)


def _decode_from(reader: _Reader) -> Any:
    tag = reader.take(1)
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_TRUE:
        return True
    if tag == _TAG_FALSE:
        return False
    if tag == _TAG_INT:
        return struct.unpack(">q", reader.take(8))[0]
    if tag == _TAG_FLOAT:
        return struct.unpack(">d", reader.take(8))[0]
    if tag == _TAG_STRING:
        return reader.text("string")
    if tag == _TAG_BYTES:
        length = reader.u32()
        return reader.take_padded(length)
    if tag == _TAG_LIST:
        length = reader.u32()
        return [_decode_from(reader) for _ in range(length)]
    if tag == _TAG_DICT:
        length = reader.u32()
        out = {}
        for _ in range(length):
            key = reader.text("dictionary key")
            out[key] = _decode_from(reader)
        return out
    if tag == _TAG_ARRAY:
        code = reader.take(2).decode("latin-1")
        if code not in _ARRAY_DTYPES:
            raise SerializationError(f"unknown array dtype code {code!r}")
        ndim = reader.u32()
        shape = tuple(reader.u32() for _ in range(ndim))
        nbytes = reader.u32()
        raw = reader.take_padded(nbytes)
        try:
            arr = np.frombuffer(raw, dtype=_ARRAY_DTYPES[code]).reshape(shape)
        except ValueError as exc:
            raise SerializationError(
                f"array of shape {shape} does not fit its {nbytes} bytes: {exc}"
            ) from exc
        # convert back to native byte order
        return np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("="))
    if tag == _TAG_OBJECT:
        type_name = reader.text("object type name")
        if type_name not in _CODECS:
            raise SerializationError(f"no codec registered for object type {type_name!r}")
        _, _, from_dict = _CODECS[type_name]
        payload = _decode_from(reader)
        if not isinstance(payload, dict):
            raise SerializationError("object payload must decode to a dictionary")
        return from_dict(payload)
    raise SerializationError(f"unknown XDR tag {tag!r} at position {reader.pos - 1}")


def decode(data: bytes) -> Any:
    """Decode a byte string produced by :func:`repro.serial.xdr.encode`."""
    reader = _Reader(bytes(data))
    try:
        value = _decode_from(reader)
    except RecursionError as exc:
        raise SerializationError("XDR stream nests deeper than the decoder recurses") from exc
    if not reader.exhausted:
        raise SerializationError(
            f"trailing bytes after decoding ({len(data) - reader.pos} left)"
        )
    return value

"""XDR-style architecture-independent binary encoding.

The paper saves ``PremiaModel`` objects to files "relying on the XDR library
(eXternal Data Representation).  This way, any PremiaModel object can be
saved to a file in a format which is independent of the computer
architecture".  This module provides the same property for the Python
objects used by the benchmark: every value is written big-endian with
explicit type tags, so the byte stream does not depend on the host
architecture, and strings/byte blocks are padded to 4-byte boundaries as in
classic XDR.

Supported value types
---------------------
``None``, ``bool``, ``int`` (64-bit signed), ``float`` (IEEE-754 double),
``str``, ``bytes``, ``list``/``tuple``, ``dict`` with string keys, NumPy
arrays of float/int/bool dtypes, plus any class registered through
:func:`register_codec` (used for :class:`~repro.pricing.engine.PricingProblem`
and the portfolio objects).
"""

from __future__ import annotations

import struct
from typing import Any, Callable

import numpy as np

from repro.errors import SerializationError

__all__ = ["encode", "decode", "register_codec", "registered_type_names"]

# type tags -----------------------------------------------------------------
_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_FLOAT = b"D"
_TAG_STRING = b"S"
_TAG_BYTES = b"B"
_TAG_LIST = b"L"
_TAG_DICT = b"H"  # "hash table", in Nsp parlance
_TAG_ARRAY = b"A"
_TAG_OBJECT = b"O"

_ARRAY_DTYPES: dict[str, np.dtype] = {
    "f8": np.dtype(">f8"),
    "i8": np.dtype(">i8"),
    "b1": np.dtype("bool"),
}

# object codec registry -------------------------------------------------------
_CODECS: dict[str, tuple[type, Callable[[Any], dict], Callable[[dict], Any]]] = {}
_CLASS_TO_NAME: dict[type, str] = {}


def register_codec(
    type_name: str,
    cls: type,
    to_dict: Callable[[Any], dict],
    from_dict: Callable[[dict], Any],
) -> None:
    """Register an object codec.

    ``to_dict`` must produce a dictionary containing only XDR-encodable
    values; ``from_dict`` rebuilds the object.  Registering the same name
    twice overwrites the previous codec (useful in tests).
    """
    _CODECS[type_name] = (cls, to_dict, from_dict)
    _CLASS_TO_NAME[cls] = type_name


def registered_type_names() -> list[str]:
    """Names of all registered object codecs."""
    return sorted(_CODECS)


_pack_u32 = struct.Struct(">I").pack
_pack_i64 = struct.Struct(">q").pack
_pack_f64 = struct.Struct(">d").pack

#: the zero bytes that bring a block of ``len % 4 == index`` to a 4-byte
#: boundary, XDR style
_PADDING = (b"", b"\x00\x00\x00", b"\x00\x00", b"\x00")


def _encode_none(value: None, chunks: list[bytes]) -> None:
    chunks.append(_TAG_NONE)


def _encode_bool(value: bool, chunks: list[bytes]) -> None:
    chunks.append(_TAG_TRUE if value else _TAG_FALSE)


def _encode_int(value: int, chunks: list[bytes]) -> None:
    if not -(2**63) <= value < 2**63:
        raise SerializationError(f"integer {value} does not fit in 64 bits")
    chunks.append(_TAG_INT + _pack_i64(value))


def _encode_float(value: float, chunks: list[bytes]) -> None:
    chunks.append(_TAG_FLOAT + _pack_f64(value))


def _encode_str(value: str, chunks: list[bytes], tag: bytes = _TAG_STRING) -> None:
    raw = value.encode("utf-8")
    chunks.append(tag + _pack_u32(len(raw)) + raw + _PADDING[len(raw) & 3])


def _encode_bytes(value: bytes | bytearray, chunks: list[bytes]) -> None:
    # three chunks, so a job payload is not copied again just to be padded
    chunks.append(_TAG_BYTES + _pack_u32(len(value)))
    chunks.append(bytes(value))
    chunks.append(_PADDING[len(value) & 3])


def _encode_list(value: list | tuple, chunks: list[bytes]) -> None:
    chunks.append(_TAG_LIST + _pack_u32(len(value)))
    for item in value:
        _ENCODERS.get(type(item), _encode_other)(item, chunks)


def _encode_dict(value: dict, chunks: list[bytes]) -> None:
    chunks.append(_TAG_DICT + _pack_u32(len(value)))
    for key, item in value.items():
        if not isinstance(key, str):
            raise SerializationError(
                f"dictionary keys must be strings, got {type(key).__name__}"
            )
        _encode_str(key, chunks, tag=b"")
        _ENCODERS.get(type(item), _encode_other)(item, chunks)


#: an array's tag and dtype code, and the dtype it is written in, by dtype kind
_ARRAY_KINDS: dict[str, tuple[bytes, np.dtype]] = {
    "f": (_TAG_ARRAY + b"f8", _ARRAY_DTYPES["f8"]),
    "i": (_TAG_ARRAY + b"i8", _ARRAY_DTYPES["i8"]),
    "u": (_TAG_ARRAY + b"i8", _ARRAY_DTYPES["i8"]),
    "b": (_TAG_ARRAY + b"b1", _ARRAY_DTYPES["b1"]),
}


def _encode_array(value: np.ndarray, chunks: list[bytes]) -> None:
    kind = _ARRAY_KINDS.get(value.dtype.kind)
    if kind is None:
        raise SerializationError(f"unsupported array dtype: {value.dtype}")
    head, dtype = kind
    data = np.ascontiguousarray(value, dtype=dtype).tobytes()
    # the rank, each dimension and the byte count, as big-endian u32s
    shape = value.shape
    sizes = struct.pack(f">{len(shape) + 2}I", len(shape), *shape, len(data))
    chunks.append(head + sizes + data + _PADDING[len(data) & 3])


#: encoder by *exact* type; everything else (numpy scalars, subclasses such
#: as ``IntEnum`` or an array subclass, registered codecs) takes ``_encode_other``
_ENCODERS: dict[type, Callable[[Any, list[bytes]], None]] = {
    type(None): _encode_none,
    bool: _encode_bool,
    int: _encode_int,
    float: _encode_float,
    str: _encode_str,
    bytes: _encode_bytes,
    bytearray: _encode_bytes,
    list: _encode_list,
    tuple: _encode_list,
    dict: _encode_dict,
    np.ndarray: _encode_array,
}


def _encode_other(value: Any, chunks: list[bytes]) -> None:
    """The ``isinstance`` ladder, for values the exact-type table misses."""
    if isinstance(value, bool):  # bool before int: bool is a subclass of int
        _encode_bool(value, chunks)
    elif isinstance(value, (int, np.integer)):
        _encode_int(int(value), chunks)
    elif isinstance(value, (float, np.floating)):
        _encode_float(float(value), chunks)
    elif isinstance(value, str):
        _encode_str(value, chunks)
    elif isinstance(value, (bytes, bytearray)):
        _encode_bytes(value, chunks)
    elif isinstance(value, (list, tuple)):
        _encode_list(value, chunks)
    elif isinstance(value, dict):
        _encode_dict(value, chunks)
    elif isinstance(value, np.ndarray):
        _encode_array(value, chunks)
    else:
        type_name = _CLASS_TO_NAME.get(type(value))
        if type_name is None:
            # fall back to a registered codec for a parent class, if any
            for cls, parent_name in _CLASS_TO_NAME.items():
                if isinstance(value, cls):
                    type_name = parent_name
                    break
            else:
                raise SerializationError(
                    f"cannot encode value of unsupported type {type(value).__name__}"
                )
        _, to_dict, _ = _CODECS[type_name]
        _encode_str(type_name, chunks, tag=_TAG_OBJECT)
        _encode_into(to_dict(value), chunks)


def _encode_into(value: Any, chunks: list[bytes]) -> None:
    _ENCODERS.get(type(value), _encode_other)(value, chunks)


def encode(value: Any) -> bytes:
    """Encode ``value`` into an architecture-independent byte string."""
    chunks: list[bytes] = []
    _encode_into(value, chunks)
    return b"".join(chunks)


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
    """Decode a byte string produced by :func:`encode`."""
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

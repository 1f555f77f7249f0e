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
    raw = type_name.encode("utf-8")
    head = _pack_tagged_u32(_TAG_OBJECT, len(raw)) + raw + _PADDING[len(raw) & 3]

    def encode_object(value: Any, chunks: list[bytes]) -> None:
        chunks.append(head)
        _encode_dict(_CODECS[type_name][1](value), chunks)

    # the class itself is written without the ``isinstance`` ladder; a subclass takes it
    _ENCODERS[cls] = encode_object


def registered_type_names() -> list[str]:
    """Names of all registered object codecs."""
    return sorted(_CODECS)


_pack_u32 = struct.Struct(">I").pack
_pack_i64 = struct.Struct(">q").pack
_pack_f64 = struct.Struct(">d").pack
#: a one-byte tag and a length: the head of a string, a type name
_pack_tagged_u32 = struct.Struct(">cI").pack

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
    chunks += (_pack_tagged_u32(tag, len(raw)), raw, _PADDING[len(raw) & 3])


def _encode_bytes(value: bytes | bytearray, chunks: list[bytes]) -> None:
    # three chunks, so a job payload is not copied again just to be padded
    chunks += (_TAG_BYTES + _pack_u32(len(value)), bytes(value), _PADDING[len(value) & 3])


def _encode_list(value: list | tuple, chunks: list[bytes]) -> None:
    chunks.append(_TAG_LIST + _pack_u32(len(value)))
    if set(map(type, value)) == {str}:  # a book's labels: no call per string
        for text in value:
            raw = text.encode("utf-8")
            chunks += (_pack_tagged_u32(_TAG_STRING, len(raw)), raw, _PADDING[len(raw) & 3])
        return
    for item in value:
        _ENCODERS.get(type(item), _encode_other)(item, chunks)


#: the written form of a dictionary key (its length, UTF-8 bytes and
#: padding), for the first :data:`_KEYS_HELD` keys met: field names recur in
#: every record, and a key that does not recur cannot grow the table
_KEYS: dict[str, bytes] = {}
_KEYS_HELD = 4096


def _encode_dict(value: dict, chunks: list[bytes]) -> None:
    chunks.append(_TAG_DICT + _pack_u32(len(value)))
    for key, item in value.items():
        if not isinstance(key, str):
            raise SerializationError(
                f"dictionary keys must be strings, got {type(key).__name__}"
            )
        written = _KEYS.get(key)
        if written is None:
            raw = key.encode("utf-8")
            written = _pack_u32(len(raw)) + raw + _PADDING[len(raw) & 3]
            if len(_KEYS) < _KEYS_HELD:
                _KEYS[key] = written
        chunks.append(written)
        _ENCODERS.get(type(item), _encode_other)(item, chunks)


#: an array's tag and dtype code, and the dtype it is written in, by dtype kind
_ARRAY_KINDS: dict[str, tuple[bytes, np.dtype]] = {
    "f": (_TAG_ARRAY + b"f8", _ARRAY_DTYPES["f8"]),
    "i": (_TAG_ARRAY + b"i8", _ARRAY_DTYPES["i8"]),
    "u": (_TAG_ARRAY + b"i8", _ARRAY_DTYPES["i8"]),
    "b": (_TAG_ARRAY + b"b1", _ARRAY_DTYPES["b1"]),
}


#: the packer of an array's rank, dimensions and byte count (big-endian
#: u32s), by rank
_PACK_SIZES: dict[int, Callable[..., bytes]] = {}


def _encode_array(value: np.ndarray, chunks: list[bytes]) -> None:
    kind = _ARRAY_KINDS.get(value.dtype.kind)
    if kind is None:
        raise SerializationError(f"unsupported array dtype: {value.dtype}")
    head, dtype = kind
    data = np.ascontiguousarray(value, dtype=dtype).tobytes()
    shape = value.shape
    pack = _PACK_SIZES.get(len(shape))
    if pack is None:
        pack = _PACK_SIZES[len(shape)] = struct.Struct(f">{len(shape) + 2}I").pack
    chunks += (head + pack(len(shape), *shape, len(data)), data, _PADDING[len(data) & 3])


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


_unpack_u32 = struct.Struct(">I").unpack_from
_unpack_i64 = struct.Struct(">q").unpack_from
_unpack_f64 = struct.Struct(">d").unpack_from
#: a 1-d array's dimension and byte count, read together
_unpack_u32_pair = struct.Struct(">II").unpack_from

#: the wire dtype of an array and the native dtype it is read into, by code
_ARRAY_READS: dict[bytes, tuple[np.dtype, np.dtype]] = {
    code.encode("latin-1"): (dtype, dtype.newbyteorder("="))
    for code, dtype in _ARRAY_DTYPES.items()
}
# the tags as the integers ``data[pos]`` gives
_N, _T, _F, _I, _D, _S, _B, _L, _H, _A, _O = (
    tag[0] for tag in (_TAG_NONE, _TAG_TRUE, _TAG_FALSE, _TAG_INT, _TAG_FLOAT, _TAG_STRING,
                       _TAG_BYTES, _TAG_LIST, _TAG_DICT, _TAG_ARRAY, _TAG_OBJECT)
)


def _truncated() -> SerializationError:
    return SerializationError("truncated XDR stream")


def _text(data: bytes, pos: int, end: int, what: str) -> tuple[str, int]:
    """The length-prefixed padded UTF-8 string at ``pos`` -- a string value, a
    dictionary key, the type name of a registered object -- and the
    position after its padding."""
    if pos + 4 > end:
        raise _truncated()
    size = _unpack_u32(data, pos)[0]
    pos += 4
    after = pos + size + (-size & 3)
    if after > end:
        raise _truncated()
    raw = data[pos:pos + size]
    try:
        return raw.decode("utf-8"), after
    except UnicodeDecodeError as exc:
        raise SerializationError(f"{what} {raw[:40]!r} is not UTF-8: {exc}") from exc


def _read(data: bytes, pos: int, end: int) -> tuple[Any, int]:
    """The value encoded at ``data[pos]`` and the position after it.

    Offsets into the one byte string, never a copy of the rest of it: fixed
    fields are unpacked where they lie and an array is read straight out of
    the stream into its native-order copy.  Every length is checked against
    ``end`` before anything of that length is made.
    """
    if pos >= end:
        raise _truncated()
    tag = data[pos]
    pos += 1
    if tag == _D:
        if pos + 8 > end:
            raise _truncated()
        return _unpack_f64(data, pos)[0], pos + 8
    if tag == _S:
        return _text(data, pos, end, "string")
    if tag == _A:
        return _read_array(data, pos, end)
    if tag == _I:
        if pos + 8 > end:
            raise _truncated()
        return _unpack_i64(data, pos)[0], pos + 8
    if tag == _H:
        if pos + 4 > end:
            raise _truncated()
        length = _unpack_u32(data, pos)[0]
        pos += 4
        out = {}
        for _ in range(length):
            key, pos = _text(data, pos, end, "dictionary key")
            out[key], pos = _read(data, pos, end)
        return out, pos
    if tag == _L:
        if pos + 4 > end:
            raise _truncated()
        length = _unpack_u32(data, pos)[0]
        pos += 4
        items = []
        for _ in range(length):
            item, pos = _read(data, pos, end)
            items.append(item)
        return items, pos
    if tag == _N:
        return None, pos
    if tag == _T:
        return True, pos
    if tag == _F:
        return False, pos
    if tag == _B:
        if pos + 4 > end:
            raise _truncated()
        size = _unpack_u32(data, pos)[0]
        pos += 4
        after = pos + size + (-size & 3)
        if after > end:
            raise _truncated()
        return data[pos:pos + size], after
    if tag == _O:
        type_name, pos = _text(data, pos, end, "object type name")
        if type_name not in _CODECS:
            raise SerializationError(f"no codec registered for object type {type_name!r}")
        payload, pos = _read(data, pos, end)
        if not isinstance(payload, dict):
            raise SerializationError("object payload must decode to a dictionary")
        return _CODECS[type_name][2](payload), pos
    raise SerializationError(f"unknown XDR tag {data[pos - 1:pos]!r} at position {pos - 1}")


def _read_array(data: bytes, pos: int, end: int) -> tuple[np.ndarray, int]:
    """The array after an array tag: dtype code, rank, dimensions, byte count
    and the padded bytes, read into a native-order array of its own."""
    if pos + 6 > end:
        raise _truncated()
    code = data[pos:pos + 2]
    dtypes = _ARRAY_READS.get(code)
    if dtypes is None:
        raise SerializationError(f"unknown array dtype code {code.decode('latin-1')!r}")
    ndim = _unpack_u32(data, pos + 2)[0]
    pos += 6
    if pos + 4 * ndim + 4 > end:
        raise _truncated()
    if ndim == 1:
        size, nbytes = _unpack_u32_pair(data, pos)
        shape: tuple[int, ...] = (size,)
    else:
        shape = struct.unpack_from(f">{ndim}I", data, pos)
        nbytes = _unpack_u32(data, pos + 4 * ndim)[0]
        size = 1
        for dimension in shape:
            size *= dimension
    pos += 4 * ndim + 4
    after = pos + nbytes + (-nbytes & 3)
    if after > end:
        raise _truncated()
    wire, native = dtypes
    if size * wire.itemsize != nbytes:
        raise SerializationError(
            f"array of shape {shape} does not fit its {nbytes} bytes: "
            f"{size} items of {wire.itemsize} bytes"
        )
    array = np.frombuffer(data, dtype=wire, count=size, offset=pos).astype(native)
    if ndim != 1:
        try:
            array = array.reshape(shape)
        except ValueError as exc:  # more dimensions than NumPy takes
            raise SerializationError(
                f"array of shape {shape} does not fit its {nbytes} bytes: {exc}"
            ) from exc
    return array, after


def decode(data: bytes) -> Any:
    """Decode a byte string produced by :func:`encode`."""
    data = bytes(data)
    try:
        value, pos = _read(data, 0, len(data))
    except RecursionError as exc:
        raise SerializationError("XDR stream nests deeper than the decoder recurses") from exc
    if pos < len(data):
        raise SerializationError(f"trailing bytes after decoding ({len(data) - pos} left)")
    return value

"""Schema'd wire codec for the fleet protocol (v5): no pickle, ever.

Frames used to be pickled, which meant a malicious peer could execute
arbitrary code with one crafted frame.  This module replaces pickle with
a small msgpack-style binary encoding built entirely from the stdlib:

* a closed **value model** — ``None``, ``bool``, ``int``, ``float``,
  ``str``, ``bytes``, ``tuple``, ``list`` and ``dict`` (tuples and lists
  keep their identity so decoded messages compare equal to what was
  sent, and dict keys may themselves be tuples — the shape
  :class:`~repro.obs.metrics.MetricsSnapshot` samples use);
* a **struct registry** — the only non-primitive objects that may cross
  the wire are the frame dataclasses of
  :mod:`repro.distributed.protocol` and the plain-data payload types
  they carry (the experiment-plan tree, eval cells and results, spans,
  metrics snapshots).  Each registered struct has an explicit field
  schema derived from its dataclass definition; decoding validates the
  tag and the field names and then calls the dataclass constructor —
  never arbitrary code.

Anything outside the value model or the registry fails closed with
:class:`CodecError` (a subclass of the protocol's framing error type by
the time it surfaces from :func:`~repro.distributed.protocol.recv_message`).
Numpy blobs ride as typed raw ``bytes`` buffers and are only
deserialized by the store's ``.npz`` decoders after digest verification
— nothing in this module ever materializes an object from attacker
bytes beyond the whitelisted dataclasses of primitives.

The encoding is deterministic for a given message (no maps with
unordered iteration beyond the insertion order Python guarantees), so
bit-identity of results is preserved end to end: plan fingerprints are
recomputed from the *decoded* plan and must match the sender's.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import MISSING, fields, is_dataclass

__all__ = ["CodecError", "encode_value", "decode_value", "register_struct"]


class CodecError(RuntimeError):
    """A value outside the wire schema, or a malformed encoded buffer."""


# Type tags.  One byte each; lengths and counts are big-endian.
_NONE = b"N"
_TRUE = b"T"
_FALSE = b"F"
_INT64 = b"i"      # ">q"
_BIGINT = b"I"     # u32 length + signed big-endian bytes
_FLOAT = b"f"      # ">d" (exact IEEE-754 round trip)
_STR = b"s"        # u32 length + UTF-8
_BYTES = b"b"      # u64 length + raw (dataset blobs are large)
_TUPLE = b"t"      # u32 count + items
_LIST = b"l"       # u32 count + items
_DICT = b"d"       # u32 count + (key, value) pairs
_STRUCT = b"S"     # tag string + u32 field count + (name, value) pairs

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

#: Maximum nesting depth a decoder will follow — far above any real
#: message (a plan tree is ~5 levels) and low enough that a crafted
#: deeply-nested buffer cannot exhaust the stack.
MAX_DEPTH = 32

#: Registered wire structs: tag -> (class, allowed field names,
#: required field names).  Only these classes can be instantiated by the
#: decoder; the schema is explicit and introspectable.
_STRUCTS: dict[str, tuple[type, frozenset, frozenset]] = {}
_CLASSES: dict[type, str] = {}
_LOADED = False


def register_struct(cls: type, tag: str | None = None) -> type:
    """Whitelist a frozen plain-data dataclass for wire transport.

    The field schema is the dataclass definition itself: decoding
    accepts exactly those field names (missing ones must have defaults)
    and constructs the class with keyword arguments — no other code
    path.  Returns *cls* so it can be used as a decorator.
    """
    if not is_dataclass(cls):
        raise TypeError(f"wire structs must be dataclasses, got {cls!r}")
    name = tag or cls.__name__
    spec = fields(cls)
    allowed = frozenset(f.name for f in spec)
    required = frozenset(
        f.name for f in spec
        if f.default is MISSING and f.default_factory is MISSING)
    _STRUCTS[name] = (cls, allowed, required)
    _CLASSES[cls] = name
    return cls


def _load_registry() -> None:
    """Register every type allowed on the wire (idempotent, lazy).

    Lazy so importing the protocol module does not drag in the whole
    experiments package; by the time a frame is encoded the process has
    these modules loaded anyway.
    """
    global _LOADED
    if _LOADED:
        return
    from repro.core.evaluation import CellResult, EvalCell
    from repro.datasets.store import DatasetSpec
    from repro.distributed import protocol
    from repro.experiments.plan import (
        EstimatorSpec,
        ExperimentPlan,
        FactorySpec,
        SeriesSpec,
    )
    from repro.obs.metrics import MetricsSnapshot
    from repro.obs.tracing import Span, SpanContext

    for cls in (
        # Frame vocabulary (every type recv_message may return).
        protocol.Hello, protocol.Welcome, protocol.Reject,
        protocol.GetPlan, protocol.PlanAssignment, protocol.NoPlan,
        protocol.Goodbye, protocol.Fetch, protocol.Blob, protocol.GetBatch,
        protocol.Batch, protocol.Idle, protocol.PlanDone,
        protocol.Results, protocol.Ack, protocol.Heartbeat,
        # Payload objects frames carry (all plain-data dataclasses).
        ExperimentPlan, DatasetSpec, SeriesSpec, FactorySpec,
        EstimatorSpec, EvalCell, CellResult, Span, SpanContext,
        MetricsSnapshot,
    ):
        register_struct(cls)
    _LOADED = True


# --------------------------------------------------------------------------- #
# Encoding
# --------------------------------------------------------------------------- #
def _encode(value, out: list) -> None:
    if value is None:
        out.append(_NONE)
    elif value is True:
        out.append(_TRUE)
    elif value is False:
        out.append(_FALSE)
    elif type(value) is int:
        _encode_int(value, out)
    elif isinstance(value, float):  # accepts np.float64 (a float subclass)
        out.append(_FLOAT)
        out.append(_F64.pack(value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_STR)
        out.append(_U32.pack(len(raw)))
        out.append(raw)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        out.append(_BYTES)
        out.append(_U64.pack(len(raw)))
        out.append(raw)
    elif isinstance(value, tuple):
        out.append(_TUPLE)
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode(item, out)
    elif isinstance(value, list):
        out.append(_LIST)
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode(item, out)
    elif isinstance(value, dict):
        out.append(_DICT)
        out.append(_U32.pack(len(value)))
        for key, item in value.items():
            _encode(key, out)
            _encode(item, out)
    elif type(value) in _CLASSES:
        _encode_struct(value, out)
    else:
        # Integer-likes (numpy int64 seeds and counts) convert exactly;
        # everything else is outside the schema and refused.
        try:
            as_int = operator.index(value)
        except TypeError:
            raise CodecError(
                f"{type(value).__name__} is not a wire-encodable type") from None
        _encode_int(as_int, out)


def _encode_int(value: int, out: list) -> None:
    if _INT64_MIN <= value <= _INT64_MAX:
        out.append(_INT64)
        out.append(_I64.pack(value))
    else:
        raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
        out.append(_BIGINT)
        out.append(_U32.pack(len(raw)))
        out.append(raw)


def _encode_struct(value, out: list) -> None:
    tag = _CLASSES[type(value)]
    _cls, allowed, _required = _STRUCTS[tag]
    raw = tag.encode("utf-8")
    out.append(_STRUCT)
    out.append(_U32.pack(len(raw)))
    out.append(raw)
    items = [(name, getattr(value, name)) for name in sorted(allowed)]
    out.append(_U32.pack(len(items)))
    for name, item in items:
        name_raw = name.encode("utf-8")
        out.append(_U32.pack(len(name_raw)))
        out.append(name_raw)
        _encode(item, out)


def encode_value(value) -> bytes:
    """Encode *value* under the wire schema; :class:`CodecError` if outside it."""
    _load_registry()
    out: list = []
    _encode(value, out)
    return b"".join(out)


# --------------------------------------------------------------------------- #
# Decoding
# --------------------------------------------------------------------------- #
class _Reader:
    """Bounds-checked cursor over an untrusted buffer."""

    __slots__ = ("buf", "pos")

    def __init__(self, buf: bytes) -> None:
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if n < 0 or end > len(self.buf):
            raise CodecError(
                f"truncated buffer: need {n} bytes at offset {self.pos}, "
                f"have {len(self.buf) - self.pos}")
        chunk = self.buf[self.pos:end]
        self.pos = end
        return chunk

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def text(self) -> str:
        try:
            return self.take(self.u32()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid UTF-8 in encoded string: {exc}") from None


def _decode(reader: _Reader, depth: int):
    if depth > MAX_DEPTH:
        raise CodecError(f"nesting deeper than {MAX_DEPTH} levels")
    tag = reader.take(1)
    if tag == _NONE:
        return None
    if tag == _TRUE:
        return True
    if tag == _FALSE:
        return False
    if tag == _INT64:
        return _I64.unpack(reader.take(8))[0]
    if tag == _BIGINT:
        return int.from_bytes(reader.take(reader.u32()), "big", signed=True)
    if tag == _FLOAT:
        return _F64.unpack(reader.take(8))[0]
    if tag == _STR:
        return reader.text()
    if tag == _BYTES:
        (length,) = _U64.unpack(reader.take(8))
        return reader.take(length)
    if tag == _TUPLE:
        return tuple(_decode(reader, depth + 1) for _ in range(reader.u32()))
    if tag == _LIST:
        return [_decode(reader, depth + 1) for _ in range(reader.u32())]
    if tag == _DICT:
        count = reader.u32()
        result = {}
        for _ in range(count):
            key = _decode(reader, depth + 1)
            result[key] = _decode(reader, depth + 1)
        return result
    if tag == _STRUCT:
        return _decode_struct(reader, depth)
    raise CodecError(f"unknown type tag {tag!r} at offset {reader.pos - 1}")


def _decode_struct(reader: _Reader, depth: int):
    tag = reader.text()
    try:
        cls, allowed, required = _STRUCTS[tag]
    except KeyError:
        raise CodecError(f"unknown wire struct {tag!r}") from None
    count = reader.u32()
    kwargs = {}
    for _ in range(count):
        name = reader.text()
        if name not in allowed:
            raise CodecError(f"struct {tag!r} has no field {name!r}")
        kwargs[name] = _decode(reader, depth + 1)
    missing = required - kwargs.keys()
    if missing:
        raise CodecError(
            f"struct {tag!r} is missing required fields {sorted(missing)}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise CodecError(f"struct {tag!r} rejected its fields: {exc}") from None


def decode_value(buf: bytes):
    """Decode one value; :class:`CodecError` on any malformed byte.

    The whole buffer must be consumed — trailing garbage is as much a
    framing violation as a truncated value.
    """
    _load_registry()
    reader = _Reader(buf)
    try:
        value = _decode(reader, 0)
    except struct.error as exc:  # unpack on a short slice
        raise CodecError(f"malformed encoded value: {exc}") from None
    if reader.pos != len(buf):
        raise CodecError(
            f"{len(buf) - reader.pos} trailing bytes after the encoded value")
    return value

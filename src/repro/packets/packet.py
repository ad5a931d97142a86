"""Bit-level packing and unpacking of header fields.

Headers are sequences of arbitrary-width bit fields packed MSB-first, the
wire layout P4 targets use.  Both the packet-crafting API and the
behavioural simulator's parser/deparser are built on these two functions,
so a crafted packet always parses back to the field values it was built
from.

The bit arithmetic is precompiled once per field layout into a
:class:`HeaderCodec` (shift/mask tables) and resolved through
:func:`get_codec` — header types are frozen values, so a codec is a pure
function of ``(name, fields)`` and one layout is compiled once per
process, whichever program meets it first.  The simulator's emitted
parser reads fields out of header words by the codec's ``fields``, and
its deparser rebuilds written words by the same table; the reference
parser and deparser (:mod:`repro.sim.parser_engine`) use no codec.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Sequence, Tuple

from repro.exceptions import PacketError
from repro.p4.program import HeaderField, HeaderType
from repro.p4.types import mask


class HeaderCodec:
    """Precompiled pack/unpack tables for one header shape."""

    __slots__ = ("name", "byte_width", "known", "_pack_spec", "fields", "pad")

    def __init__(self, name: str, fields: Tuple[HeaderField, ...]):
        self.name = name
        total_bits = sum(f.width for f in fields)
        self.pad = (8 - total_bits % 8) % 8
        self.byte_width = (total_bits + self.pad) // 8
        self.known = frozenset(f.name for f in fields)
        #: pack order: (field name, width, value mask)
        self._pack_spec: Tuple[Tuple[str, int, int], ...] = tuple(
            (f.name, f.width, mask(f.width)) for f in fields
        )
        #: field name -> (right-shift from bit 0, value mask), in order
        self.fields: Dict[str, Tuple[int, int]] = {}
        consumed = 0
        padded_bits = total_bits + self.pad
        for f in fields:
            self.fields[f.name] = (
                padded_bits - consumed - f.width, mask(f.width)
            )
            consumed += f.width

    def __reduce__(self):
        # Resolve the layout through the receiving process's memo.
        # Header types drop their codec from their own state, so this
        # only serves a codec pickled directly.
        fields = tuple(
            HeaderField(fname, width)
            for fname, width, _fmask in self._pack_spec
        )
        return (_layout_codec, (self.name, fields))

    def unpack_at(self, data: bytes, offset: int) -> Dict[str, int]:
        accum = int.from_bytes(data[offset:offset + self.byte_width], "big")
        return {
            name: (accum >> shift) & fmask
            for name, (shift, fmask) in self.fields.items()
        }

    def pack(self, values: Dict[str, int]) -> bytes:
        """Serialize field values; missing fields are zero."""
        if not self.known.issuperset(values):
            raise PacketError(
                f"unknown fields for {self.name!r}: "
                f"{sorted(set(values) - self.known)}"
            )
        accum = 0
        get = values.get
        for name, width, fmask in self._pack_spec:
            value = get(name, 0)
            if value < 0 or value > fmask:
                raise PacketError(
                    f"{self.name}.{name}={value} does not fit in "
                    f"{width} bits"
                )
            accum = (accum << width) | value
        return ((accum << self.pad)).to_bytes(self.byte_width, "big")


@functools.lru_cache(maxsize=1024)
def _layout_codec(name: str, fields: Tuple[HeaderField, ...]) -> HeaderCodec:
    """The process-wide memo: one codec per distinct field layout."""
    return HeaderCodec(name, fields)


def get_codec(header_type: HeaderType) -> HeaderCodec:
    """The memoized codec for a header type.

    Resolved through the layout-keyed memo once per ``HeaderType`` object
    and then pinned on the instance (hashing the field tuple per packet
    would cost more than the lookup saves).  The pin is derived state:
    ``HeaderType.__getstate__`` keeps it out of pickles and deep copies.
    """
    codec = getattr(header_type, "_codec", None)
    if codec is None:
        codec = _layout_codec(header_type.name, header_type.fields)
        object.__setattr__(header_type, "_codec", codec)
    return codec


def pack_fields(header_type: HeaderType, values: Dict[str, int]) -> bytes:
    """Serialize field values into the header's wire format.

    Missing fields default to zero; unknown fields are an error.
    """
    return get_codec(header_type).pack(values)


def unpack_fields(header_type: HeaderType, data: bytes) -> Dict[str, int]:
    """Parse a header's fields out of ``data`` (which must be long enough)."""
    codec = get_codec(header_type)
    if len(data) < codec.byte_width:
        raise PacketError(
            f"not enough bytes for {header_type.name!r}: need "
            f"{codec.byte_width}, have {len(data)}"
        )
    return codec.unpack_at(data, 0)


def concat_headers(
    parts: Sequence[Tuple[HeaderType, Dict[str, int]]],
    payload: bytes = b"",
) -> bytes:
    """Build a packet from an ordered list of (type, values) plus payload."""
    chunks: List[bytes] = [pack_fields(t, v) for t, v in parts]
    chunks.append(payload)
    return b"".join(chunks)

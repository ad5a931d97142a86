"""Packet parsing and deparsing against a program's parser spec: the
reference loop's own parser and deparser, which the engine's emitted
parser and its deparse from header words are checked against.

Parsing walks the parse graph, extracting header instances into field
dictionaries and recording which headers became valid.  Deparsing emits
every valid packet header in declaration order followed by the unparsed
payload — the same convention the crafting API uses, so parse∘deparse is
the identity for unmodified packets.  :func:`_unpack` and :func:`_pack`
work from each ``HeaderType``'s field widths, not the engine's
``HeaderCodec``: an oracle sharing the codec would pass a codec bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Set, Tuple

from repro.exceptions import PacketError, SimulationError
from repro.p4.parser_spec import ACCEPT
from repro.p4.program import HeaderType, Program


@dataclass
class ParsedPacket:
    """Result of parsing one packet.

    ``spans`` maps each extracted header to its ``(start, end)`` byte
    range in the original packet.
    """

    headers: Dict[str, Dict[str, int]]
    valid: Set[str]
    payload: bytes
    spans: Dict[str, Tuple[int, int]] = dc_field(default_factory=dict)


def _unpack(header_type: HeaderType, data: bytes, offset: int):
    """The header's fields at ``offset``: MSB first, padding last."""
    width = header_type.byte_width
    word = int.from_bytes(data[offset:offset + width], "big")
    bits, values = 8 * width, {}
    for f in header_type.fields:
        bits -= f.width
        values[f.name] = (word >> bits) % (1 << f.width)
    return values


def _pack(header_type: HeaderType, values: Dict[str, int]) -> bytes:
    """The header's wire bytes; a missing field is zero, an unknown
    field or a value outside its width is a :class:`PacketError`."""
    unknown = set(values) - set(header_type.field_names())
    if unknown:
        raise PacketError(
            f"unknown fields for {header_type.name!r}: {sorted(unknown)}"
        )
    word = 0
    for f in header_type.fields:
        value = values.get(f.name, 0)
        if not 0 <= value < 1 << f.width:
            raise PacketError(
                f"{header_type.name}.{f.name}={value} does not fit in "
                f"{f.width} bits"
            )
        word = word << f.width | value
    width = header_type.byte_width
    return (word << 8 * width - header_type.bit_width).to_bytes(width, "big")


def parse_packet(program: Program, data: bytes) -> ParsedPacket:
    """Run the program's parser over raw bytes."""
    if program.parser is None:
        raise SimulationError(
            f"program {program.name!r} has no parser; cannot parse packets"
        )
    headers: Dict[str, Dict[str, int]] = {}
    valid: Set[str] = set()
    spans: Dict[str, Tuple[int, int]] = {}
    offset = 0
    state_name = program.parser.start
    while state_name != ACCEPT:
        state = program.parser.states[state_name]
        for header_name in state.extracts:
            htype = program.header_type_of(header_name)
            width = htype.byte_width
            if offset + width > len(data):
                raise SimulationError(
                    f"packet too short: state {state_name!r} needs "
                    f"{width} bytes for {header_name!r}, "
                    f"{len(data) - offset} remain"
                )
            headers[header_name] = _unpack(htype, data, offset)
            valid.add(header_name)
            spans[header_name] = (offset, offset + width)
            offset += width
        if state.select is None:
            state_name = state.default
        else:
            ref = state.select
            if ref.header not in valid:
                raise SimulationError(
                    f"parser state {state_name!r} selects on "
                    f"{ref.path!r} before extracting {ref.header!r}"
                )
            value = headers[ref.header][ref.field]
            state_name = state.transitions.get(value, state.default)
    # auto_valid headers (e.g. the profiling header) are added zero-filled
    # for every packet without consuming bytes or pipeline resources.
    for inst in program.packet_headers():
        if inst.auto_valid and inst.name not in valid:
            htype = program.header_types[inst.header_type]
            headers[inst.name] = {name: 0 for name in htype.field_names()}
            valid.add(inst.name)
    return ParsedPacket(
        headers=headers, valid=valid, payload=data[offset:], spans=spans
    )


def deparse_packet(
    program: Program,
    headers: Dict[str, Dict[str, int]],
    valid: Set[str],
    payload: bytes,
) -> bytes:
    """Serialize valid packet headers (declaration order) plus payload."""
    chunks: List[bytes] = []
    for inst in program.packet_headers():
        if inst.name in valid:
            htype = program.header_types[inst.header_type]
            chunks.append(_pack(htype, headers.get(inst.name, {})))
    chunks.append(payload)
    return b"".join(chunks)

"""Packet parsing and deparsing against a program's parser spec.

Parsing walks the parse graph, extracting header instances into field
dictionaries and recording which headers became valid.  Deparsing emits
every valid packet header in declaration order followed by the unparsed
payload — the same convention the crafting API uses, so parse∘deparse is
the identity for unmodified packets.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Set, Tuple

from repro.exceptions import SimulationError
from repro.p4.parser_spec import ACCEPT
from repro.p4.program import Program
from repro.packets.packet import get_codec, pack_fields


@dataclass
class ParsedPacket:
    """Result of parsing one packet.

    ``spans`` maps each extracted header to its ``(start, end)`` byte
    range in the original packet, letting the engine's deparser emit
    untouched headers by slicing the input instead of re-packing them.
    """

    headers: Dict[str, Dict[str, int]]
    valid: Set[str]
    payload: bytes
    spans: Dict[str, Tuple[int, int]] = dc_field(default_factory=dict)

    def field(self, header: str, field_name: str) -> int:
        return self.headers[header][field_name]


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
            codec = get_codec(program.header_type_of(header_name))
            if offset + codec.byte_width > len(data):
                raise SimulationError(
                    f"packet too short: state {state_name!r} needs "
                    f"{codec.byte_width} bytes for {header_name!r}, "
                    f"{len(data) - offset} remain"
                )
            headers[header_name] = codec.unpack_at(data, offset)
            valid.add(header_name)
            spans[header_name] = (offset, offset + codec.byte_width)
            offset += codec.byte_width
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
            chunks.append(pack_fields(htype, headers.get(inst.name, {})))
    chunks.append(payload)
    return b"".join(chunks)

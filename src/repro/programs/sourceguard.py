"""Sourceguard (switch.p4 feature) — the memory-reduction scenario (§4).

Clients may only use IPs assigned statically or by DHCP; the check is a
lookup of the packet's source address in a DHCP-snooping database, here a
two-hash Bloom filter in data-plane register arrays (the paper adapted the
feature the same way, §4 fn. 5-6).

Layout on the example target: the FIB spans stages 1-2, each Bloom array
fills its own stage (array + its check table exactly fill the 16-block
stage), and the verdict table sits after both — 5 stages.  Phase 3 finds
that trimming a single array lets it slide into the FIB's spill stage,
saving one stage at a single-digit percentage size cost (paper: −8.4%).
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.p4 import Program
from repro.packets.headers import ip_to_int
from repro.programs.common import EXAMPLE_TARGET, source_program
from repro.sim.runtime import RuntimeConfig
from repro.sketches.dataplane import BloomFragment, preload_bloom_filter
from repro.target.model import TargetModel
from repro.traffic.generators import TracePacket

TARGET: TargetModel = EXAMPLE_TARGET

#: Cells per Bloom array: 4096 x 8-bit = 16 SRAM blocks = one full stage
#: each, so the two arrays land in separate stages.
BLOOM_CELLS = 4096

#: Addresses in the DHCP-snooping database (assigned to clients).
ASSIGNED_CLIENT_IPS = tuple(
    ip_to_int("10.0.1.0") + i for i in range(1, 33)
)

#: Spoofed source addresses used by the attack portion of the trace.
SPOOFED_IPS = tuple(ip_to_int("172.31.9.0") + i for i in range(1, 11))


def _bloom_key(src_ip: int) -> Tuple[Tuple[int, int], ...]:
    return ((src_ip, 32),)


def build_program() -> Program:
    """Sourceguard, parsed from ``sourceguard.p4``."""
    return source_program("sourceguard")


def bloom_fragment_of(program: Program) -> BloomFragment:
    """The Bloom filter's handle; every build of the program has the same
    one, so ``program`` may be None."""
    from repro.p4.expressions import FieldRef

    return BloomFragment(
        name="sg",
        check_tables=("sg_bf1", "sg_bf2"),
        registers=("sg_array0", "sg_array1"),
        bit_fields=(FieldRef("sg_meta", "bit0"), FieldRef("sg_meta", "bit1")),
        algorithms=("crc32_a", "crc32_b"),
        key_fields=(FieldRef("ipv4", "srcAddr"),),
    )


def runtime_config(program: Program = None) -> RuntimeConfig:
    cfg = RuntimeConfig()
    cfg.add_entry("ipv4_fib", [(ip_to_int("10.0.0.0"), 8)], "fwd", [2])
    cfg.add_entry("ipv4_fib", [(0, 0)], "fwd", [1])
    # Any clear bit -> not in the snooping DB -> drop.
    cfg.add_entry("sg_verdict", [0, 0], "sg_drop")
    cfg.add_entry("sg_verdict", [0, 1], "sg_drop")
    cfg.add_entry("sg_verdict", [1, 0], "sg_drop")
    preload_bloom_filter(
        cfg,
        bloom_fragment_of(program),
        [_bloom_key(ip) for ip in ASSIGNED_CLIENT_IPS],
    )
    return cfg


def make_trace(total: int = 4_000, seed: int = 11) -> List[TracePacket]:
    """Mostly legitimate client traffic plus a spoofed-source minority."""
    rng = random.Random(seed)
    packets: List[TracePacket] = []
    spoofed_count = int(total * 0.05)
    for _ in range(total - spoofed_count):
        src = rng.choice(ASSIGNED_CLIENT_IPS)
        dst = ip_to_int("10.0.9.1") + rng.randrange(1 << 8)
        packets.append(
            __udp(src, dst, rng)
        )
    for _ in range(spoofed_count):
        src = rng.choice(SPOOFED_IPS)
        dst = ip_to_int("10.0.9.1") + rng.randrange(1 << 8)
        packets.append(__udp(src, dst, rng))
    rng.shuffle(packets)
    return packets


def __udp(src: int, dst: int, rng: random.Random) -> bytes:
    from repro.packets.craft import udp_packet

    return udp_packet(src, dst, rng.randrange(1024, 65535), 9000)

"""Telemetry switch — three rare features competing for one offload.

An edge switch with a FIB + L2 rewrite and *three* independent, rarely
used monitoring features, each occupying its own stage (a full-stage
register array):

* ``dns_hh`` — DNS heavy-hitter counting (applied to ~2.4% of traffic),
* ``ttl_probe`` — traceroute detection on TTL==1 packets (~1%),
* ``syn_mon`` — SYN-rate monitoring (~5%).

Phase 3 trims one register array (5 -> 4 stages); phase 4 then offloads
the segment that saves a stage with the least controller load,
``ttl_probe`` (4 -> 3).
"""

from __future__ import annotations

import random
from typing import List

from repro.p4 import Program
from repro.packets import headers as hdr
from repro.packets.craft import dns_query, plain_ipv4_packet, tcp_packet
from repro.packets.headers import ip_to_int
from repro.programs.common import EXAMPLE_TARGET, source_program
from repro.sim.runtime import RuntimeConfig
from repro.target.model import TargetModel
from repro.traffic.generators import TracePacket, tcp_background

TARGET: TargetModel = EXAMPLE_TARGET


def build_program() -> Program:
    """The telemetry switch, parsed from ``telemetry.p4``."""
    return source_program("telemetry")


def runtime_config() -> RuntimeConfig:
    cfg = RuntimeConfig()
    cfg.add_entry("ipv4_fib", [(ip_to_int("10.0.0.0"), 8)], "fwd", [2])
    cfg.add_entry("ipv4_fib", [(0, 0)], "fwd", [1])
    for port, smac in ((1, 0x02BB00000001), (2, 0x02BB00000002)):
        cfg.add_entry("l2", [port], "l2_rewrite", [smac])
    return cfg


def make_trace(total: int = 4_000, seed: int = 31) -> List[TracePacket]:
    """~2.4% DNS, ~1% TTL-expiring probes, ~5% SYNs, rest plain TCP."""
    rng = random.Random(seed)
    packets: List[bytes] = []
    for i in range(int(total * 0.024)):
        src = ip_to_int("10.4.0.1") + (i % 12)
        packets.append(dns_query(src, "192.168.77.9", query_id=i & 0xFFFF))
    for i in range(int(total * 0.01)):
        src = ip_to_int("10.5.0.1") + (i % 5)
        pkt = bytearray(
            plain_ipv4_packet(src, "192.168.1.1", protocol=hdr.IPPROTO_ICMP)
        )
        pkt[14 + 8] = 1  # ttl = 1
        packets.append(bytes(pkt))
    for i in range(int(total * 0.05)):
        src = ip_to_int("10.6.0.1") + rng.randrange(1 << 10)
        packets.append(
            tcp_packet(src, "192.168.9.9", 30000 + i % 1000, 80,
                       seq=rng.randrange(1 << 32),
                       flags=hdr.TCP_FLAG_SYN)
        )
    packets.extend(tcp_background(total - len(packets), rng))
    rng.shuffle(packets)
    return packets

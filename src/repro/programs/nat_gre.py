"""NAT & GRE (switch.p4 features) — the dependency-removal scenario (§4).

The two features are statically dependent: both rewrite the IPv4
destination (NAT translates it, GRE decapsulation restores the inner
destination), so the compiler serializes them.  The evaluation trace
contains no packet using both features, so P2GO removes the dependency and
the compiler packs both into one stage: 4 stages → 3 (Table 3, row 1).
"""

from __future__ import annotations

import random
from typing import List

from repro.p4 import Program
from repro.packets.headers import ip_to_int
from repro.programs.common import EXAMPLE_TARGET, source_program
from repro.sim.runtime import RuntimeConfig
from repro.target.model import TargetModel
from repro.traffic.generators import TracePacket, tcp_background
from repro.packets.craft import gre_packet, udp_packet

TARGET: TargetModel = EXAMPLE_TARGET

#: Public-facing addresses NAT translates (dstAddr exact match).
NAT_MAPPINGS = {
    "203.0.113.10": "10.0.0.10",
    "203.0.113.11": "10.0.0.11",
    "203.0.113.12": "10.0.0.12",
}

#: GRE tunnel endpoints and the inner destination each decapsulates to.
GRE_TUNNELS = {
    "198.51.100.1": "10.1.0.1",
    "198.51.100.2": "10.1.0.2",
}


def build_program() -> Program:
    """NAT & GRE, parsed from ``nat_gre.p4``."""
    return source_program("nat_gre")


def runtime_config() -> RuntimeConfig:
    cfg = RuntimeConfig()
    for public, inside in NAT_MAPPINGS.items():
        cfg.add_entry("nat", [ip_to_int(public)], "nat_rewrite",
                      [ip_to_int(inside)])
    for endpoint, inner in GRE_TUNNELS.items():
        cfg.add_entry("gre_term", [ip_to_int(endpoint)], "gre_decap",
                      [ip_to_int(inner)])
    cfg.add_entry("ipv4_fib", [(ip_to_int("10.0.0.0"), 8)], "fwd", [2])
    cfg.add_entry("ipv4_fib", [(ip_to_int("10.1.0.0"), 16)], "fwd", [3])
    cfg.add_entry("ipv4_fib", [(0, 0)], "fwd", [1])
    for port, smac in ((1, 0x02AA00000001), (2, 0x02AA00000002),
                       (3, 0x02AA00000003)):
        cfg.add_entry("l2", [port], "l2_rewrite", [smac])
    return cfg


def make_trace(total: int = 4_000, seed: int = 7) -> List[TracePacket]:
    """NAT'd flows and GRE-tunneled flows, never both on one packet.

    Tunneled packets target GRE endpoints (decapsulated); NAT'd packets
    target the public addresses over plain IP.  No packet matches both
    ``nat`` and ``gre_term``, which is what lets P2GO drop the dependency.
    """
    rng = random.Random(seed)
    packets: List[TracePacket] = []
    nat_publics = sorted(NAT_MAPPINGS)
    gre_endpoints = sorted(GRE_TUNNELS)
    for _ in range(int(total * 0.25)):
        public = rng.choice(nat_publics)
        src = ip_to_int("192.0.2.1") + rng.randrange(1 << 10)
        packets.append(udp_packet(src, ip_to_int(public),
                                  rng.randrange(1024, 65535), 7777))
    for _ in range(int(total * 0.25)):
        endpoint = rng.choice(gre_endpoints)
        src = ip_to_int("198.51.100.100") + rng.randrange(1 << 8)
        packets.append(
            gre_packet(src, ip_to_int(endpoint),
                       inner_src="10.9.0.1", inner_dst="10.1.0.9")
        )
    packets.extend(
        tcp_background(total - len(packets), rng,
                       src_net=ip_to_int("192.0.2.0"),
                       dst_net=ip_to_int("10.0.0.0"))
    )
    rng.shuffle(packets)
    return packets

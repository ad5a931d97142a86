"""Enterprise edge switch — the §2.2 "what if the program does not fit"
scenario.

Combines the paper's building blocks into one program that *oversubscribes*
the example target: the Ex. 1 firewall (FIB + two ACLs + DNS Count-Min
Sketch), the Sourceguard Bloom filter, and a SYN monitor.  The static
compiler needs more stages than the hardware has; P2GO "could compile and
profile the program in simulation, independently of the required
resources" and optimize until it fits — which is exactly what the fit-
recovery bench demonstrates.
"""

from __future__ import annotations

import random
from typing import List

from repro.p4 import Program
from repro.packets import headers as hdr
from repro.packets.headers import ip_to_int
from repro.programs import example_firewall as fw
from repro.programs.common import source_program
from repro.sim.runtime import RuntimeConfig
from repro.sketches.dataplane import preload_bloom_filter
from repro.target.model import TargetModel
from repro.traffic.generators import (
    TracePacket,
    dhcp_stream,
    dns_stream,
    interleave,
    tcp_background,
    udp_background,
)

#: The physical budget this program initially overshoots: the static
#: compiler needs 11 stages, the hardware has 8.
TARGET = TargetModel(
    name="rmt-enterprise",
    num_stages=8,
    sram_blocks_per_stage=16,
    tcam_blocks_per_stage=8,
    sram_block_bytes=256,
    tcam_block_bytes=64,
    max_tables_per_stage=8,
)

BLOOM_CELLS = 4096
ASSIGNED_CLIENT_IPS = tuple(ip_to_int("10.0.1.0") + i for i in range(1, 25))
SPOOFED_IPS = tuple(ip_to_int("172.31.9.0") + i for i in range(1, 9))


def build_program() -> Program:
    """The enterprise edge switch, parsed from ``enterprise.p4``."""
    return source_program("enterprise")


def runtime_config(program: Program = None) -> RuntimeConfig:
    """Routes, ACLs, the DNS sketch and the sourceguard Bloom preload.
    ``program`` is never read (every build has the same Bloom fragment);
    it stays because callers that build configs per program pass one,
    the stack benchmark's ``opt_compile`` among them."""
    cfg = RuntimeConfig()
    cfg.add_entry("IPv4", [(ip_to_int("192.168.0.0"), 16)],
                  "ipv4_forward", [2])
    cfg.add_entry("IPv4", [(ip_to_int("10.0.0.0"), 8)], "ipv4_forward", [3])
    cfg.add_entry("IPv4", [(0, 0)], "ipv4_forward", [1])
    for port in fw.BLOCKED_UDP_PORTS:
        cfg.add_entry("ACL_UDP", [port], "acl_udp_drop")
    for port in fw.UNTRUSTED_INGRESS_PORTS:
        cfg.add_entry("ACL_DHCP", [port], "acl_dhcp_drop")
    cfg.add_entry("Sketch_1", [hdr.UDP_PORT_DNS], "dns_cms_update0")
    cfg.add_entry("Sketch_2", [hdr.UDP_PORT_DNS], "dns_cms_update1")
    cfg.add_entry("Sketch_Min", [hdr.UDP_PORT_DNS], "dns_cms_min_action")
    cfg.add_entry("DNS_Drop", [hdr.UDP_PORT_DNS], "dns_drop")
    cfg.add_entry("sg_verdict", [0, 0], "sg_drop")
    cfg.add_entry("sg_verdict", [0, 1], "sg_drop")
    cfg.add_entry("sg_verdict", [1, 0], "sg_drop")

    from repro.programs.sourceguard import bloom_fragment_of

    fragment = bloom_fragment_of(None)  # same fragment shape/names
    preload_bloom_filter(
        cfg, fragment, [((ip, 32),) for ip in ASSIGNED_CLIENT_IPS]
    )
    return cfg


def make_trace(total: int = 6_000, seed: int = 41) -> List[TracePacket]:
    """Enterprise mix: assigned-client traffic, the Ex. 1 abuse classes,
    a small spoofed minority, and SYN-bearing TCP."""
    rng = random.Random(seed)
    blocked = udp_background(int(total * 0.06), rng, fw.BLOCKED_UDP_PORTS,
                             src_net=ASSIGNED_CLIENT_IPS[0] & 0xFFFFFF00)
    dhcp_bad: List[TracePacket] = []
    for port in fw.UNTRUSTED_INGRESS_PORTS:
        dhcp_bad.extend(
            dhcp_stream(int(total * 0.03), rng, ingress_port=port)
        )
    heavy = dns_stream(fw.HEAVY_DNS_SRC, fw.HEAVY_DNS_DST,
                       max(total // 40, 150))
    spoofed = []
    for _ in range(int(total * 0.03)):
        src = rng.choice(SPOOFED_IPS)
        spoofed.append(
            __udp(src, ip_to_int("10.0.9.1") + rng.randrange(256), rng)
        )
    legit = []
    for _ in range(int(total * 0.3)):
        src = rng.choice(ASSIGNED_CLIENT_IPS)
        legit.append(
            __udp(src, ip_to_int("10.0.9.1") + rng.randrange(256), rng)
        )
    benign = tcp_background(
        total - len(blocked) - len(dhcp_bad) - len(heavy) - len(spoofed)
        - len(legit),
        rng,
    )
    return interleave(rng, blocked, dhcp_bad, heavy, spoofed, legit, benign)


def __udp(src: int, dst: int, rng: random.Random) -> bytes:
    from repro.packets.craft import udp_packet

    return udp_packet(src, dst, rng.randrange(1024, 65535), 9000)

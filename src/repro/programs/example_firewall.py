"""Ex. 1 — the paper's running example: IP router turned stateful firewall.

Seven tables (§2.1): ``IPv4`` forwarding, ``ACL_UDP`` (drop UDP to blocked
ports), ``ACL_DHCP`` (drop DHCP from untrusted ingress ports), a two-row
Count-Min Sketch over DNS queries per (src IP, dst IP) (``Sketch_1``,
``Sketch_2``, ``Sketch_Min``), and ``DNS_Drop`` once the query count
reaches 128.

The module also ships the matching runtime configuration and a
deterministic 10k-packet trace tuned to the paper's annotated hit rates
(IPv4 100%, ACL_UDP 8%, ACL_DHCP 14%, Sketch* ≈2%, DNS_Drop ≈1%) —
including two engineered flows that make phase 3 *reject* the sketch-row
resizes exactly as §2.2 narrates.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import List, Tuple

from repro.p4 import Program
from repro.packets import headers as hdr
from repro.packets.headers import ip_to_int
from repro.programs.common import EXAMPLE_TARGET, source_program
from repro.sim.runtime import RuntimeConfig
from repro.target.model import TargetModel
from repro.traffic.generators import (
    TracePacket,
    dhcp_stream,
    dns_stream,
    find_partner_flow,
    interleave,
    ip_pair_key,
    tcp_background,
    udp_background,
)

#: DNS query threshold after which packets are dropped (Ex. 1 line 12).
DNS_QUERY_THRESHOLD = 128

#: Cells per sketch row: 960 x 32-bit = 15 SRAM blocks; with the row
#: table's 1 match block each row exactly fills a 16-block stage, so the
#: two rows cannot share one stage (§2.1: "their cumulative size exceeds
#: the memory of a single stage").
SKETCH_CELLS = 960

#: UDP destination ports the ACL blocks (no DNS/DHCP ports, so ACL_UDP and
#: the DNS branch stay disjoint as in Table 1).
BLOCKED_UDP_PORTS = (137, 138, 139, 445, 1900, 5353)

#: Untrusted ingress ports for the DHCP ACL.
UNTRUSTED_INGRESS_PORTS = (5, 6, 7)
TRUSTED_INGRESS_PORT = 1

#: The heavy DNS talker that crosses the 128-query threshold.
HEAVY_DNS_SRC = ip_to_int("10.1.2.3")
HEAVY_DNS_DST = ip_to_int("192.168.50.10")
HEAVY_DNS_COUNT = 227  # 227 queries -> 100 packets at count >= 128 (1.0%)

#: Sketch row size after phase 3's binary search: 13 register blocks
#: (832 cells) is the largest row that, with its 1-block match table,
#: slides into a stage shared with other tables (14 free blocks next to
#: the two ACLs / the FIB spill).  The engineered partner flows collide at
#: exactly this size, so phase 3 rejects the sketch resizes as the paper
#: narrates.  A regression test pins this to the allocator's answer.
REDUCED_SKETCH_CELLS = 832

TARGET: TargetModel = EXAMPLE_TARGET


def build_program() -> Program:
    """Ex. 1, parsed from ``example_firewall.p4``."""
    return source_program("example_firewall")


def runtime_config() -> RuntimeConfig:
    """The match-action rules the paper's programmer would install."""
    cfg = RuntimeConfig()
    # FIB: a handful of specific prefixes plus a default route -> 100% hit.
    cfg.add_entry("IPv4", [(ip_to_int("192.168.0.0"), 16)], "ipv4_forward", [2])
    cfg.add_entry("IPv4", [(ip_to_int("10.0.0.0"), 8)], "ipv4_forward", [3])
    cfg.add_entry("IPv4", [(ip_to_int("172.16.0.0"), 12)], "ipv4_forward", [4])
    cfg.add_entry("IPv4", [(ip_to_int("255.255.255.255"), 32)],
                  "ipv4_forward", [5])
    cfg.add_entry("IPv4", [(0, 0)], "ipv4_forward", [1])  # default route
    for port in BLOCKED_UDP_PORTS:
        cfg.add_entry("ACL_UDP", [port], "acl_udp_drop")
    for port in UNTRUSTED_INGRESS_PORTS:
        cfg.add_entry("ACL_DHCP", [port], "acl_dhcp_drop")
    # Sketch row/min/drop tables fire on DNS traffic.
    cfg.add_entry("Sketch_1", [hdr.UDP_PORT_DNS], "dns_cms_update0")
    cfg.add_entry("Sketch_2", [hdr.UDP_PORT_DNS], "dns_cms_update1")
    cfg.add_entry("Sketch_Min", [hdr.UDP_PORT_DNS], "dns_cms_min_action")
    cfg.add_entry("DNS_Drop", [hdr.UDP_PORT_DNS], "dns_drop")
    return cfg


@lru_cache(maxsize=None)
def partner_flows() -> Tuple[int, int]:
    """Source IPs of the two engineered DNS flows (see §2.2 phase 3).

    Flow A shares the heavy talker's *row 0* cell once row 0 shrinks to
    :data:`REDUCED_SKETCH_CELLS` (and its row-1 cell at full size), so
    resizing ``Sketch_1`` inflates A's min-estimate past the threshold and
    perturbs ``DNS_Drop``'s hit rate.  Flow B mirrors this for row 1 /
    ``Sketch_2``.  Deterministic: depends only on the hash family and the
    constants above.
    """
    heavy = ip_pair_key(HEAVY_DNS_SRC, HEAVY_DNS_DST)
    flow_a = find_partner_flow(
        heavy_key=heavy,
        collide_algo="crc32_a",
        collide_size=REDUCED_SKETCH_CELLS,
        collide_full_size=SKETCH_CELLS,
        other_algo="crc32_b",
        other_size=SKETCH_CELLS,
        dst=HEAVY_DNS_DST,
        src_start=ip_to_int("10.200.0.1"),
    )
    flow_b = find_partner_flow(
        heavy_key=heavy,
        collide_algo="crc32_b",
        collide_size=REDUCED_SKETCH_CELLS,
        collide_full_size=SKETCH_CELLS,
        other_algo="crc32_a",
        other_size=SKETCH_CELLS,
        dst=HEAVY_DNS_DST,
        src_start=ip_to_int("10.210.0.1"),
    )
    return (flow_a, flow_b)


def make_trace(
    total: int = 10_000, seed: int = 1, with_partner_flows: bool = True
) -> List[TracePacket]:
    """Deterministic enterprise-style trace matching Ex. 1's annotations.

    Composition (of ``total``, defaults tuned for 10k):

    * 8% UDP to blocked ports (ACL_UDP hits),
    * 14% DHCP from untrusted ingress ports (ACL_DHCP hits) + 1% trusted,
    * ~2.3% DNS: one heavy (src, dst) pair crossing the 128-query
      threshold (≈1% of packets see count >= 128) plus light lookups,
    * remainder benign TCP/UDP (IPv4 hit only).

    The two partner flows ride at the very end so their queries observe
    the heavy flow's saturated counters.
    """
    rng = random.Random(seed)
    blocked = udp_background(int(total * 0.08), rng, BLOCKED_UDP_PORTS)
    dhcp_bad: List[TracePacket] = []
    per_port = int(total * 0.14) // len(UNTRUSTED_INGRESS_PORTS)
    for port in UNTRUSTED_INGRESS_PORTS:
        dhcp_bad.extend(dhcp_stream(per_port, rng, ingress_port=port))
    # Round up to exactly 14%.
    shortfall = int(total * 0.14) - len(dhcp_bad)
    if shortfall > 0:
        dhcp_bad.extend(
            dhcp_stream(shortfall, rng,
                        ingress_port=UNTRUSTED_INGRESS_PORTS[0])
        )
    dhcp_good = dhcp_stream(
        int(total * 0.01), rng, ingress_port=TRUSTED_INGRESS_PORT
    )

    heavy_count = min(HEAVY_DNS_COUNT, max(total // 44, 150))
    dns_heavy = dns_stream(HEAVY_DNS_SRC, HEAVY_DNS_DST, heavy_count)
    dns_light: List[bytes] = []
    for i in range(8):
        src = ip_to_int("10.50.0.1") + i
        dst = ip_to_int("192.168.60.1") + i
        dns_light.extend(dns_stream(src, dst, 1, query_id_base=1000 + i))

    used = (
        len(blocked)
        + len(dhcp_bad)
        + len(dhcp_good)
        + len(dns_heavy)
        + len(dns_light)
    )
    tail: List[TracePacket] = []
    if with_partner_flows:
        flow_a, flow_b = partner_flows()
        tail.extend(dns_stream(flow_a, HEAVY_DNS_DST, 2, query_id_base=2000))
        tail.extend(dns_stream(flow_b, HEAVY_DNS_DST, 2, query_id_base=3000))
    benign_count = max(total - used - len(tail), 0)
    benign = tcp_background(benign_count // 2, rng) + udp_background(
        benign_count - benign_count // 2, rng, dst_ports=(4000, 5000, 6000)
    )
    body = interleave(
        rng, blocked, dhcp_bad, dhcp_good, dns_heavy, dns_light, benign
    )
    return body + tail

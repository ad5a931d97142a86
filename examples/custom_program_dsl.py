#!/usr/bin/env python3
"""Bring your own program: write P4 DSL, craft a pcap, optimize it.

This example exercises the full user-facing surface on a program that is
*not* one of the paper's: a small edge router with a rate-limit feature
that the site's traffic never exercises together with its VPN feature.

Steps:
1. author the program as textual DSL and parse it,
2. craft a traffic trace and round-trip it through a pcap file,
3. run P2GO and watch it discover that the two features' dependency never
   manifests.

Run:
    python examples/custom_program_dsl.py
"""

import tempfile
from pathlib import Path

from repro import P2GO, RuntimeConfig
from repro.core.report import render_decision, stage_table
from repro.p4.dsl import parse_program
from repro.packets import read_packet_bytes, write_pcap
from repro.packets.craft import plain_ipv4_packet, udp_packet
from repro.packets.headers import ip_to_int
from repro.target import TargetModel

SOURCE = """
// A small edge router: VPN termination + per-subnet rate marking.

header_type ethernet_t {
    fields { dstAddr : 48; srcAddr : 48; etherType : 16; }
}
header_type ipv4_t {
    fields {
        version : 4; ihl : 4; dscp : 8; totalLen : 16;
        identification : 16; flags : 3; fragOffset : 13;
        ttl : 8; protocol : 8; hdrChecksum : 16;
        srcAddr : 32; dstAddr : 32;
    }
}
header ethernet_t ethernet;
header ipv4_t ipv4;

action vpn_terminate(inner) { modify_field(ipv4.dstAddr, inner); }
action mark(dscp_value) { modify_field(ipv4.dscp, dscp_value); }
action fwd(port) { set_egress_port(port); }

table vpn {
    reads { ipv4.dstAddr : exact; }
    actions { vpn_terminate; }
    size : 16;
}
table rate_mark {
    reads { ipv4.dstAddr : lpm; }
    actions { mark; }
    size : 16;
}
table fib {
    reads { ipv4.dstAddr : lpm; }
    actions { fwd; }
    size : 32;
}

parser start {
    extract(ethernet);
    return select(ethernet.etherType) { 0x800 : parse_ipv4; default : accept; }
}
parser parse_ipv4 { extract(ipv4); return accept; }

control ingress {
    if (valid(ipv4)) { apply(vpn); }
    if (valid(ipv4)) { apply(rate_mark); }
    if (valid(ipv4)) { apply(fib); }
}
"""


def main() -> None:
    # 1. Parse the DSL.
    program = parse_program(SOURCE, "edge_router")
    print(f"parsed {program.name!r}: tables = "
          f"{program.tables_in_control_order()}")

    # 2. Runtime rules: the VPN endpoint and the rate-marked subnet are
    #    disjoint address ranges, so no packet is both terminated and
    #    marked — but the compiler cannot know that.
    config = RuntimeConfig()
    config.add_entry("vpn", [ip_to_int("198.51.100.1")],
                     "vpn_terminate", [ip_to_int("10.7.0.1")])
    config.add_entry("rate_mark", [(ip_to_int("10.9.0.0"), 16)],
                     "mark", [46])
    config.add_entry("fib", [(ip_to_int("10.0.0.0"), 8)], "fwd", [2])
    config.add_entry("fib", [(0, 0)], "fwd", [1])

    # 3. Craft traffic and round-trip it through a pcap.
    packets = []
    for i in range(300):
        packets.append(
            udp_packet(ip_to_int("192.0.2.1") + i, "198.51.100.1",
                       4000 + i, 4789)
        )  # VPN-bound
    for i in range(300):
        packets.append(
            udp_packet(ip_to_int("10.1.0.1") + i,
                       ip_to_int("10.9.4.0") + i, 5000, 443)
        )  # rate-marked subnet
    for i in range(400):
        packets.append(
            plain_ipv4_packet(ip_to_int("10.2.0.1") + i, "10.3.0.9")
        )

    with tempfile.TemporaryDirectory() as tmp:
        pcap_path = Path(tmp) / "edge.pcap"
        write_pcap(pcap_path, packets)
        trace = read_packet_bytes(pcap_path)
        print(f"trace: {len(trace)} packets via {pcap_path.name}")

        # 4. Optimize on a deliberately tight target.
        target = TargetModel(
            name="edge-asic",
            num_stages=6,
            sram_blocks_per_stage=8,
            tcam_blocks_per_stage=4,
            sram_block_bytes=256,
            tcam_block_bytes=64,
            max_tables_per_stage=4,
        )
        result = P2GO(program, config, trace, target).run()

    print()
    print(stage_table(result))
    print()
    for decision in result.applied:
        print(render_decision(decision))


if __name__ == "__main__":
    main()

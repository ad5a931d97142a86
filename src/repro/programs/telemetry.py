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

from repro.p4 import (
    AddToField,
    Apply,
    BinOp,
    Const,
    FieldRef,
    HashFields,
    If,
    LAnd,
    LNot,
    ModifyField,
    ParamRef,
    Program,
    ProgramBuilder,
    RegisterRead,
    RegisterSize,
    RegisterWrite,
    Seq,
    SetEgressPort,
    ValidExpr,
)
from repro.packets import headers as hdr
from repro.packets.craft import dns_query, plain_ipv4_packet, tcp_packet
from repro.packets.headers import ip_to_int
from repro.programs.common import (
    EXAMPLE_TARGET,
    add_ethernet_ipv4_parser,
    register_standard_headers,
)
from repro.sim.runtime import RuntimeConfig
from repro.target.model import TargetModel
from repro.traffic.generators import TracePacket, tcp_background

TARGET: TargetModel = EXAMPLE_TARGET

#: Full-stage register arrays (15 blocks + the keyless table's slot).
FEATURE_CELLS = 960


def _counter_feature(b: ProgramBuilder, name: str, key_fields, algo: str):
    """A one-table counting feature: hash key -> bump a register cell."""
    meta = f"{name}_meta"
    b.metadata(meta, [("idx", 32), ("count", 32)])
    register = f"{name}_reg"
    b.register(register, width=32, size=FEATURE_CELLS)
    idx = FieldRef(meta, "idx")
    count = FieldRef(meta, "count")
    b.action(
        f"{name}_bump",
        [
            HashFields(idx, algo, tuple(key_fields), RegisterSize(register)),
            RegisterRead(count, register, idx),
            AddToField(count, Const(1)),
            RegisterWrite(register, idx, count),
        ],
    )
    b.table(name, keys=[], actions=[], default_action=f"{name}_bump")


def build_program() -> Program:
    b = ProgramBuilder("telemetry")
    register_standard_headers(b, ["ethernet", "ipv4", "udp", "tcp", "dns"])
    add_ethernet_ipv4_parser(b, l4=("udp", "tcp"), udp_apps=("dns",))

    b.action("fwd", [SetEgressPort(ParamRef("port"))], parameters=["port"])
    b.action(
        "l2_rewrite",
        [ModifyField(FieldRef("ethernet", "srcAddr"), ParamRef("smac"))],
        parameters=["smac"],
    )
    b.table(
        "ipv4_fib",
        keys=[("ipv4.dstAddr", "lpm")],
        actions=["fwd"],
        size=192,
    )
    b.table(
        "l2",
        keys=[("standard_metadata.egress_port", "exact")],
        actions=["l2_rewrite"],
        size=32,
    )

    _counter_feature(
        b, "dns_hh",
        (FieldRef("ipv4", "srcAddr"), FieldRef("ipv4", "dstAddr")),
        "crc32_a",
    )
    _counter_feature(
        b, "ttl_probe", (FieldRef("ipv4", "srcAddr"),), "crc32_b"
    )
    _counter_feature(
        b, "syn_mon", (FieldRef("ipv4", "dstAddr"),), "crc32_c"
    )

    b.ingress(
        Seq(
            [
                If(ValidExpr("ipv4"), Seq([Apply("ipv4_fib"), Apply("l2")])),
                If(ValidExpr("dns"), Apply("dns_hh")),
                # Traceroute probes are ICMP/raw-IP; excluding UDP makes
                # the guard provably exclusive with the DNS feature.
                If(
                    LAnd(
                        LNot(ValidExpr("udp")),
                        BinOp("==", FieldRef("ipv4", "ttl"), Const(1)),
                    ),
                    Apply("ttl_probe"),
                ),
                If(
                    BinOp(
                        "==",
                        BinOp("&", FieldRef("tcp", "flags"),
                              Const(hdr.TCP_FLAG_SYN)),
                        Const(hdr.TCP_FLAG_SYN),
                    ),
                    Apply("syn_mon"),
                ),
            ]
        )
    )
    return b.build()


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

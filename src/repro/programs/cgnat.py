"""Carrier-grade NAT — a fuzz-corpus program promoted to an example.

Subscriber traffic arriving on inside ports is source-translated to a
public address drawn from the carrier pool (the SNAT action also counts
translations per subscriber in a register array); return traffic on the
outside port is destination-translated back.  Direction is decided in
the control flow from ``standard_metadata.ingress_port``, so the two
NAT tables are never applied to the same packet — exactly the
trace-invisible exclusivity phase 2 exists to discover (the compiler
still serializes them: both write IPv4 addresses the FIB reads).
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.p4 import Program
from repro.packets.craft import udp_packet
from repro.packets.headers import ip_to_int
from repro.programs.common import EXAMPLE_TARGET, source_program
from repro.sim.runtime import RuntimeConfig
from repro.target.model import TargetModel

TARGET: TargetModel = EXAMPLE_TARGET

#: The uplink port used when no more specific route matches.
UPLINK_PORT = 9

#: subscriber private IP -> (inside ingress port, public pool address).
SUBSCRIBERS: Dict[str, Tuple[int, str]] = {
    "100.64.1.10": (0, "192.0.2.1"),
    "100.64.1.11": (1, "192.0.2.2"),
    "100.64.2.10": (2, "192.0.2.3"),
    "100.64.2.11": (3, "192.0.2.4"),
}


def build_program() -> Program:
    """The carrier-grade NAT, parsed from ``cgnat.p4``."""
    return source_program("cgnat")


def runtime_config() -> RuntimeConfig:
    cfg = RuntimeConfig()
    for private, (port, public) in SUBSCRIBERS.items():
        cfg.add_entry(
            "nat_inside",
            [port, ip_to_int(private)],
            "cg_snat",
            [ip_to_int(public)],
        )
        cfg.add_entry(
            "nat_outside",
            [ip_to_int(public)],
            "cg_dnat",
            [ip_to_int(private)],
        )
    # Translated-back subscriber space routes to the inside ports.
    cfg.add_entry("ipv4_fib", [(ip_to_int("100.64.0.0"), 10)], "fwd", [0])
    cfg.add_entry("ipv4_fib", [(0, 0)], "fwd", [UPLINK_PORT])
    return cfg


def make_trace(total: int = 4_000, seed: int = 19) -> List[Tuple[bytes, int]]:
    """Subscriber uploads on inside ports and their return traffic.

    Every packet carries its ingress port: uploads enter on the
    subscriber's own port, returns on the uplink.
    """
    rng = random.Random(seed)
    packets: List[Tuple[bytes, int]] = []
    subscribers = sorted(SUBSCRIBERS)
    internet = ip_to_int("93.184.216.0")
    for _ in range(int(total * 0.6)):
        private = rng.choice(subscribers)
        port, _public = SUBSCRIBERS[private]
        dst = internet + rng.randrange(1, 1 << 8)
        packets.append(
            (udp_packet(ip_to_int(private), dst,
                        rng.randrange(1024, 65535), 443), port)
        )
    while len(packets) < total:
        private = rng.choice(subscribers)
        _port, public = SUBSCRIBERS[private]
        src = internet + rng.randrange(1, 1 << 8)
        packets.append(
            (udp_packet(src, ip_to_int(public),
                        443, rng.randrange(1024, 65535)), UPLINK_PORT)
        )
    rng.shuffle(packets)
    return packets

"""Layer-4 load balancer — a fuzz-corpus program promoted to an example.

A VIP table admits traffic aimed at a virtual service address; its hit
action hashes the 5-tuple into a bucket (counting connections per bucket
in a register array) and a backend table rewrites the destination to the
bucket's real server.  Non-VIP traffic skips the balancer entirely, so
the VIP miss path and the plain FIB path dominate the profile — the
shape that lets phase 2 drop the balancer's compiler-assumed
dependencies when a deployment's trace never exercises a VIP.
"""

from __future__ import annotations

import random
from typing import List

from repro.p4 import Program
from repro.packets.craft import tcp_packet, udp_packet
from repro.packets.headers import ip_to_int
from repro.programs.common import EXAMPLE_TARGET, source_program
from repro.sim.runtime import RuntimeConfig
from repro.target.model import TargetModel

TARGET: TargetModel = EXAMPLE_TARGET

#: Virtual service addresses the balancer owns.
VIPS = ("198.18.0.10", "198.18.0.20")

#: Real servers behind the VIPs, rotated across hash buckets.
BACKENDS = ("10.20.0.1", "10.20.0.2", "10.20.0.3", "10.20.0.4")

#: Hash buckets (and cells in the per-bucket connection counter).
BUCKETS = 16


def build_program() -> Program:
    """The load balancer, parsed from ``load_balancer.p4``."""
    return source_program("load_balancer")


def runtime_config() -> RuntimeConfig:
    cfg = RuntimeConfig()
    for vip in VIPS:
        cfg.add_entry("vip", [ip_to_int(vip)], "lb_pick_bucket")
    for bucket in range(BUCKETS):
        backend = BACKENDS[bucket % len(BACKENDS)]
        cfg.add_entry(
            "lb_backend",
            [bucket],
            "lb_to_backend",
            [ip_to_int(backend), 2 + bucket % len(BACKENDS)],
        )
    cfg.add_entry("ipv4_fib", [(ip_to_int("10.20.0.0"), 16)], "fwd", [2])
    cfg.add_entry("ipv4_fib", [(ip_to_int("172.16.0.0"), 12)], "fwd", [3])
    cfg.add_entry("ipv4_fib", [(0, 0)], "fwd", [1])
    return cfg


def make_trace(total: int = 4_000, seed: int = 13) -> List[bytes]:
    """Client flows to the VIPs plus transit traffic that skips them."""
    rng = random.Random(seed)
    packets: List[bytes] = []
    vip_ints = tuple(ip_to_int(v) for v in VIPS)
    for _ in range(int(total * 0.70)):
        src = ip_to_int("192.0.2.0") + rng.randrange(1, 1 << 10)
        packets.append(
            udp_packet(src, rng.choice(vip_ints),
                       rng.randrange(1024, 65535), 443)
        )
    while len(packets) < total:
        src = ip_to_int("192.0.2.0") + rng.randrange(1, 1 << 10)
        dst = ip_to_int("172.16.0.0") + rng.randrange(1, 1 << 12)
        packets.append(
            tcp_packet(src, dst, rng.randrange(1024, 65535), 80,
                       seq=rng.randrange(1 << 32))
        )
    rng.shuffle(packets)
    return packets

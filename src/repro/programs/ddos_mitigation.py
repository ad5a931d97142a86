"""SYN-flood DDoS mitigation — a fuzz-corpus program promoted to an
example.

A two-row Count-Min Sketch counts TCP SYNs per source address; once a
source's estimate crosses :data:`SYN_THRESHOLD`, a two-hash Bloom
allowlist (preloaded with known-good heavy talkers — scanners, load
testers) gets the final say: sources absent from it are dropped.  Unlike
the enterprise firewall's DNS sketch, the punish path here sits *behind*
the sketch threshold, so on a benign trace the allowlist tables are
applied to only a sliver of packets — the skew phase 2/3 feed on.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.p4 import Program
from repro.packets import headers as hdr
from repro.packets.craft import tcp_packet, udp_packet
from repro.packets.headers import ip_to_int
from repro.programs.common import EXAMPLE_TARGET, source_program
from repro.sim.runtime import RuntimeConfig
from repro.sketches.dataplane import BloomFragment, preload_bloom_filter
from repro.target.model import TargetModel

TARGET: TargetModel = EXAMPLE_TARGET

#: SYN estimate at which a source becomes suspect.
SYN_THRESHOLD = 64

#: Cells per sketch row (512 x 32-bit = 8 SRAM blocks).
SKETCH_CELLS = 512

#: Cells per allowlist Bloom array (1024 x 8-bit = 4 SRAM blocks).
BLOOM_CELLS = 1024

#: Known-good heavy talkers (monitoring probes, load testers).
ALLOWLISTED_SOURCES = tuple(
    ip_to_int("203.0.113.0") + i for i in range(1, 9)
)

#: The attack sources in the bundled trace.
ATTACK_SOURCES = tuple(ip_to_int("100.64.7.0") + i for i in range(1, 5))


def _bloom_key(src_ip: int) -> Tuple[Tuple[int, int], ...]:
    return ((src_ip, 32),)


def build_program() -> Program:
    """The SYN-flood mitigation, parsed from ``ddos_mitigation.p4``."""
    return source_program("ddos_mitigation")


def allow_fragment_of() -> BloomFragment:
    """Fragment handle for the allowlist (for controller-side preloads)."""
    from repro.p4.expressions import FieldRef

    return BloomFragment(
        name="allow",
        check_tables=("allow_bf1", "allow_bf2"),
        registers=("allow_array0", "allow_array1"),
        bit_fields=(
            FieldRef("allow_meta", "bit0"),
            FieldRef("allow_meta", "bit1"),
        ),
        algorithms=("crc32_a", "crc32_b"),
        key_fields=(FieldRef("ipv4", "srcAddr"),),
    )


def runtime_config() -> RuntimeConfig:
    cfg = RuntimeConfig()
    cfg.add_entry("ipv4_fib", [(ip_to_int("10.30.0.0"), 16)], "fwd", [2])
    cfg.add_entry("ipv4_fib", [(0, 0)], "fwd", [1])
    # The sketch rows count SYNs only.
    cfg.add_entry("Syn_1", [hdr.TCP_FLAG_SYN], "syn_cms_update0")
    cfg.add_entry("Syn_2", [hdr.TCP_FLAG_SYN], "syn_cms_update1")
    cfg.add_entry("Syn_Min", [hdr.TCP_FLAG_SYN], "syn_cms_min_action")
    cfg.add_entry("ddos_verdict", [0, 0], "ddos_drop")
    cfg.add_entry("ddos_verdict", [0, 1], "ddos_drop")
    cfg.add_entry("ddos_verdict", [1, 0], "ddos_drop")
    preload_bloom_filter(
        cfg,
        allow_fragment_of(),
        [_bloom_key(ip) for ip in ALLOWLISTED_SOURCES],
    )
    return cfg


def make_trace(total: int = 4_000, seed: int = 17) -> List[bytes]:
    """Benign traffic, one allowlisted heavy talker, and a SYN flood.

    The flood sources and the allowlisted talker all cross
    :data:`SYN_THRESHOLD`; only the flood is dropped.
    """
    rng = random.Random(seed)
    packets: List[bytes] = []
    flood_share = int(total * 0.10)
    talker_share = int(total * 0.04)
    target = ip_to_int("10.30.0.80")
    for _ in range(flood_share):
        src = rng.choice(ATTACK_SOURCES)
        packets.append(
            tcp_packet(src, target, rng.randrange(1024, 65535), 443,
                       seq=rng.randrange(1 << 32),
                       flags=hdr.TCP_FLAG_SYN)
        )
    talker = ALLOWLISTED_SOURCES[0]
    for _ in range(talker_share):
        packets.append(
            tcp_packet(talker, target, rng.randrange(1024, 65535), 80,
                       seq=rng.randrange(1 << 32),
                       flags=hdr.TCP_FLAG_SYN)
        )
    while len(packets) < total:
        src = ip_to_int("192.0.2.0") + rng.randrange(1, 1 << 10)
        dst = ip_to_int("10.30.0.0") + rng.randrange(1, 1 << 8)
        if rng.random() < 0.8:
            packets.append(
                tcp_packet(src, dst, rng.randrange(1024, 65535), 80,
                           seq=rng.randrange(1 << 32))
            )
        else:
            packets.append(
                udp_packet(src, dst, rng.randrange(1024, 65535), 5000)
            )
    rng.shuffle(packets)
    return packets

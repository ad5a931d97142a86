"""Failure Detection (Blink-inspired) — the code-offload scenario (§4).

The switch detects link failures in the data plane: a Bloom filter flags
TCP retransmissions (same src/dst/seq seen twice), a two-row Count-Min
Sketch counts retransmissions per destination /16 prefix, and
``FailureAlarm`` notifies the controller once a monitored prefix crosses a
threshold.

Profiling shows only retransmitted packets use the CMS and the alarm fires
as rarely as remote failures happen, so phase 4 offloads the CMS + alarm
segment to the controller, freeing two stages: 4 → 2 (Table 3, row 3).
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
from repro.packets.craft import tcp_packet

TARGET: TargetModel = EXAMPLE_TARGET

#: The /16 prefix that fails during the trace.
FAILING_PREFIX = ip_to_int("192.168.0.0")

#: Controller-notification reason code used by FailureAlarm.
ALARM_REASON = 0xFA


def build_program() -> Program:
    """The failure detector, parsed from ``failure_detection.p4``."""
    return source_program("failure_detection")


def runtime_config() -> RuntimeConfig:
    cfg = RuntimeConfig()
    # Monitor the prefixes we care about (alarm only fires for these).
    cfg.add_entry("FailureAlarm", [FAILING_PREFIX], "raise_alarm")
    cfg.add_entry("FailureAlarm", [ip_to_int("10.20.0.0")], "raise_alarm")
    return cfg


def make_trace(total: int = 4_000, seed: int = 23) -> List[TracePacket]:
    """Normal TCP plus a burst of retransmissions toward a failing prefix.

    ~3% of packets are retransmissions (re-sent seq numbers); most target
    the failing /16 so the per-prefix count crosses the alarm threshold.
    """
    rng = random.Random(seed)
    retrans_count = int(total * 0.03)
    body: List[bytes] = list(
        tcp_background(total - 2 * retrans_count, rng)
    )
    rng.shuffle(body)

    # Each retransmission is the identical segment re-sent shortly after
    # its original (same src/dst/seq), before unrelated traffic can evict
    # the stored signature.
    for i in range(retrans_count):
        src = ip_to_int("10.3.0.1") + rng.randrange(1 << 8)
        if i % 10 < 3:
            # The failing prefix concentrates enough losses to alarm...
            dst = FAILING_PREFIX + rng.randrange(1 << 16)
        else:
            # ...while sporadic losses are spread thin and stay silent.
            dst = (rng.randrange(1, 200) << 24) | rng.randrange(1 << 16)
        seq = rng.randrange(1 << 32)
        pkt = tcp_packet(src, dst, 40000 + (i % 1000), 443, seq=seq)
        pos = rng.randrange(len(body)) if body else 0
        gap = rng.randrange(1, 5)
        body.insert(pos, pkt)
        body.insert(min(pos + gap, len(body)), pkt)
    return body

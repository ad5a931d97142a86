"""Continuous optimization as a long-running service (§6's endgame).

The paper's dynamic-compilation vision stops at "online profiling ...
enables real-time adaptation of programs".  This module closes that
loop as a daemon:

* **Ingest** — a background thread pulls packets from a pluggable
  :class:`FeedSource` (pcap/trace replay, the seeded drift-scenario
  generator, newline-framed hex lines from a file, or a TCP socket) and
  forwards every packet through *two* switches in lockstep: the
  **serving** switch (the currently promoted optimized program) and the
  **monitor** (an :class:`~repro.core.online.OnlineProfiler` running the
  *original* program — the semantic reference — and reading its step
  log).  A forwarding-decision disagreement between the two is a
  *misprocessed* packet; the counter must stay at zero.
* **React** — a drift alert from the monitor triggers a warm
  :meth:`~repro.core.online.OnlineProfiler.reoptimize` over the recent
  packet window, through the shared
  :class:`~repro.core.session.OptimizationContext` (and its persistent
  store, when attached).  With ``workers >= 1`` the re-run happens in a
  worker thread while traffic keeps flowing against the current
  program; ``workers == 0`` re-optimizes inline in the ingest loop
  (deterministic counts — what the CI gate pins).
* **Promote** — the re-optimized program is promoted only if the strict
  equivalence checker (:func:`~repro.controller.equivalence.
  compare_behavior`) passes on a trace of the most recent window;
  otherwise the promotion is *rejected* and the current program keeps
  serving.  Because the strict gate compares forwarding decisions
  bit-for-bit, the serve loop defaults to ``phases=(2, 3)`` — a phase-4
  offload intentionally changes ``to_controller`` for redirected
  packets and would (correctly) never pass this gate.  That is the swap
  contract: only transformations invisible to the data plane are
  promotable while packets are in flight.
* **Swap** — promotion is an atomic swap under the packet lock: the new
  serving switch *and* a fresh monitor are built off to the side first
  (switch construction, baseline profile, window reset), so the lock is
  held only for the pointer flip.  The new monitor's
  baseline is the original program's profile on the reoptimize window —
  a session memo hit — so post-swap alerts compare live traffic against
  the *new* optimization-time observations, not the stale ones.

No packet is dropped or stalled by a swap: the ingest loop processes
each packet against whichever (serving, monitor) pair is installed when
it acquires the lock, and both members of the pair always flip
together, so their register state stays in lockstep.
"""

from __future__ import annotations

import socket as socket_module
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from collections import deque
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.controller.equivalence import compare_behavior
from repro.core.online import AlertKind, OnlineAlert, OnlineProfiler
from repro.core.pipeline import P2GO, P2GOResult
from repro.core.session import OptimizationContext, SessionCounters
from repro.core.store import resolve_store
from repro.exceptions import ReproError
from repro.p4.program import Program
from repro.sim.runtime import RuntimeConfig
from repro.sim.switch import BehavioralSwitch
from repro.target.model import DEFAULT_TARGET, TargetModel
from repro.traffic.generators import TracePacket

Log = Callable[[str], None]


# ----------------------------------------------------------------------
# Feed sources


def format_packet_line(packet: TracePacket) -> str:
    """One packet as a feed line: ``<hex bytes> [ingress_port]``."""
    if isinstance(packet, tuple):
        data, port = packet
    else:
        data, port = packet, 0
    return data.hex() if port == 0 else f"{data.hex()} {port}"


def parse_packet_line(line: str) -> Optional[TracePacket]:
    """Parse one feed line; None for blanks and ``#`` comments.

    An ingress port outside ``[0, 2**32)`` — the range a trace
    fingerprint encodes — is a :class:`ValueError`, like malformed hex.
    """
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    parts = line.split()
    data = bytes.fromhex(parts[0])
    port = int(parts[1]) if len(parts) > 1 else 0
    if not 0 <= port < 2**32:
        raise ValueError(f"ingress port {port} is outside [0, 2**32)")
    return (data, port) if port else data


class FeedSource:
    """Where the daemon's packets come from.

    Implementations yield :data:`~repro.traffic.generators.TracePacket`
    items (bytes, or ``(bytes, ingress_port)``) and may block — the
    daemon consumes them on a dedicated ingest thread.
    """

    def packets(self) -> Iterator[TracePacket]:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class TraceFeed(FeedSource):
    """Replay a recorded trace, optionally several times over."""

    def __init__(self, trace: Sequence[TracePacket], repeat: int = 1):
        if repeat < 1:
            raise ValueError("repeat must be >= 1")
        self.trace = list(trace)
        self.repeat = repeat

    def packets(self) -> Iterator[TracePacket]:
        for _ in range(self.repeat):
            yield from self.trace

    def describe(self) -> str:
        return (
            f"trace replay ({len(self.trace)} packets x {self.repeat})"
        )


class GeneratorFeed(FeedSource):
    """Scripted traffic: named segments played back to back.

    The drift scenarios the service exists for are staged traffic-mix
    shifts; a segment list makes the script explicit and reportable.
    """

    def __init__(
        self, segments: Sequence[Tuple[str, Sequence[TracePacket]]]
    ):
        self.segments = [
            (label, list(packets)) for label, packets in segments
        ]

    def packets(self) -> Iterator[TracePacket]:
        for _label, packets in self.segments:
            yield from packets

    def describe(self) -> str:
        parts = ", ".join(
            f"{label}:{len(packets)}" for label, packets in self.segments
        )
        return f"generator ({parts})"

    @classmethod
    def firewall_drift(
        cls,
        total: int = 3000,
        seed: int = 0,
        shift_at: float = 0.5,
        flood_share: float = 0.5,
    ) -> "GeneratorFeed":
        """The canonical drift scenario for the built-in firewall.

        A *steady* segment mirrors the optimization-time trace's mix
        (8% blocked UDP, 14% bad DHCP, ~3% DNS, rest benign), then the
        mix *shifts*: a previously unseen talker floods DNS at
        ``flood_share`` of the traffic, dragging the sketch tables'
        windowed hit rates far past any sane tolerance.  Deterministic
        in ``(total, seed, shift_at, flood_share)``.
        """
        import random

        from repro.packets.headers import ip_to_int
        from repro.programs.example_firewall import (
            BLOCKED_UDP_PORTS,
            HEAVY_DNS_DST,
            HEAVY_DNS_SRC,
            UNTRUSTED_INGRESS_PORTS,
        )
        from repro.traffic.generators import (
            dhcp_stream,
            dns_stream,
            interleave,
            tcp_background,
            udp_background,
        )

        if not 0.0 < shift_at < 1.0:
            raise ValueError("shift_at must be in (0, 1)")
        rng = random.Random(seed)
        steady_n = int(total * shift_at)
        flood_n = total - steady_n

        blocked = udp_background(
            int(steady_n * 0.08), rng, BLOCKED_UDP_PORTS
        )
        dhcp_bad = dhcp_stream(
            int(steady_n * 0.14), rng,
            ingress_port=UNTRUSTED_INGRESS_PORTS[0],
        )
        dns = dns_stream(
            HEAVY_DNS_SRC, HEAVY_DNS_DST, max(int(steady_n * 0.03), 1)
        )
        benign_n = steady_n - len(blocked) - len(dhcp_bad) - len(dns)
        steady = interleave(
            rng, blocked, dhcp_bad, dns, tcp_background(benign_n, rng)
        )

        flood_src = ip_to_int("10.66.66.66")
        flood_dst = ip_to_int("192.168.99.99")
        flood_dns = dns_stream(
            flood_src, flood_dst, int(flood_n * flood_share),
            query_id_base=5000,
        )
        flood = interleave(
            rng, flood_dns, tcp_background(flood_n - len(flood_dns), rng)
        )
        return cls([("steady", steady), ("flood", flood)])


class LineFeed(FeedSource):
    """Newline-framed hex packets from a path or a file-like object.

    Line format (see :func:`format_packet_line`)::

        <hex packet bytes> [ingress_port]

    Blank lines and ``#`` comments are skipped.  With a file-like
    source (e.g. ``sys.stdin``) the feed blocks on the next line, which
    is exactly what a piped live feed wants.
    """

    def __init__(self, source):
        self.source = source

    def packets(self) -> Iterator[TracePacket]:
        if isinstance(self.source, (str, Path)):
            with open(self.source, "r") as handle:
                yield from self._parse_lines(handle)
        else:
            yield from self._parse_lines(self.source)

    @staticmethod
    def _parse_lines(lines: Iterable[str]) -> Iterator[TracePacket]:
        for line in lines:
            packet = parse_packet_line(line)
            if packet is not None:
                yield packet

    def describe(self) -> str:
        if isinstance(self.source, (str, Path)):
            return f"line feed ({self.source})"
        return "line feed (stream)"


class SocketFeed(FeedSource):
    """The :class:`LineFeed` wire format over one TCP connection.

    The listening socket is bound eagerly (so :attr:`address` is known
    — port 0 picks a free one) and :meth:`packets` accepts a single
    client, then streams its lines until EOF.  ``accept_timeout``
    bounds how long the feed waits for that client; past it the feed
    simply ends, so a ``--duration``-bounded daemon never wedges on an
    idle socket.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        accept_timeout: Optional[float] = 30.0,
    ):
        self._server = socket_module.socket(
            socket_module.AF_INET, socket_module.SOCK_STREAM
        )
        self._server.setsockopt(
            socket_module.SOL_SOCKET, socket_module.SO_REUSEADDR, 1
        )
        self._server.bind((host, port))
        self._server.listen(1)
        self.accept_timeout = accept_timeout

    @property
    def address(self) -> Tuple[str, int]:
        return self._server.getsockname()[:2]

    def packets(self) -> Iterator[TracePacket]:
        self._server.settimeout(self.accept_timeout)
        try:
            try:
                conn, _peer = self._server.accept()
            except socket_module.timeout:
                return
            with conn, conn.makefile("r") as lines:
                yield from LineFeed._parse_lines(lines)
        finally:
            self.close()

    def close(self) -> None:
        try:
            self._server.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def describe(self) -> str:
        host, port = self.address
        return f"socket feed ({host}:{port})"


# ----------------------------------------------------------------------
# Stats


@dataclass
class SwapEvent:
    """One completed drift -> reoptimize -> gate cycle."""

    #: Packets processed when the cycle's decision landed.
    packet_index: int
    #: Whether the gate passed and the program was swapped in.
    promoted: bool
    #: Wall time of the warm re-optimization run.
    reoptimize_seconds: float
    #: Build-new-switches + pointer-flip time (0.0 when rejected).
    swap_seconds: float
    #: Packets the equivalence gate replayed / how many disagreed.
    gate_packets: int
    gate_mismatches: int
    #: Stage count of the candidate program (before -> after).
    stages_before: int
    stages_after: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "packet_index": self.packet_index,
            "promoted": self.promoted,
            "reoptimize_seconds": round(self.reoptimize_seconds, 4),
            "swap_seconds": round(self.swap_seconds, 6),
            "gate_packets": self.gate_packets,
            "gate_mismatches": self.gate_mismatches,
            "stages_before": self.stages_before,
            "stages_after": self.stages_after,
        }


@dataclass
class ServeStats:
    """Everything the daemon counts.  Counters (not timings) are
    deterministic in sync mode (``workers == 0``) — what the bench
    gate pins."""

    packets_in: int = 0
    packets_processed: int = 0
    #: Serving-switch drop verdicts (data-plane policy, not a failure).
    packets_dropped: int = 0
    #: Serving vs monitor forwarding-decision disagreements.  The swap
    #: contract says this stays 0: both switches flip together, so
    #: their register state evolves in lockstep.
    misprocessed: int = 0
    drift_alerts: int = 0
    combination_alerts: int = 0
    #: Alerts that arrived while a re-optimization was already pending
    #: or in flight (the daemon runs one cycle at a time).
    alerts_coalesced: int = 0
    reoptimizations: int = 0
    failed_reoptimizations: int = 0
    swaps: int = 0
    rejected_promotions: int = 0
    elapsed_seconds: float = 0.0
    swap_seconds: List[float] = dc_field(default_factory=list)
    reoptimize_seconds: List[float] = dc_field(default_factory=list)
    #: Ingest throughput measured while a re-optimization was in
    #: flight (async mode only) — the "traffic keeps flowing" number.
    under_reoptimize_pps: List[float] = dc_field(default_factory=list)
    events: List[SwapEvent] = dc_field(default_factory=list)

    @property
    def packets_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.packets_processed / self.elapsed_seconds

    @property
    def swap_latency(self) -> float:
        """Mean seconds a promotion spent building + flipping."""
        if not self.swap_seconds:
            return 0.0
        return sum(self.swap_seconds) / len(self.swap_seconds)

    def counts(self) -> Dict[str, int]:
        """The deterministic (sync-mode) counters, for bench gating."""
        return {
            "packets_in": self.packets_in,
            "packets_processed": self.packets_processed,
            "packets_dropped": self.packets_dropped,
            "misprocessed": self.misprocessed,
            "drift_alerts": self.drift_alerts,
            "combination_alerts": self.combination_alerts,
            "alerts_coalesced": self.alerts_coalesced,
            "reoptimizations": self.reoptimizations,
            "failed_reoptimizations": self.failed_reoptimizations,
            "swaps": self.swaps,
            "rejected_promotions": self.rejected_promotions,
        }

    def as_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = dict(self.counts())
        data["elapsed_seconds"] = round(self.elapsed_seconds, 3)
        data["packets_per_second"] = round(self.packets_per_second, 1)
        data["swap_latency_seconds"] = round(self.swap_latency, 6)
        data["swap_seconds"] = [round(s, 6) for s in self.swap_seconds]
        data["reoptimize_seconds"] = [
            round(s, 3) for s in self.reoptimize_seconds
        ]
        data["under_reoptimize_pps"] = [
            round(p, 1) for p in self.under_reoptimize_pps
        ]
        data["events"] = [event.as_dict() for event in self.events]
        return data


@dataclass
class ServeResult:
    """What one daemon run hands back when the feed ends."""

    stats: ServeStats
    #: The startup optimization (what the daemon began serving).
    initial: P2GOResult
    #: Every gate-passing re-optimization, oldest first.
    promotions: List[P2GOResult]
    #: The program/config serving when the daemon stopped.
    program: Program
    config: RuntimeConfig
    #: The run that produced the final serving program (== ``initial``
    #: when nothing was ever promoted).
    current: P2GOResult
    #: Every probe of the daemon's one session, tallied (each run's own
    #: share is on its result).
    session_counters: Optional[SessionCounters] = None
    store_stats: Optional[dict] = None


# ----------------------------------------------------------------------
# The daemon


class ContinuousOptimizer:
    """Serve, monitor, re-optimize, and atomically swap — forever.

    ``workers`` selects the reaction mode:

    * ``0`` — re-optimization runs inline in the ingest loop (traffic
      pauses for it).  Every counter is deterministic; the CI gate and
      the regression tests run this mode.
    * ``>= 1`` — re-optimization runs in a worker thread while traffic
      keeps flowing; the session additionally probes candidates with
      ``workers`` parallel workers (1 = serial probing).

    ``phases`` defaults to ``(2, 3)``: the promotion gate is the strict
    equivalence checker, and a phase-4 offload (which redirects packets
    to the controller) can never pass it — see the module docstring's
    swap contract.
    """

    def __init__(
        self,
        program: Program,
        config: RuntimeConfig,
        baseline_trace: Sequence[TracePacket],
        target: TargetModel = DEFAULT_TARGET,
        phases: Sequence[int] = (2, 3),
        window: int = 1000,
        hit_rate_tolerance: float = 0.10,
        store=False,
        workers: int = 0,
        log: Optional[Log] = None,
    ):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.program = program
        self.config = config
        self.baseline_trace = list(baseline_trace)
        self.target = target
        self.phases = tuple(phases)
        self.window = window
        self.hit_rate_tolerance = hit_rate_tolerance
        self.store = store
        self.workers = workers
        self.log = log

        #: Guards the (serving, monitor) pair, the recent-packet ring,
        #: and every counter: per-packet processing holds it, and a
        #: swap flips both switch references under it.
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._serving: Optional[BehavioralSwitch] = None
        self._monitor: Optional[OnlineProfiler] = None
        self._ring: Deque[TracePacket] = deque(maxlen=window)
        self._session: Optional[OptimizationContext] = None
        self._reopt_pending = False
        self._reopt_inflight = False
        self._ingest_error: Optional[BaseException] = None
        self.stats = ServeStats()
        self.initial: Optional[P2GOResult] = None
        self.promotions: List[P2GOResult] = []
        self._current: Optional[P2GOResult] = None

    # ------------------------------------------------------------------
    def _note(self, message: str) -> None:
        if self.log is not None:
            self.log(message)

    def stop(self) -> None:
        """Ask the ingest loop to wind down after the current packet."""
        self._stop.set()

    # ------------------------------------------------------------------
    # Alerts -> triggers

    def _on_alert(self, alert: OnlineAlert) -> None:
        # Runs inside monitor.process(), i.e. on the ingest thread
        # with the packet lock held.
        if alert.kind is AlertKind.HIT_RATE_DRIFT:
            self.stats.drift_alerts += 1
        else:
            self.stats.combination_alerts += 1
        if self._reopt_pending or self._reopt_inflight:
            self.stats.alerts_coalesced += 1
            return
        self._reopt_pending = True
        self._note(
            f"alert [{alert.kind.value}] {alert.subject}: "
            f"{alert.details} (packet {alert.packet_index})"
        )

    def _take_window(self) -> Optional[List[TracePacket]]:
        """Claim the pending trigger if the window has filled; the
        snapshot is the re-optimization's trace."""
        with self._lock:
            if not self._reopt_pending:
                return None
            if len(self._ring) < self.window:
                # A combination alert can fire before the window fills;
                # re-optimizing on a stub trace would be garbage in.
                return None
            self._reopt_pending = False
            self._reopt_inflight = True
            return list(self._ring)

    def _recent_window(self) -> List[TracePacket]:
        with self._lock:
            return list(self._ring)

    # ------------------------------------------------------------------
    # Packet path

    def _process_packet(self, packet: TracePacket) -> None:
        if isinstance(packet, tuple):
            data, port = packet
        else:
            data, port = packet, 0
        with self._lock:
            served = self._serving.process(data, port)
            observed = self._monitor.process(data, port)
            self._ring.append(packet)
            self.stats.packets_processed += 1
            if served.dropped:
                self.stats.packets_dropped += 1
            if (
                served.forwarding_decision()
                != observed.forwarding_decision()
            ):
                self.stats.misprocessed += 1

    def _ingest(
        self,
        feed: FeedSource,
        max_packets: Optional[int],
        deadline: Optional[float],
    ) -> None:
        try:
            for packet in feed.packets():
                if self._stop.is_set():
                    break
                if (
                    max_packets is not None
                    and self.stats.packets_in >= max_packets
                ):
                    break
                if deadline is not None and time.monotonic() >= deadline:
                    break
                with self._lock:
                    self.stats.packets_in += 1
                self._process_packet(packet)
                if self.workers == 0:
                    window = self._take_window()
                    if window is not None:
                        try:
                            self._cycle(window)
                        finally:
                            self._reopt_inflight = False
        except BaseException as exc:  # propagate to run()
            self._ingest_error = exc

    # ------------------------------------------------------------------
    # Drift -> reoptimize -> gate -> swap

    def _cycle(self, window: List[TracePacket]) -> None:
        stats = self.stats
        monitor = self._monitor
        self._note(
            f"reoptimizing on the recent {len(window)}-packet window"
        )
        packets_before = stats.packets_processed
        t0 = time.perf_counter()
        try:
            result = monitor.reoptimize(window, phases=self.phases)
        except ReproError as exc:
            with self._lock:
                stats.failed_reoptimizations += 1
            self._note(f"reoptimize failed, still serving: {exc}")
            return
        reoptimize_seconds = time.perf_counter() - t0
        if self.workers > 0 and reoptimize_seconds > 0:
            processed = stats.packets_processed - packets_before
            stats.under_reoptimize_pps.append(
                processed / reoptimize_seconds
            )

        # Promotion gate: the candidate must be behaviourally identical
        # to the original program on the *most recent* window — in
        # async mode traffic moved on while we re-optimized, so the
        # gate re-snapshots instead of reusing the optimization trace.
        gate_trace = self._recent_window()
        report = compare_behavior(
            self.program,
            self.config,
            result.optimized_program,
            result.final_config,
            gate_trace,
        )
        swap_seconds = 0.0
        if report.equivalent:
            swap_seconds = self._swap(result)
        event = SwapEvent(
            packet_index=stats.packets_processed,
            promoted=report.equivalent,
            reoptimize_seconds=reoptimize_seconds,
            swap_seconds=swap_seconds,
            gate_packets=report.total,
            gate_mismatches=len(report.mismatches),
            stages_before=result.stages_before,
            stages_after=result.stages_after,
        )
        with self._lock:
            stats.reoptimizations += 1
            stats.reoptimize_seconds.append(reoptimize_seconds)
            stats.events.append(event)
            if report.equivalent:
                stats.swaps += 1
                stats.swap_seconds.append(swap_seconds)
            else:
                stats.rejected_promotions += 1
        if report.equivalent:
            self._note(
                f"swapped in re-optimized program "
                f"({result.stages_before} -> {result.stages_after} "
                f"stages) in {swap_seconds * 1e3:.2f} ms"
            )
        else:
            self._note(
                f"promotion rejected: {len(report.mismatches)} of "
                f"{report.total} gate packets disagreed; still serving "
                "the current program"
            )

    def _swap(self, result: P2GOResult) -> float:
        """Build the new (serving, monitor) pair off to the side, then
        atomically flip both under the packet lock.  Returns seconds
        from decision to flip — the promotion latency."""
        t0 = time.perf_counter()
        serving = BehavioralSwitch(
            result.optimized_program, result.final_config
        )
        # The new baseline is the original program's profile on the
        # reoptimize window — the session is keyed on that trace right
        # now, so this is a memo hit, and post-swap alerts compare
        # against the *new* optimization-time observations.
        baseline = self._session.profile(self.program, self.config)
        monitor = OnlineProfiler(
            self.program,
            self.config,
            baseline=baseline,
            window=self.window,
            hit_rate_tolerance=self.hit_rate_tolerance,
            alert_callback=self._on_alert,
            session=self._session,
        )
        with self._lock:
            self._serving = serving
            self._monitor = monitor
            self._ring.clear()  # fresh drift window for the new baseline
            self._current = result
        self.promotions.append(result)
        return time.perf_counter() - t0

    # ------------------------------------------------------------------
    def run(
        self,
        feed: FeedSource,
        max_packets: Optional[int] = None,
        duration: Optional[float] = None,
    ) -> ServeResult:
        """Optimize, then serve ``feed`` until it ends (or
        ``max_packets`` / ``duration`` / :meth:`stop` intervenes)."""
        session = OptimizationContext(
            self.program,
            self.config,
            self.baseline_trace,
            self.target,
            workers=max(self.workers, 1),
            store=resolve_store(self.store),
        )
        self._session = session
        try:
            self._note(
                f"initial optimization on "
                f"{len(self.baseline_trace)} baseline packets"
            )
            self.initial = P2GO(
                self.program,
                self.config,
                self.baseline_trace,
                self.target,
                session=session,
                phases=self.phases,
            ).run()
            self._current = self.initial
            self._serving = BehavioralSwitch(
                self.initial.optimized_program, self.initial.final_config
            )
            self._monitor = OnlineProfiler(
                self.program,
                self.config,
                window=self.window,
                hit_rate_tolerance=self.hit_rate_tolerance,
                alert_callback=self._on_alert,
                session=session,
            )
            self._note(
                f"serving {self.program.name} "
                f"({self.initial.stages_before} -> "
                f"{self.initial.stages_after} stages) from "
                + feed.describe()
            )
            deadline = (
                time.monotonic() + duration if duration is not None
                else None
            )
            ingest = threading.Thread(
                target=self._ingest,
                args=(feed, max_packets, deadline),
                name="p2go-serve-ingest",
                daemon=True,
            )
            t_start = time.perf_counter()
            ingest.start()
            if self.workers == 0:
                ingest.join()
            else:
                self._coordinate(ingest)
            self.stats.elapsed_seconds = time.perf_counter() - t_start
            if self._ingest_error is not None:
                raise self._ingest_error
            return ServeResult(
                stats=self.stats,
                initial=self.initial,
                promotions=list(self.promotions),
                program=self._current.optimized_program,
                config=self._current.final_config,
                current=self._current,
                session_counters=session.counters,
                store_stats=(
                    session.store.stats()
                    if session.store is not None
                    else None
                ),
            )
        finally:
            self._session = None
            session.close()

    def _coordinate(self, ingest: threading.Thread) -> None:
        """Async mode: watch for triggers, run cycles on a worker
        thread, and drain the in-flight cycle when the feed ends."""
        executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="p2go-serve-reopt"
        )
        future: Optional[Future] = None
        try:
            while True:
                if future is not None and future.done():
                    try:
                        future.result()
                    finally:
                        future = None
                        self._reopt_inflight = False
                if future is None:
                    window = self._take_window()
                    if window is not None:
                        future = executor.submit(self._cycle, window)
                if not ingest.is_alive() and future is None:
                    # Drain: a trigger raised by the feed's last packets
                    # still gets its cycle (the window is full — the
                    # feed just ended); an unfillable one is dropped.
                    window = self._take_window()
                    if window is None:
                        self._reopt_pending = False
                        break
                    future = executor.submit(self._cycle, window)
                time.sleep(0.002)
        finally:
            self._stop.set()
            executor.shutdown(wait=True)


def serve_forever(
    program: Program,
    config: RuntimeConfig,
    baseline_trace: Sequence[TracePacket],
    feed: FeedSource,
    **kwargs,
) -> ServeResult:
    """One-call convenience wrapper: build the daemon and run it."""
    run_kwargs = {
        key: kwargs.pop(key)
        for key in ("max_packets", "duration")
        if key in kwargs
    }
    return ContinuousOptimizer(
        program, config, baseline_trace, **kwargs
    ).run(feed, **run_kwargs)

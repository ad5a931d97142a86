"""Continuous optimization as a long-running service (§6's endgame).

The paper's dynamic-compilation vision stops at "online profiling ...
enables real-time adaptation of programs".  This module closes that
loop as a daemon:

* **Ingest** — the serve loop, on the thread that calls
  :meth:`ContinuousOptimizer.run`, pulls packets from a pluggable
  :class:`FeedSource` (pcap/trace replay, the seeded drift-scenario
  generator, newline-framed hex lines from a file, or a TCP socket) and
  forwards every packet through *two* switches in lockstep: the
  **serving** switch (the currently promoted optimized program) and the
  **monitor** (an :class:`~repro.core.online.OnlineProfiler` running the
  *original* program — the semantic reference — and reading its step
  log).  Each packet is parsed once, by the original program's parser:
  the template goes to the monitor, to the serving switch when its
  parse key is the original's (checked once per swap), and into the
  window ring, so a cycle's window is a
  :class:`~repro.sim.switch.ReplayTrace` whose parses are already
  filled and its profiles and gate replays parse nothing.  A packet the
  parser rejects ends the run with an error naming its 1-based index in
  the feed.  A packet the two switches give different forwarding
  decisions, or forward with different bytes, is a *misprocessed*
  packet (:func:`~repro.controller.equivalence.same_packet`); the
  counter must stay at zero.
* **React** — a drift alert from the monitor arms a warm
  :meth:`~repro.core.online.OnlineProfiler.reoptimize` over the recent
  packet window, through the shared
  :class:`~repro.core.session.OptimizationContext` (and its persistent
  store, when attached).  The loop runs an armed cycle inline, between
  one packet and the next, so every counter is deterministic.
* **Promote** — the re-optimized program is promoted only if the strict
  equivalence checker (:func:`~repro.controller.equivalence.
  compare_behavior`) passes on a trace of the most recent window;
  otherwise the promotion is *rejected* and the current program keeps
  serving.  Because the strict gate compares forwarding decisions and
  output bytes bit-for-bit, the serve loop defaults to ``phases=(2, 3)`` — a phase-4
  offload intentionally changes ``to_controller`` for redirected
  packets and would (correctly) never pass this gate.  That is the swap
  contract: only transformations invisible to the data plane are
  promotable while packets are in flight.
* **Swap** — promotion replaces the (serving, monitor) pair between two
  packets: the new serving switch *and* a fresh monitor are built
  first (switch construction, baseline profile, window reset), then
  both references flip together.  The new monitor's baseline is the
  original program's profile on the reoptimize window — a session memo
  hit — so post-swap alerts compare live traffic against the *new*
  optimization-time observations, not the stale ones.

No packet is dropped by a swap: each packet is processed against one
installed (serving, monitor) pair, and both members always flip
together, so their register state stays in lockstep.
"""

from __future__ import annotations

import socket as socket_module
import time
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

from repro.controller.equivalence import compare_behavior, same_packet
from repro.core.online import (
    AlertKind,
    OnlineAlert,
    OnlineProfiler,
    check_monitor_settings,
)
from repro.core.pipeline import P2GO, P2GOResult
from repro.core.session import OptimizationContext, SessionCounters
from repro.core.store import resolve_store
from repro.exceptions import ReproError, SimulationError
from repro.p4.program import Program
from repro.sim.plan import build_parser
from repro.sim.runtime import RuntimeConfig
from repro.sim.switch import BehavioralSwitch, ParseTemplate, ReplayTrace
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
    daemon consumes them on the thread that calls
    :meth:`ContinuousOptimizer.run`, between cycles.
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

    Blank lines and ``#`` comments are skipped; a malformed line is a
    :class:`ValueError` that names its 1-based line number.  With a
    file-like source (e.g. ``sys.stdin``) the feed blocks on the next
    line, which is exactly what a piped live feed wants.
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
        for number, line in enumerate(lines, 1):
            try:
                packet = parse_packet_line(line)
            except ValueError as exc:
                raise ValueError(f"line {number}: {exc}") from None
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
    #: Wall time of the equivalence gate's two replays.
    gate_seconds: float
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
            "gate_seconds": round(self.gate_seconds, 6),
            "swap_seconds": round(self.swap_seconds, 6),
            "gate_packets": self.gate_packets,
            "gate_mismatches": self.gate_mismatches,
            "stages_before": self.stages_before,
            "stages_after": self.stages_after,
        }


@dataclass
class ServeStats:
    """Everything the daemon counts.  Counters (not timings) are
    deterministic — what the bench gate pins.  What the cycles did is
    read off :attr:`events`."""

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
    #: (the daemon runs one cycle at a time).
    alerts_coalesced: int = 0
    failed_reoptimizations: int = 0
    elapsed_seconds: float = 0.0
    #: One record per completed cycle (a failed re-optimization makes
    #: none), oldest first.
    events: List[SwapEvent] = dc_field(default_factory=list)

    @property
    def reoptimizations(self) -> int:
        return len(self.events)

    @property
    def swaps(self) -> int:
        return sum(event.promoted for event in self.events)

    @property
    def rejected_promotions(self) -> int:
        return self.reoptimizations - self.swaps

    @property
    def swap_seconds(self) -> List[float]:
        """Each promotion's build-and-flip time, oldest first."""
        return [e.swap_seconds for e in self.events if e.promoted]

    @property
    def reoptimize_seconds(self) -> List[float]:
        return [event.reoptimize_seconds for event in self.events]

    @property
    def packets_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.packets_processed / self.elapsed_seconds

    @property
    def swap_latency(self) -> float:
        """Mean seconds a promotion spent building + flipping."""
        swap_seconds = self.swap_seconds
        if not swap_seconds:
            return 0.0
        return sum(swap_seconds) / len(swap_seconds)

    def counts(self) -> Dict[str, int]:
        """The deterministic counters, for bench gating."""
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
    #: The run that produced the final serving program (== ``initial``
    #: when nothing was ever promoted).
    current: P2GOResult
    #: Every probe of the daemon's one session, tallied (each run's own
    #: share is on its result).
    session_counters: Optional[SessionCounters] = None
    store_stats: Optional[dict] = None

    @property
    def program(self) -> Program:
        """The program serving when the daemon stopped."""
        return self.current.optimized_program

    @property
    def config(self) -> RuntimeConfig:
        return self.current.final_config


# ----------------------------------------------------------------------
# The daemon


class ContinuousOptimizer:
    """Serve, monitor, re-optimize, and atomically swap — forever.

    :meth:`run` serves on the thread that calls it and runs each armed
    re-optimization cycle inline, between two packets (traffic pauses
    for it), so every counter is deterministic.

    ``workers`` accepts only ``0``, the inline loop; any other value is
    a :class:`ValueError`.  It stays a keyword only because the stack
    benchmark's serve workload (``benchmarks/stack/workloads.py``)
    passes ``workers=0``; it goes when that file next changes.

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
        if workers != 0:
            raise ValueError(
                "workers must be 0: serve re-optimizes inline, "
                f"got {workers}"
            )
        check_monitor_settings(window, hit_rate_tolerance)
        self.program = program
        self.config = config
        self.baseline_trace = list(baseline_trace)
        self.target = target
        self.phases = tuple(phases)
        self.window = window
        self.hit_rate_tolerance = hit_rate_tolerance
        self.store = store
        self.log = log

        self._serving: Optional[BehavioralSwitch] = None
        self._monitor: Optional[OnlineProfiler] = None
        #: The original program's parser: each packet's one parse.
        self._parser = build_parser(program)
        #: Whether the serving switch's parse key is the original's, so
        #: it runs on the one parse too.
        self._shares_parse = False
        #: The recent window: each packet with its template.
        self._ring: Deque[Tuple[TracePacket, ParseTemplate]] = deque(
            maxlen=window
        )
        self._session: Optional[OptimizationContext] = None
        self._reopt_pending = False
        self.stats = ServeStats()
        self.initial: Optional[P2GOResult] = None
        self.promotions: List[P2GOResult] = []

    # ------------------------------------------------------------------
    def _note(self, message: str) -> None:
        if self.log is not None:
            self.log(message)

    # ------------------------------------------------------------------
    # Alerts -> triggers

    def _on_alert(self, alert: OnlineAlert) -> None:
        # Runs inside monitor.process(), i.e. in the serve loop.
        if alert.kind is AlertKind.HIT_RATE_DRIFT:
            self.stats.drift_alerts += 1
        else:
            self.stats.combination_alerts += 1
        if self._reopt_pending:
            self.stats.alerts_coalesced += 1
            return
        self._reopt_pending = True
        self._note(
            f"alert [{alert.kind.value}] {alert.subject}: "
            f"{alert.details} (packet {alert.packet_index})"
        )

    def _react(self) -> None:
        """Run the pending cycle once the window has filled; the
        window's snapshot is the re-optimization's trace."""
        if not self._reopt_pending or len(self._ring) < self.window:
            # A combination alert can fire before the window fills;
            # re-optimizing on a stub trace would be garbage in.
            return
        self._reopt_pending = False
        packets, templates = zip(*self._ring)
        window = ReplayTrace(packets)
        window.parses[self._parser.key] = list(templates)
        self._cycle(window)

    # ------------------------------------------------------------------
    # Packet path

    def _install(
        self, serving: BehavioralSwitch, monitor: OnlineProfiler
    ) -> None:
        """Make ``(serving, monitor)`` the pair every packet goes through."""
        self._serving, self._monitor = serving, monitor
        self._shares_parse = serving._parser.key == self._parser.key

    def _process_packet(self, packet: TracePacket) -> None:
        data, port = packet if isinstance(packet, tuple) else (packet, 0)
        try:
            template = self._parser.parse(data)
        except SimulationError as exc:
            raise SimulationError(
                f"packet {self.stats.packets_in}: {exc}"
            ) from None
        served = self._serving.process(
            data, port, template if self._shares_parse else None
        )
        observed = self._monitor.process(data, port, template)
        self._ring.append((packet, template))
        self.stats.packets_processed += 1
        if served.dropped:
            self.stats.packets_dropped += 1
        if not same_packet(served, observed):
            self.stats.misprocessed += 1

    # ------------------------------------------------------------------
    # Drift -> reoptimize -> gate -> swap

    def _cycle(self, window: ReplayTrace) -> None:
        stats = self.stats
        self._note(
            f"reoptimizing on the recent {len(window)}-packet window"
        )
        t0 = time.perf_counter()
        try:
            result = self._monitor.reoptimize(window, phases=self.phases)
        except ReproError as exc:
            stats.failed_reoptimizations += 1
            self._note(f"reoptimize failed, still serving: {exc}")
            return
        reoptimize_seconds = time.perf_counter() - t0

        # Promotion gate: the candidate must be behaviourally identical
        # to the original program on the window it was optimized for.
        t1 = time.perf_counter()
        report = compare_behavior(
            self.program,
            self.config,
            result.optimized_program,
            result.final_config,
            window,
        )
        gate_seconds = time.perf_counter() - t1
        swap_seconds = self._swap(result) if report.equivalent else 0.0
        stats.events.append(
            SwapEvent(
                packet_index=stats.packets_processed,
                promoted=report.equivalent,
                reoptimize_seconds=reoptimize_seconds,
                gate_seconds=gate_seconds,
                swap_seconds=swap_seconds,
                gate_packets=report.total,
                gate_mismatches=len(report.mismatches),
                stages_before=result.stages_before,
                stages_after=result.stages_after,
            )
        )
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
        """Build the new (serving, monitor) pair, then flip both between
        two packets.  Returns seconds from decision to flip — the
        promotion latency."""
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
        self._install(serving, monitor)
        self._ring.clear()  # fresh drift window for the new baseline
        self.promotions.append(result)
        return time.perf_counter() - t0

    # ------------------------------------------------------------------
    def run(
        self,
        feed: FeedSource,
        max_packets: Optional[int] = None,
        duration: Optional[float] = None,
    ) -> ServeResult:
        """Optimize, then serve ``feed`` on the calling thread until it
        ends (or ``max_packets`` / ``duration`` intervenes)."""
        session = OptimizationContext(
            self.program,
            self.config,
            self.baseline_trace,
            self.target,
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
            self._install(
                BehavioralSwitch(
                    self.initial.optimized_program, self.initial.final_config
                ),
                OnlineProfiler(
                    self.program,
                    self.config,
                    window=self.window,
                    hit_rate_tolerance=self.hit_rate_tolerance,
                    alert_callback=self._on_alert,
                    session=session,
                ),
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
            t_start = time.perf_counter()
            for packet in feed.packets():
                if (
                    max_packets is not None
                    and self.stats.packets_in >= max_packets
                ) or (deadline is not None and time.monotonic() >= deadline):
                    break
                self.stats.packets_in += 1
                self._process_packet(packet)
                self._react()
            self.stats.elapsed_seconds = time.perf_counter() - t_start
            return ServeResult(
                stats=self.stats,
                initial=self.initial,
                promotions=list(self.promotions),
                current=(
                    self.promotions[-1] if self.promotions
                    else self.initial
                ),
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

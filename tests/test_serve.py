"""Tests for the continuous-optimization service (repro/core/serve.py).

The acceptance scenario: a scripted traffic-mix shift mid-feed must
complete at least one full detect -> warm reoptimize -> equivalence-
gated swap cycle with zero dropped/misprocessed packets, and post-swap
alerts must be keyed to the new baseline.
"""

import threading
from dataclasses import replace

import pytest

from repro.core.report import render_serve_report
from repro.core.serve import (
    ContinuousOptimizer,
    FeedSource,
    GeneratorFeed,
    LineFeed,
    SocketFeed,
    TraceFeed,
    format_packet_line,
    parse_packet_line,
)
from repro.exceptions import SimulationError
from repro.p4 import Const, FieldRef, ModifyField
from repro.packets.craft import udp_packet
from repro.programs import example_firewall as fw
from repro.sim import BehavioralSwitch

BASELINE_PACKETS = 3000
SCENARIO_PACKETS = 1600
WINDOW = 400
TOLERANCE = 0.15


@pytest.fixture(scope="module")
def drift_serve():
    """One sync-mode daemon run over the canonical drift scenario.

    Module-scoped: the run is deterministic and every test reads it."""
    optimizer = ContinuousOptimizer(
        fw.build_program(),
        fw.runtime_config(),
        fw.make_trace(BASELINE_PACKETS, seed=0),
        fw.TARGET,
        window=WINDOW,
        hit_rate_tolerance=TOLERANCE,
        workers=0,
    )
    feed = GeneratorFeed.firewall_drift(
        total=SCENARIO_PACKETS, seed=0, shift_at=0.5
    )
    result = optimizer.run(feed, max_packets=SCENARIO_PACKETS)
    return optimizer, result


class TestDriftScenario:
    def test_full_cycle_completes(self, drift_serve):
        """>= 1 detect -> warm reoptimize -> gated swap cycle."""
        _optimizer, result = drift_serve
        stats = result.stats
        assert stats.drift_alerts >= 1
        assert stats.reoptimizations >= 1
        assert stats.swaps >= 1
        assert result.promotions
        assert len(stats.swap_seconds) == stats.swaps
        assert all(s > 0 for s in stats.swap_seconds)

    def test_cycle_counts_are_read_off_the_events(self, drift_serve):
        """Each completed cycle is one SwapEvent, and the cycle counters
        and timing lists agree with the events, in order."""
        _optimizer, result = drift_serve
        stats = result.stats
        promoted = [event for event in stats.events if event.promoted]
        assert stats.reoptimizations == len(stats.events)
        assert stats.swaps == len(promoted)
        assert stats.rejected_promotions == len(stats.events) - len(promoted)
        assert stats.swap_seconds == [e.swap_seconds for e in promoted]
        assert stats.reoptimize_seconds == [
            event.reoptimize_seconds for event in stats.events
        ]
        assert result.promotions and len(result.promotions) == stats.swaps

    def test_no_dropped_or_misprocessed_packets(self, drift_serve):
        _optimizer, result = drift_serve
        stats = result.stats
        assert stats.packets_in == SCENARIO_PACKETS
        assert stats.packets_processed == SCENARIO_PACKETS
        assert stats.misprocessed == 0

    def test_promotions_pass_the_gate(self, drift_serve):
        _optimizer, result = drift_serve
        assert result.stats.rejected_promotions == 0
        for event in result.stats.events:
            assert event.promoted
            assert event.gate_mismatches == 0
            assert event.gate_packets == WINDOW

    def test_serving_program_is_last_promotion(self, drift_serve):
        _optimizer, result = drift_serve
        assert result.current is result.promotions[-1]
        assert result.program is result.current.optimized_program
        # The service actually optimized something.
        assert (
            result.current.stages_after < result.current.stages_before
        )

    def test_reoptimizations_ran_warm(self, drift_serve):
        """The shared session answered re-run probes from the memo —
        strictly fewer executions than calls."""
        _optimizer, result = drift_serve
        counters = result.session_counters
        assert counters.compile_hits > 0
        assert counters.compile_executions < counters.compile_calls

    def test_post_swap_monitor_keyed_to_new_baseline(self, drift_serve):
        """After a swap the monitoring side is rebound: a fresh
        instrumented monitor whose baseline is the *reoptimize-window*
        profile, with its drift window reset."""
        optimizer, result = drift_serve
        monitor = optimizer._monitor
        # The final monitor was rebuilt at the last swap, not at start:
        # it has seen only post-swap packets.
        assert monitor.packets_seen < result.stats.packets_processed
        # Its baseline is the drift-time observation, not the startup
        # one: the sketch tables' rates differ by far more than the
        # serve tolerance (the flood is what triggered the swap).
        startup = result.initial.initial_profile
        assert (
            abs(
                monitor.baseline.hit_rate("Sketch_1")
                - startup.hit_rate("Sketch_1")
            )
            > TOLERANCE
        )
        # And against that new baseline, the continued flood raised no
        # unresolved drift alert episode on the sketch tables.
        assert not {"Sketch_1", "Sketch_2", "Sketch_Min"} & set(
            monitor._drifting
        )

    def test_every_cycle_times_its_gate(self, drift_serve):
        _optimizer, result = drift_serve
        events = result.stats.events
        assert events
        assert all(event.gate_seconds > 0 for event in events)
        assert all(
            "gate_seconds" in event
            for event in result.stats.as_dict()["events"]
        )
        assert " mismatches in " in render_serve_report(result)

    def test_report_renders(self, drift_serve):
        _optimizer, result = drift_serve
        report = render_serve_report(result)
        assert "misprocessed" in report
        assert "promoted" in report
        assert "swap latency" in report
        assert str(result.stats.swaps) in report

    def test_stats_as_dict_round_trips_counts(self, drift_serve):
        _optimizer, result = drift_serve
        data = result.stats.as_dict()
        assert data["swaps"] == result.stats.swaps
        assert data["misprocessed"] == 0
        assert len(data["events"]) == result.stats.reoptimizations
        assert data["events"][0]["promoted"] is True


#: ``counts()`` of a run shaped like the stack benchmark's
#: ``serve_drift`` (seed 12), as read while each switch still parsed
#: every packet itself and emitted its own plan: a change to the packet
#: path that moves when an alert fires moves these.
BENCH_SHAPED_COUNTS = {
    "packets_in": 8000,
    "packets_processed": 8000,
    "packets_dropped": 1793,
    "misprocessed": 0,
    "drift_alerts": 13,
    "combination_alerts": 1,
    "alerts_coalesced": 6,
    "reoptimizations": 8,
    "failed_reoptimizations": 0,
    "swaps": 8,
    "rejected_promotions": 0,
}


def test_a_benchmark_shaped_run_keeps_its_counts(emissions):
    """The full counts are pinned, and from an empty plan memo the run
    emits one tail per distinct (program, config, sink kind): 6 here,
    where a tail per switch made 63.  It was 8 while phase 3 replayed
    its accepted table resize, and 7 while phase 2 replayed its
    relocation; both now share their parent's profile (no replay reads
    a table's size, and a licensed relocation replays step for step
    like its parent), so neither tail is emitted."""
    optimizer = ContinuousOptimizer(
        fw.build_program(),
        fw.runtime_config(),
        fw.make_trace(3000, seed=12),
        fw.TARGET,
        window=400,
        hit_rate_tolerance=0.15,
    )
    result = optimizer.run(GeneratorFeed.firewall_drift(total=8000, seed=12))
    assert result.stats.counts() == BENCH_SHAPED_COUNTS
    assert len(emissions) == len(set(emissions)) == 6


class TestPromotionGate:
    def test_non_equivalent_candidate_rejected(self, monkeypatch):
        """A re-optimization whose result changes forwarding decisions
        must be rejected by the gate — the old program keeps serving
        and no swap is recorded."""
        from repro.core.online import OnlineProfiler

        def sabotage(self, trace, **kwargs):
            # A "re-optimization" that would drop every IPv4 packet:
            # behaviourally wrong, so the gate must refuse it.
            result = real_reoptimize(self, trace, **kwargs)
            bad_config = result.final_config.clone()
            bad_config.entries["IPv4"] = []
            bad_config.set_default("IPv4", "ipv4_drop", [])
            result.final_config = bad_config
            return result

        real_reoptimize = OnlineProfiler.reoptimize
        monkeypatch.setattr(OnlineProfiler, "reoptimize", sabotage)

        optimizer = ContinuousOptimizer(
            fw.build_program(),
            fw.runtime_config(),
            fw.make_trace(2000, seed=0),
            fw.TARGET,
            window=300,
            hit_rate_tolerance=TOLERANCE,
            workers=0,
        )
        feed = GeneratorFeed.firewall_drift(
            total=1200, seed=0, shift_at=0.5
        )
        result = optimizer.run(feed, max_packets=1200)
        stats = result.stats
        assert stats.reoptimizations >= 1
        assert stats.rejected_promotions == stats.reoptimizations
        assert stats.swaps == 0
        assert result.promotions == []
        assert result.current is result.initial
        assert result.program is result.initial.optimized_program
        assert stats.events and not stats.events[0].promoted
        assert stats.events[0].gate_mismatches > 0
        # Rejection never interrupts serving.
        assert stats.packets_processed == 1200
        assert stats.misprocessed == 0


class TestMisprocessed:
    def test_a_packet_forwarded_with_other_bytes_is_misprocessed(self):
        """The monitor compares output bytes too: a serving program that
        forwards as the original does but rewrites the TTL misprocesses
        every packet it forwards."""
        optimizer = ContinuousOptimizer(
            fw.build_program(),
            fw.runtime_config(),
            fw.make_trace(600, seed=0),
            fw.TARGET,
            window=WINDOW,
            workers=0,
        )
        packets = [
            udp_packet("10.0.0.1", "10.0.0.2", 1234, port)
            for port in range(4000, 4010)
        ]
        result = optimizer.run(TraceFeed(packets), max_packets=len(packets))
        assert result.stats.misprocessed == 0
        program = fw.build_program()
        forward = program.actions["ipv4_forward"]
        forward = replace(forward, primitives=(
            *forward.primitives, ModifyField(FieldRef("ipv4", "ttl"), Const(1))
        ))
        rewriting = replace(
            program, actions={**program.actions, "ipv4_forward": forward}
        )
        optimizer._serving = BehavioralSwitch(rewriting, fw.runtime_config())
        for packet in packets:
            optimizer._process_packet(packet)
        assert result.stats.misprocessed == len(packets)
        assert result.stats.packets_dropped == 0


class RecordingFeed(FeedSource):
    """Replays packets and notes every thread they are pulled on."""

    def __init__(self, packets):
        self._packets = list(packets)
        self.threads = set()

    def packets(self):
        for packet in self._packets:
            self.threads.add(threading.current_thread())
            yield packet


class TestThreadPlacement:
    # ``workers=0`` is the only value the constructor still accepts.
    @pytest.mark.parametrize("workers", [0])
    def test_the_loop_runs_on_the_callers_thread(self, workers, monkeypatch):
        """The feed is consumed, and every cycle runs, on the thread
        that calls run()."""
        cycle_threads = []
        real_cycle = ContinuousOptimizer._cycle

        def recording_cycle(self, window):
            cycle_threads.append(threading.current_thread())
            return real_cycle(self, window)

        monkeypatch.setattr(ContinuousOptimizer, "_cycle", recording_cycle)
        feed = RecordingFeed(
            GeneratorFeed.firewall_drift(
                total=1200, seed=0, shift_at=0.5
            ).packets()
        )
        result = ContinuousOptimizer(
            fw.build_program(),
            fw.runtime_config(),
            fw.make_trace(2000, seed=0),
            fw.TARGET,
            window=300,
            hit_rate_tolerance=TOLERANCE,
            workers=workers,
        ).run(feed)
        caller = threading.current_thread()
        assert feed.threads == {caller}
        assert result.stats.packets_processed == 1200
        assert cycle_threads
        assert len(cycle_threads) == (
            result.stats.reoptimizations
            + result.stats.failed_reoptimizations
        )
        assert set(cycle_threads) == {caller}


class TestServeStore:
    def test_persistent_store_attaches(self, tmp_path):
        result = ContinuousOptimizer(
            fw.build_program(),
            fw.runtime_config(),
            fw.make_trace(2000, seed=0),
            target=fw.TARGET,
            window=200,
            workers=0,
            store=tmp_path / "store",
        ).run(TraceFeed(fw.make_trace(300, seed=5)), max_packets=300)
        assert result.store_stats is not None
        assert result.store_stats["compile_entries"] > 0
        assert result.stats.packets_processed == 300
        assert result.stats.misprocessed == 0


class TestFeeds:
    def test_packet_line_round_trip(self):
        plain = udp_packet("10.0.0.1", "192.168.1.1", 1234, 53)
        with_port = (plain, 7)
        for packet in (plain, with_port):
            assert parse_packet_line(format_packet_line(packet)) == packet

    def test_parse_skips_blanks_and_comments(self):
        assert parse_packet_line("") is None
        assert parse_packet_line("   ") is None
        assert parse_packet_line("# comment") is None

    def test_ingress_port_must_fit_the_trace_fingerprint(self):
        data = udp_packet("10.0.0.1", "192.168.1.1", 1, 80)
        for port in (-1, 2**32):
            with pytest.raises(ValueError, match=f"ingress port {port} "):
                parse_packet_line(f"{data.hex()} {port}")
        assert parse_packet_line(f"{data.hex()} {2**32 - 1}") == (
            data, 2**32 - 1
        )

    def test_out_of_range_port_fails_the_feed_not_a_reoptimize(self):
        """Such a line used to be accepted and, once a reoptimize window
        held it, crash the daemon with an OverflowError from the trace
        fingerprint."""
        packets = list(
            GeneratorFeed.firewall_drift(total=1200, seed=0).packets()
        )
        lines = []
        for index, packet in enumerate(packets):
            line = format_packet_line(packet)
            if index >= 600 and index % 50 == 0:
                line = line.split()[0] + " -1"
            lines.append(line + "\n")
        optimizer = ContinuousOptimizer(
            fw.build_program(),
            fw.runtime_config(),
            fw.make_trace(2000, seed=0),
            fw.TARGET,
            window=300,
            workers=0,
        )
        with pytest.raises(ValueError, match="^line 601: ingress port -1 "):
            optimizer.run(LineFeed(iter(lines)))

    @pytest.mark.parametrize(
        "bad, complaint",
        [
            ("zz 1", "non-hexadecimal"),
            ("00ff 4294967296", "ingress port 4294967296 "),
            ("00ff port", "invalid literal"),
        ],
    )
    def test_malformed_line_names_its_line_number(self, bad, complaint):
        good = format_packet_line(udp_packet("10.0.0.1", "192.168.1.1", 1, 80))
        lines = ["# header\n", good + "\n", "\n", bad + "\n", good + "\n"]
        feed = LineFeed(iter(lines)).packets()
        assert next(feed) == parse_packet_line(good)
        with pytest.raises(ValueError, match=f"^line 4: .*{complaint}"):
            next(feed)

    def test_trace_feed_repeats(self):
        trace = [udp_packet("10.0.0.1", "192.168.1.1", 1, 80)] * 3
        feed = TraceFeed(trace, repeat=2)
        assert list(feed.packets()) == trace * 2
        assert "x 2" in feed.describe()
        with pytest.raises(ValueError):
            TraceFeed(trace, repeat=0)

    def test_generator_feed_segments(self):
        feed = GeneratorFeed.firewall_drift(total=200, seed=1)
        packets = list(feed.packets())
        assert len(packets) == sum(
            len(seg) for _name, seg in feed.segments
        )
        assert [name for name, _seg in feed.segments] == [
            "steady", "flood",
        ]
        # Deterministic in the seed.
        again = GeneratorFeed.firewall_drift(total=200, seed=1)
        assert list(again.packets()) == packets
        with pytest.raises(ValueError):
            GeneratorFeed.firewall_drift(total=100, shift_at=1.5)

    def test_line_feed_from_file(self, tmp_path):
        packets = [
            udp_packet("10.0.0.1", "192.168.1.1", 1, 80),
            (udp_packet("10.0.0.2", "192.168.1.2", 2, 53), 4),
        ]
        path = tmp_path / "feed.txt"
        path.write_text(
            "# header comment\n"
            + "\n".join(format_packet_line(p) for p in packets)
            + "\n\n"
        )
        assert list(LineFeed(path).packets()) == packets
        assert list(LineFeed(str(path)).packets()) == packets

    def test_line_feed_from_stream(self):
        packets = [udp_packet("10.0.0.3", "192.168.1.3", 3, 80)]
        lines = [format_packet_line(p) + "\n" for p in packets]
        assert list(LineFeed(iter(lines)).packets()) == packets

    def test_socket_feed_streams_a_connection(self):
        packets = [
            udp_packet("10.0.0.1", "192.168.1.1", 1, 80),
            (udp_packet("10.0.0.2", "192.168.1.2", 2, 53), 9),
        ]
        feed = SocketFeed(accept_timeout=10.0)
        host, port = feed.address

        def writer():
            import socket

            with socket.create_connection((host, port)) as conn:
                payload = "".join(
                    format_packet_line(p) + "\n" for p in packets
                )
                conn.sendall(payload.encode())

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        received = list(feed.packets())
        thread.join(timeout=5)
        assert received == packets


class TestUnparseablePacket:
    def test_the_error_names_the_packets_index_in_the_feed(self):
        good = fw.make_trace(5, seed=1)
        optimizer = ContinuousOptimizer(
            fw.build_program(),
            fw.runtime_config(),
            fw.make_trace(300, seed=0),
            fw.TARGET,
            window=WINDOW,
        )
        feed = TraceFeed([*good[:2], bytes.fromhex("00ff"), *good[2:]])
        with pytest.raises(SimulationError) as raised:
            optimizer.run(feed)
        assert str(raised.value) == (
            "packet 3: packet too short: state 'start' needs 14 bytes "
            "for 'ethernet', 2 remain"
        )
        assert optimizer.stats.packets_processed == 2


class TestBounds:
    def test_max_packets_bounds_an_endless_feed(self):
        optimizer = ContinuousOptimizer(
            fw.build_program(),
            fw.runtime_config(),
            fw.make_trace(2000, seed=0),
            fw.TARGET,
            window=200,
            workers=0,
        )
        endless = TraceFeed(fw.make_trace(100, seed=2), repeat=1000)
        result = optimizer.run(endless, max_packets=250)
        assert result.stats.packets_in == 250
        assert result.stats.packets_processed == 250

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            ContinuousOptimizer(
                fw.build_program(),
                fw.runtime_config(),
                fw.make_trace(100, seed=0),
                fw.TARGET,
                workers=-1,
            )

    def test_more_than_one_worker_is_refused(self):
        """Serve re-optimizes inline; the background thread that
        ``workers=1`` once started is gone."""
        for workers in (1, 2):
            with pytest.raises(ValueError, match="workers must be 0: "):
                ContinuousOptimizer(
                    fw.build_program(),
                    fw.runtime_config(),
                    fw.make_trace(100, seed=0),
                    fw.TARGET,
                    workers=workers,
                )

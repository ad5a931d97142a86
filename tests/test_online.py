"""Tests for §6's online profiler."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.online import AlertKind, OnlineProfiler
from repro.core.profiler import profile_program
from repro.core.session import OptimizationContext
from repro.exceptions import OptimizationError
from repro.packets.craft import dhcp_packet, tcp_packet, udp_packet
from repro.programs import example_firewall as fw
from repro.traffic.generators import dns_stream
from tests.conftest import build_toy_program, toy_config


@pytest.fixture
def online(firewall_program, firewall_config, firewall_profile):
    return OnlineProfiler(
        firewall_program,
        firewall_config,
        baseline=firewall_profile,
        window=500,
        hit_rate_tolerance=0.15,
    )


class TestBasics:
    def test_forwards_packets(self, online):
        result = online.process(
            udp_packet("10.0.0.1", "192.168.1.1", 1234, 9999)
        )
        assert not result.dropped
        assert online.packets_seen == 1

    def test_window_hit_rate(self, online):
        for _ in range(10):
            online.process(udp_packet("10.0.0.1", "192.168.1.1", 1, 137))
        assert online.window_hit_rate("ACL_UDP") == 1.0
        assert online.window_hit_rate("IPv4") == 1.0
        assert online.window_hit_rate("DNS_Drop") == 0.0

    def test_window_evicts_old_packets(
        self, firewall_program, firewall_config
    ):
        online = OnlineProfiler(
            firewall_program, firewall_config, window=5
        )
        for _ in range(5):
            online.process(udp_packet("10.0.0.1", "192.168.1.1", 1, 137))
        for _ in range(5):
            online.process(udp_packet("10.0.0.1", "192.168.1.1", 1, 9999))
        assert online.window_hit_rate("ACL_UDP") == 0.0

    def test_invalid_window_rejected(self, firewall_program,
                                     firewall_config):
        with pytest.raises(ValueError):
            OnlineProfiler(firewall_program, firewall_config, window=0)

    @pytest.mark.parametrize("tolerance", [-1.0, -0.01, float("nan")])
    def test_invalid_tolerance_rejected(self, firewall_program,
                                        firewall_config, tolerance):
        """A negative tolerance would alert on every table once the
        window fills; NaN compares false against everything."""
        with pytest.raises(ValueError, match="hit_rate_tolerance"):
            OnlineProfiler(
                firewall_program, firewall_config,
                hit_rate_tolerance=tolerance,
            )

    def test_zero_tolerance_accepted(self, firewall_program,
                                     firewall_config):
        online = OnlineProfiler(
            firewall_program, firewall_config, hit_rate_tolerance=0.0
        )
        assert online.hit_rate_tolerance == 0.0

    def test_snapshot_covers_all_tables(self, online):
        online.process(udp_packet("10.0.0.1", "192.168.1.1", 1, 9999))
        snap = online.snapshot()
        assert set(snap) == set(online.program.tables)


class TestAlerts:
    def test_no_alerts_on_profiled_traffic(self, online, firewall_trace):
        for entry in firewall_trace[:800]:
            data, port = (
                entry if isinstance(entry, tuple) else (entry, 0)
            )
            online.process(data, port)
        assert online.alerts == []

    def test_new_combination_alert(
        self, firewall_program, firewall_config, firewall_profile
    ):
        """A packet firing both ACL drops — the removed dependency
        manifesting live — raises an alert immediately."""
        config = firewall_config.clone()
        config.add_entry("ACL_UDP", [68], "acl_udp_drop")
        online = OnlineProfiler(
            firewall_program, config, baseline=firewall_profile,
            window=100,
        )
        online.process(
            dhcp_packet("172.16.0.1"),
            ingress_port=fw.UNTRUSTED_INGRESS_PORTS[0],
        )
        kinds = {a.kind for a in online.alerts}
        assert AlertKind.NEW_ACTION_COMBINATION in kinds
        alert = next(
            a for a in online.alerts
            if a.kind is AlertKind.NEW_ACTION_COMBINATION
        )
        assert "ACL_UDP" in alert.subject
        assert "ACL_DHCP" in alert.subject

    def test_hit_rate_drift_alert(self, online):
        """A DNS flood pushes the sketch tables' windowed hit rate far
        above baseline once the window fills."""
        for pkt in dns_stream(fw.HEAVY_DNS_SRC, fw.HEAVY_DNS_DST, 600):
            online.process(pkt)
        drifted = {
            a.subject for a in online.alerts
            if a.kind is AlertKind.HIT_RATE_DRIFT
        }
        assert "Sketch_1" in drifted

    def test_alert_fires_once_per_episode(self, online):
        for pkt in dns_stream(fw.HEAVY_DNS_SRC, fw.HEAVY_DNS_DST, 700):
            online.process(pkt)
        sketch_alerts = [
            a for a in online.alerts
            if a.kind is AlertKind.HIT_RATE_DRIFT
            and a.subject == "Sketch_1"
        ]
        assert len(sketch_alerts) == 1

    def test_alert_callback_invoked(
        self, firewall_program, firewall_config, firewall_profile
    ):
        received = []
        config = firewall_config.clone()
        config.add_entry("ACL_UDP", [68], "acl_udp_drop")
        online = OnlineProfiler(
            firewall_program,
            config,
            baseline=firewall_profile,
            alert_callback=received.append,
        )
        online.process(
            dhcp_packet("172.16.0.1"),
            ingress_port=fw.UNTRUSTED_INGRESS_PORTS[0],
        )
        assert received
        assert received[0].kind is AlertKind.NEW_ACTION_COMBINATION

    def test_no_baseline_no_alerts(self, firewall_program,
                                   firewall_config):
        online = OnlineProfiler(firewall_program, firewall_config)
        for pkt in dns_stream(fw.HEAVY_DNS_SRC, fw.HEAVY_DNS_DST, 100):
            online.process(pkt)
        assert online.alerts == []

    def test_single_hit_sighting_does_not_suppress_later_multi_hit(self):
        """A combination first decoded on a packet where only ONE table
        actually hit (the other pair came from a default-action miss)
        must not be marked seen: the identical pair set arriving later
        as a genuine multi-table hit still has to alert."""
        program = build_toy_program()
        config = toy_config()
        # Make the ACL's *default* the same action its entry fires, so
        # a miss sighting and a genuine hit decode to identical pairs.
        config.set_default("acl", "deny")
        # Baseline traffic never applies the ACL (no UDP), so the
        # {fib.fwd, acl.deny} combination is unseen at start.
        baseline = profile_program(
            program,
            config,
            [tcp_packet("1.1.1.1", "10.0.0.9", 5, 80)] * 4,
        )
        online = OnlineProfiler(
            program, config, baseline=baseline, window=100
        )

        # Sighting 1: acl applied but *misses* — (acl, deny) comes from
        # the default action, only fib hit.  Not alert-worthy, and must
        # not poison the seen set.
        online.process(udp_packet("1.1.1.1", "10.0.0.9", 5, 9999))
        assert online.alerts == []

        # Sighting 2: the same pair set, now from a genuine two-table
        # hit (the acl entry matched).  This is the first real
        # co-firing and must alert.
        online.process(udp_packet("1.1.1.1", "10.0.0.9", 5, 53))
        kinds = [a.kind for a in online.alerts]
        assert kinds == [AlertKind.NEW_ACTION_COMBINATION]
        assert "acl" in online.alerts[0].subject
        assert "fib" in online.alerts[0].subject


class TestReoptimizeStateGuard:
    """A shared session must come back unscathed when a re-run dies."""

    @pytest.fixture
    def shared(self, firewall_program, firewall_config):
        baseline = fw.make_trace(300, seed=0)
        session = OptimizationContext(
            firewall_program, firewall_config, baseline, fw.TARGET
        )
        online = OnlineProfiler(
            firewall_program, firewall_config, session=session
        )
        yield session, online, baseline
        session.close()

    def test_restores_trace_on_invalid_phases(self, shared):
        session, online, baseline = shared
        prior_key = session.trace_key
        with pytest.raises(ValueError):
            online.reoptimize(fw.make_trace(200, seed=3), phases=(9,))
        assert session.trace == baseline
        assert session.trace_key == prior_key

    def test_restores_state_on_midphase_failure(
        self, shared, firewall_program, firewall_config, monkeypatch
    ):
        from repro.core.phase_dependencies import DependencyRemovalPass

        def boom(self, *args, **kwargs):
            raise OptimizationError("injected mid-phase failure")

        monkeypatch.setattr(DependencyRemovalPass, "run", boom)
        session, online, baseline = shared
        prior_key = session.trace_key
        with pytest.raises(OptimizationError):
            online.reoptimize(fw.make_trace(200, seed=3), phases=(2,))
        assert session.trace == baseline
        assert session.trace_key == prior_key
        assert session.program is firewall_program
        assert session.config is firewall_config

    def test_success_rekeys_session_on_new_trace(self, shared):
        session, online, _baseline = shared
        drifted = fw.make_trace(200, seed=3)
        result = online.reoptimize(drifted, phases=(2,))
        assert result.optimized_program is not None
        # On success the new state stays — that *is* the re-key.
        assert session.trace == drifted

    def test_refuses_without_a_session(
        self, firewall_program, firewall_config
    ):
        online = OnlineProfiler(firewall_program, firewall_config)
        with pytest.raises(ValueError, match="monitor's session"):
            online.reoptimize(fw.make_trace(50, seed=3), phases=(2,))


class _ToyTraffic:
    """Packet kinds with known per-packet hit sets on the toy program."""

    PACKETS = {
        "fib_only": udp_packet("1.1.1.1", "10.0.0.9", 5, 9999),
        "fib_acl": udp_packet("1.1.1.1", "10.0.0.9", 5, 53),
        "no_udp": tcp_packet("1.1.1.1", "10.0.0.9", 5, 80),
    }
    HITS = {
        "fib_only": frozenset({"fib"}),
        "fib_acl": frozenset({"fib", "acl"}),
        "no_udp": frozenset({"fib"}),
    }


class TestWindowAccountingProperties:
    """The streaming ``_hit_counts`` bookkeeping must always equal a
    brute-force recount over the last ``window`` packets."""

    program = build_toy_program()
    config = toy_config()

    @given(
        kinds=st.lists(
            st.sampled_from(sorted(_ToyTraffic.PACKETS)),
            min_size=1,
            max_size=60,
        ),
        window=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=30, deadline=None)
    def test_hit_counts_match_brute_force_recount(self, kinds, window):
        online = OnlineProfiler(
            self.program, self.config, window=window
        )
        for kind in kinds:
            online.process(_ToyTraffic.PACKETS[kind])

        recent = kinds[-window:]
        expected = {}
        for kind in recent:
            for table in _ToyTraffic.HITS[kind]:
                expected[table] = expected.get(table, 0) + 1

        for table in self.program.tables:
            assert online._hit_counts.get(table, 0) == expected.get(
                table, 0
            )
            assert online.window_hit_rate(table) == expected.get(
                table, 0
            ) / len(recent)
        # snapshot() is just window_hit_rate over every table.
        assert online.snapshot() == {
            table: online.window_hit_rate(table)
            for table in self.program.tables
        }

    @given(
        baseline=st.lists(
            st.sampled_from(sorted(_ToyTraffic.PACKETS)), min_size=1,
            max_size=8,
        ),
        kinds=st.lists(
            st.sampled_from(sorted(_ToyTraffic.PACKETS)),
            min_size=1,
            max_size=60,
        ),
        window=st.integers(min_value=1, max_value=12),
        tolerance=st.sampled_from([0.0, 0.1, 0.25, 0.5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_drift_alerts_match_an_every_table_recheck(
        self, baseline, kinds, window, tolerance
    ):
        """Re-checking only the tables whose windowed count moved raises
        the alerts a re-check of every table on every packet raises, in
        the same order."""
        profile = profile_program(
            self.program, self.config,
            [_ToyTraffic.PACKETS[kind] for kind in baseline],
        )
        online = OnlineProfiler(
            self.program, self.config, baseline=profile, window=window,
            hit_rate_tolerance=tolerance,
        )
        for kind in kinds:
            online.process(_ToyTraffic.PACKETS[kind])

        expected, drifting = [], set()
        for index in range(window - 1, len(kinds)):
            recent = kinds[index + 1 - window:index + 1]
            for table in self.program.tables:
                live = sum(
                    table in _ToyTraffic.HITS[kind] for kind in recent
                ) / window
                base = profile.hit_rate(table)
                if abs(live - base) > tolerance:
                    if table not in drifting:
                        drifting.add(table)
                        expected.append((
                            table,
                            f"windowed hit rate {live:.1%} vs "
                            f"baseline {base:.1%}",
                            index,
                        ))
                else:
                    drifting.discard(table)
        assert [
            (alert.subject, alert.details, alert.packet_index)
            for alert in online.alerts
            if alert.kind is AlertKind.HIT_RATE_DRIFT
        ] == expected
        assert online._drifting == drifting

"""Unit + property tests for software sketches and their data-plane twins."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ReproError
from repro.packets.packet import unpack_fields
from repro.sketches import BloomFilter, CountMinSketch


def key(*values):
    return tuple((v, 32) for v in values)


class TestCountMinSketch:
    def test_update_and_estimate(self):
        cms = CountMinSketch(width=64, depth=2)
        for _ in range(5):
            cms.update(key(1, 2))
        assert cms.estimate(key(1, 2)) == 5

    def test_never_undercounts(self):
        cms = CountMinSketch(width=8, depth=2)  # tiny: force collisions
        counts = {}
        for i in range(50):
            k = key(i % 7, 0)
            cms.update(k)
            counts[k] = counts.get(k, 0) + 1
        for k, true_count in counts.items():
            assert cms.estimate(k) >= true_count

    @given(
        st.lists(st.integers(0, 20), min_size=1, max_size=200),
    )
    @settings(max_examples=50, deadline=None)
    def test_never_undercounts_property(self, stream):
        cms = CountMinSketch(width=16, depth=2)
        truth = {}
        for value in stream:
            k = key(value)
            cms.update(k)
            truth[k] = truth.get(k, 0) + 1
        assert all(cms.estimate(k) >= c for k, c in truth.items())

    def test_update_returns_estimate(self):
        cms = CountMinSketch(width=64, depth=2)
        assert cms.update(key(9)) == 1
        assert cms.update(key(9)) == 2

    def test_reset(self):
        cms = CountMinSketch(width=16, depth=2)
        cms.update(key(1))
        cms.reset()
        assert cms.estimate(key(1)) == 0

    def test_depth_needs_algorithms(self):
        with pytest.raises(ReproError):
            CountMinSketch(width=8, depth=9)

    def test_bad_dimensions(self):
        with pytest.raises(ReproError):
            CountMinSketch(width=0)
        with pytest.raises(ReproError):
            CountMinSketch(width=8, depth=0)

    def test_memory_accounting(self):
        cms = CountMinSketch(width=100, depth=2)
        assert cms.total_memory_bytes() == 800


class TestBloomFilter:
    def test_membership(self):
        bf = BloomFilter(sizes=[128, 128])
        bf.add(key(1))
        assert bf.contains(key(1))
        assert not bf.contains(key(2))

    def test_no_false_negatives(self):
        bf = BloomFilter(sizes=[32, 32])
        keys = [key(i) for i in range(40)]
        for k in keys:
            bf.add(k)
        assert all(bf.contains(k) for k in keys)

    @given(st.sets(st.integers(0, 1000), max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_no_false_negatives_property(self, values):
        bf = BloomFilter(sizes=[64, 64])
        for v in values:
            bf.add(key(v))
        assert all(bf.contains(key(v)) for v in values)

    def test_reset_and_fill_ratio(self):
        bf = BloomFilter(sizes=[16, 16])
        assert bf.fill_ratio() == 0.0
        bf.add(key(1))
        assert bf.fill_ratio() > 0
        bf.reset()
        assert bf.fill_ratio() == 0.0

    def test_dimension_validation(self):
        with pytest.raises(ReproError):
            BloomFilter(sizes=[])
        with pytest.raises(ReproError):
            BloomFilter(sizes=[4, 4, 4])  # 3 sizes, 2 default algorithms
        with pytest.raises(ReproError):
            BloomFilter(sizes=[0, 4])


class TestDataplaneEquivalence:
    """The shipped programs' data-plane sketches agree with the software
    ones — the property that lets the controller take over an offloaded
    sketch, and fill a data-plane Bloom filter it cannot read back."""

    def test_counts_match_software(self):
        from repro.programs import example_firewall as fw
        from repro.sim import BehavioralSwitch

        program = fw.build_program()
        switch = BehavioralSwitch(program, fw.runtime_config())
        software = CountMinSketch(fw.SKETCH_CELLS)
        ipv4_t = program.header_types["ipv4_t"]
        udp_t = program.header_types["udp_t"]
        queries = 0
        for packet in fw.make_trace(2000):
            data, port = packet if isinstance(packet, tuple) else (packet, 0)
            switch.process(data, port)
            ip = unpack_fields(ipv4_t, data[14:34])
            udp = unpack_fields(udp_t, data[34:42])
            if ip["protocol"] == 17 and udp["dstPort"] == 53:
                software.update(((ip["srcAddr"], 32), (ip["dstAddr"], 32)))
                queries += 1
        assert queries > fw.DNS_QUERY_THRESHOLD
        registers = switch.state.snapshot()
        assert [
            registers["dns_cms_row0"], registers["dns_cms_row1"]
        ] == software.rows

    def test_bloom_fragment_checks_match_software(self):
        from repro.packets.craft import udp_packet
        from repro.programs import sourceguard as sg
        from repro.sim import BehavioralSwitch

        switch = BehavioralSwitch(sg.build_program(), sg.runtime_config())
        software = BloomFilter(sizes=[sg.BLOOM_CELLS, sg.BLOOM_CELLS])
        for source in sg.ASSIGNED_CLIENT_IPS:
            software.add(((source, 32),))

        verdicts = set()
        for source in sg.ASSIGNED_CLIENT_IPS + sg.SPOOFED_IPS:
            result = switch.process(udp_packet(source, "10.0.9.1", 4000, 9000))
            member = software.contains(((source, 32),))
            assert result.dropped is not member
            verdicts.add(member)
        assert verdicts == {True, False}

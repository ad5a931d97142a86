"""Unit + property tests for software sketches and their data-plane twins."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ReproError
from repro.p4 import FieldRef, ModifyField
from repro.packets.packet import unpack_fields
from repro.sketches import BloomFilter, CountMinSketch
from repro.sketches.dataplane import add_bloom_filter, add_count_min_sketch


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
    """The data-plane CMS counts exactly like the software CMS — the
    property that lets the controller take over an offloaded sketch."""

    def build_cms_program(self, cells):
        from repro.p4 import ProgramBuilder, Apply, Seq

        b = ProgramBuilder("cmsprog")
        # ``count`` carries the estimate out in the packet.
        b.header_type("k_t", [("a", 32), ("b", 32), ("count", 32)])
        b.header("k", "k_t")
        b.parser_state("start", extracts=["k"])
        fragment = add_count_min_sketch(
            b, name="cms", key_fields=["k.a", "k.b"], cells=cells
        )
        b.action("expose", [ModifyField(
            FieldRef("k", "count"), FieldRef("cms_meta", "count")
        )])
        b.table("out", keys=[], actions=[], default_action="expose")
        b.ingress(Seq([Apply(t) for t in (*fragment.tables, "out")]))
        return b.build(), fragment

    def test_counts_match_software(self):
        from repro.packets.packet import pack_fields
        from repro.sim import BehavioralSwitch

        program, fragment = self.build_cms_program(cells=64)
        switch = BehavioralSwitch(program)
        software = CountMinSketch(width=64, depth=2)

        stream = [(1, 2)] * 5 + [(3, 4)] * 3 + [(1, 2)] * 2
        last_estimates = {}
        for a, b_val in stream:
            pkt = pack_fields(
                program.header_types["k_t"], {"a": a, "b": b_val}
            )
            result = switch.process(pkt)
            hardware = unpack_fields(
                program.header_types["k_t"], result.output_bytes
            )["count"]
            software_est = software.update(((a, 32), (b_val, 32)))
            assert hardware == software_est
            last_estimates[(a, b_val)] = hardware
        assert last_estimates[(1, 2)] == 7

    def test_bloom_fragment_checks_match_software(self):
        from repro.p4 import ProgramBuilder, Apply, Seq
        from repro.packets.packet import pack_fields
        from repro.sim import BehavioralSwitch, RuntimeConfig
        from repro.sketches.dataplane import preload_bloom_filter

        b = ProgramBuilder("bfprog")
        # ``bit0`` / ``bit1`` carry the checks out in the packet.
        b.header_type("k_t", [("a", 32), ("bit0", 8), ("bit1", 8)])
        b.header("k", "k_t")
        b.parser_state("start", extracts=["k"])
        fragment = add_bloom_filter(
            b, name="bf", key_fields=["k.a"], sizes=[64, 64]
        )
        b.action("expose", [
            ModifyField(FieldRef("k", bit), FieldRef("bf_meta", bit))
            for bit in ("bit0", "bit1")
        ])
        b.table("out", keys=[], actions=[], default_action="expose")
        b.ingress(Seq([Apply(t) for t in (*fragment.check_tables, "out")]))
        program = b.build()

        members = [((i, 32),) for i in (5, 9, 12)]
        config = RuntimeConfig()
        preload_bloom_filter(config, fragment, members)
        switch = BehavioralSwitch(program, config)

        software = BloomFilter(sizes=[64, 64])
        for m in members:
            software.add(m)

        for value in range(20):
            pkt = pack_fields(program.header_types["k_t"], {"a": value})
            result = switch.process(pkt)
            out = unpack_fields(program.header_types["k_t"], result.output_bytes)
            hardware_hit = out["bit0"] == 1 and out["bit1"] == 1
            assert hardware_hit == software.contains(((value, 32),))


class TestFragmentValidation:
    def test_cms_depth_validation(self):
        from repro.p4 import ProgramBuilder

        b = ProgramBuilder("p")
        b.header_type("k_t", [("a", 32)]).header("k", "k_t")
        with pytest.raises(ReproError):
            add_count_min_sketch(
                b, name="c", key_fields=["k.a"], cells=8, depth=1
            )

    def test_bloom_size_mismatch(self):
        from repro.p4 import ProgramBuilder

        b = ProgramBuilder("p")
        b.header_type("k_t", [("a", 32)]).header("k", "k_t")
        with pytest.raises(ReproError):
            add_bloom_filter(
                b, name="f", key_fields=["k.a"], sizes=[8, 8, 8]
            )

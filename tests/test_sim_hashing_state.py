"""Unit + property tests for hashing and switch state."""

import random
import zlib
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import SimulationError
from repro.p4.registers import RegisterArray
from repro.sim.hashing import ALGORITHMS, CRC_SEEDS, compute_hash, crc_start
from repro.sim.state import SwitchState
from tests.conftest import build_toy_program


class TestHashing:
    def test_deterministic(self):
        key = ((0x0A000001, 32), (0x0A000002, 32))
        assert compute_hash("crc32_a", key, 960) == compute_hash(
            "crc32_a", key, 960
        )

    def test_algorithms_differ(self):
        key = ((12345, 32),)
        values = {
            algo: compute_hash(algo, key, 1 << 30)
            for algo in ("crc32_a", "crc32_b", "crc32_c", "fnv1a")
        }
        assert len(set(values.values())) == len(values)

    def test_unknown_algorithm(self):
        with pytest.raises(SimulationError):
            compute_hash("md5", ((1, 8),), 10)

    def test_nonpositive_modulo(self):
        with pytest.raises(SimulationError):
            compute_hash("crc32", ((1, 8),), 0)

    def test_identity_hash(self):
        assert compute_hash("identity", ((42, 32),), 1 << 31) == 42

    @given(
        st.sampled_from(sorted(ALGORITHMS)),
        st.lists(
            st.tuples(
                st.integers(0, 0xFFFFFFFF), st.sampled_from([8, 16, 32])
            ),
            min_size=1,
            max_size=4,
        ).map(
            lambda pairs: tuple(
                (v & ((1 << w) - 1), w) for v, w in pairs
            )
        ),
        st.integers(min_value=1, max_value=100_000),
    )
    def test_result_in_range(self, algo, key, modulo):
        assert 0 <= compute_hash(algo, key, modulo) < modulo

    @pytest.mark.parametrize("algo", sorted(CRC_SEEDS))
    def test_crc_start_resumes_the_seeded_crc(self, algo):
        """The execution plan hashes as ``zlib.crc32(data, crc_start(seed))``
        — one seed table, so it cannot drift from the registry."""
        rng = random.Random(algo)
        inputs = [b""] + [
            rng.randbytes(rng.randrange(1, 40)) for _ in range(200)
        ]
        start = crc_start(CRC_SEEDS[algo])
        for data in inputs:
            assert zlib.crc32(data, start) == ALGORITHMS[algo](data)

    def test_width_affects_serialization(self):
        # The same value at different widths must hash differently in
        # general (byte-serialized input).
        a = compute_hash("crc32", ((1, 8),), 1 << 30)
        b = compute_hash("crc32", ((1, 32),), 1 << 30)
        assert a != b


class TestSwitchState:
    def setup_method(self):
        program = build_toy_program()
        program = replace(
            program,
            registers={
                **program.registers,
                "r": RegisterArray(name="r", width=8, size=4),
            },
        )
        self.state = SwitchState(program)

    def test_read_write(self):
        self.state.write("r", 2, 7)
        assert self.state.read("r", 2) == 7

    def test_write_truncates_to_width(self):
        self.state.write("r", 0, 0x1FF)
        assert self.state.read("r", 0) == 0xFF

    def test_unknown_register(self):
        with pytest.raises(SimulationError):
            self.state.read("ghost", 0)
        with pytest.raises(SimulationError):
            self.state.write("ghost", 0, 1)

    def test_out_of_range_index(self):
        with pytest.raises(SimulationError):
            self.state.read("r", 4)
        with pytest.raises(SimulationError):
            self.state.write("r", -1, 0)

    def test_reset_zeroes(self):
        self.state.write("r", 1, 9)
        self.state.reset()
        assert self.state.read("r", 1) == 0

    def test_reset_keeps_each_array(self):
        """The execution plan binds each array once per switch."""
        arrays = dict(self.state._arrays)
        self.state.write("r", 1, 9)
        self.state.reset()
        assert all(
            self.state._arrays[name] is array
            for name, array in arrays.items()
        )

    def test_snapshot_is_copy(self):
        self.state.write("r", 1, 9)
        snap = self.state.snapshot()
        self.state.write("r", 1, 5)
        assert snap["r"][1] == 9

    def test_nonzero_cells(self):
        assert self.state.nonzero_cells("r") == 0
        self.state.write("r", 0, 1)
        self.state.write("r", 3, 2)
        assert self.state.nonzero_cells("r") == 2

    def test_register_size(self):
        assert self.state.register_size("r") == 4
        with pytest.raises(SimulationError):
            self.state.register_size("ghost")

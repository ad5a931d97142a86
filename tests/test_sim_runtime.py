"""Unit tests for runtime configuration validation."""

from dataclasses import replace

import pytest

from repro.exceptions import RuntimeConfigError
from repro.p4.registers import RegisterArray
from repro.sim.runtime import RuntimeConfig, TableEntry
from tests.conftest import build_toy_program, toy_config


@pytest.fixture
def program():
    return build_toy_program()


class TestValidation:
    def test_valid_config_passes(self, program):
        toy_config().validate(program)

    def test_unknown_table(self, program):
        cfg = RuntimeConfig().add_entry("ghost", [1], "fwd", [1])
        with pytest.raises(RuntimeConfigError):
            cfg.validate(program)

    def test_wrong_match_arity(self, program):
        cfg = RuntimeConfig().add_entry("acl", [53, 54], "deny")
        with pytest.raises(RuntimeConfigError):
            cfg.validate(program)

    def test_exact_value_too_wide(self, program):
        cfg = RuntimeConfig().add_entry("acl", [1 << 16], "deny")
        with pytest.raises(RuntimeConfigError):
            cfg.validate(program)

    def test_exact_spec_must_be_int(self, program):
        cfg = RuntimeConfig().add_entry("acl", [(53, 16)], "deny")
        with pytest.raises(RuntimeConfigError):
            cfg.validate(program)

    def test_lpm_spec_must_be_pair(self, program):
        cfg = RuntimeConfig().add_entry("fib", [5], "fwd", [1])
        with pytest.raises(RuntimeConfigError):
            cfg.validate(program)

    def test_lpm_prefix_out_of_range(self, program):
        cfg = RuntimeConfig().add_entry("fib", [(0, 33)], "fwd", [1])
        with pytest.raises(RuntimeConfigError):
            cfg.validate(program)

    def test_action_not_in_table(self, program):
        cfg = RuntimeConfig().add_entry("acl", [53], "fwd", [1])
        with pytest.raises(RuntimeConfigError):
            cfg.validate(program)

    def test_action_arg_arity(self, program):
        cfg = RuntimeConfig().add_entry("fib", [(0, 0)], "fwd", [])
        with pytest.raises(RuntimeConfigError):
            cfg.validate(program)

    def test_too_many_entries(self, program):
        cfg = RuntimeConfig()
        for port in range(17):  # acl size is 16
            cfg.add_entry("acl", [port], "deny")
        with pytest.raises(RuntimeConfigError):
            cfg.validate(program)

    def test_default_override_validated(self, program):
        cfg = RuntimeConfig().set_default("acl", "fwd", [])
        with pytest.raises(RuntimeConfigError):
            cfg.validate(program)

    def test_register_init_bounds(self, program):
        program = replace(
            program,
            registers={
                **program.registers,
                "r": RegisterArray(name="r", width=8, size=4),
            },
        )
        cfg = RuntimeConfig().init_register("r", 3, 1)
        cfg.validate(program)
        bad = RuntimeConfig().init_register("r", 4, 1)
        with pytest.raises(RuntimeConfigError):
            bad.validate(program)

    def test_hashed_init_unknown_register(self, program):
        cfg = RuntimeConfig().init_register_hashed(
            "ghost", "crc32", ((1, 8),)
        )
        with pytest.raises(RuntimeConfigError):
            cfg.validate(program)


class TestAccessors:
    def test_default_for_uses_table_default(self, program):
        cfg = RuntimeConfig()
        assert cfg.default_for(program.tables["acl"]) == ("NoAction", ())

    def test_default_override(self, program):
        cfg = RuntimeConfig().set_default("acl", "deny")
        assert cfg.default_for(program.tables["acl"]) == ("deny", ())

    def test_entry_count(self):
        cfg = toy_config()
        assert cfg.entry_count("fib") == 2
        assert cfg.entry_count("ghost") == 0

    def test_clone_is_independent(self):
        cfg = toy_config()
        other = cfg.clone()
        other.add_entry("acl", [99], "deny")
        assert cfg.entry_count("acl") == 1
        assert other.entry_count("acl") == 2

    def test_restricted_to(self):
        cfg = toy_config()
        reduced = cfg.restricted_to(["acl"])
        assert reduced.entry_count("fib") == 0
        assert reduced.entry_count("acl") == 1


class TestFromJson:
    @pytest.mark.parametrize(
        "data, message",
        [
            (
                {"entries": {"xlate": [{"match": [1]}]}},
                "table 'xlate' entry 0 has no 'action'",
            ),
            (
                {"entries": {"xlate": [{"match": [1], "action": "a"}, {}]}},
                "table 'xlate' entry 1 has no 'match'",
            ),
            (
                {"entries": {"xlate": [7]}},
                "table 'xlate' entry 0 must be a JSON object, not a int",
            ),
            (
                {"defaults": {"xlate": {}}},
                "table 'xlate' default has no 'action'",
            ),
            ([1, 2], "runtime config must be a JSON object, not a list"),
        ],
        ids=["no-action", "no-match", "not-object", "default", "list"],
    )
    def test_malformed_document_names_the_entry(self, data, message):
        with pytest.raises(RuntimeConfigError) as info:
            RuntimeConfig.from_json(data)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"entries": []}, "'entries' must be a JSON object, not a list"),
            ({"defaults": []}, "'defaults' must be a JSON object, not a list"),
            (
                {"entries": {"xlate": 7}},
                "table 'xlate' entries must be a JSON array, not a int",
            ),
            (
                {"register_inits": {}},
                "'register_inits' must be a JSON array, not a dict",
            ),
            (
                {"register_inits": [["r", 0, 1], [1]]},
                "'register_inits' item 1 must be [register, index, value], "
                "not [1]",
            ),
            (
                {"hashed_inits": [["r"]]},
                "'hashed_inits' item 0 must be [register, algorithm, key, "
                "value], not ['r']",
            ),
        ],
        ids=["entries", "defaults", "table", "inits", "init-row",
             "hashed-row"],
    )
    def test_malformed_section_names_the_key(self, data, message):
        with pytest.raises(RuntimeConfigError) as info:
            RuntimeConfig.from_json(data)
        assert str(info.value) == message

"""Runtime configuration: the match-action rules installed in tables.

This is the second input P2GO needs besides the traffic trace (§2.2: "the
initial runtime configuration of the program, i.e. the match-action rules
installed in the tables").

The config also carries the profiling-engine switch
(``enable_compiled_tables``) and a ``mutations`` stamp bumped by every
entry-mutating call (``add_entry`` / ``set_default``; register inits
only apply at switch construction/reset, so they need no stamp).  The
behavioural switch compares the stamp per packet or batch and drops
its execution plan, which binds the compiled tables and default
actions, when it changed, so rules installed mid-run take effect on the
very next packet; callers that poke ``entries`` or
``default_overrides`` directly must call
``BehavioralSwitch.invalidate_caches`` themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Sequence, Tuple, Union

from repro.exceptions import RuntimeConfigError
from repro.p4.program import Program
from repro.p4.tables import MatchKind, Table
from repro.p4.types import mask

#: Match specs per key kind:
#:   exact   -> int
#:   lpm     -> (value, prefix_len)
#:   ternary -> (value, mask)
MatchSpec = Union[int, Tuple[int, int]]


def _shaped(value: object, kind: type, where: str) -> object:
    """``value`` when it is a ``kind`` (``dict``: a JSON object,
    ``list``: an array); else a RuntimeConfigError naming ``where`` it
    was read."""
    if not isinstance(value, kind):
        shape = "object" if kind is dict else "array"
        raise RuntimeConfigError(
            f"{where} must be a JSON {shape}, not a {type(value).__name__}"
        )
    return value


def _required(item: object, key: str, where: str) -> object:
    """``item[key]`` of one JSON entry, or a RuntimeConfigError saying
    which entry lacks it."""
    if key not in _shaped(item, dict, where):
        raise RuntimeConfigError(f"{where} has no {key!r}")
    return item[key]


def _rows(data: dict, key: str, fields: str) -> List[list]:
    """The rows of a register-init section, each a ``[fields]`` array."""
    rows = _shaped(data.get(key, []), list, repr(key))
    for index, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != len(fields.split(",")):
            raise RuntimeConfigError(
                f"{key!r} item {index} must be [{fields}], not {row!r}"
            )
    return rows


@dataclass(frozen=True)
class TableEntry:
    """One installed rule: match specs, action, action data, priority.

    Priority only matters for ternary tables; larger values win.
    """

    match: Tuple[MatchSpec, ...]
    action: str
    action_args: Tuple[int, ...] = ()
    priority: int = 0


@dataclass
class RuntimeConfig:
    """Entries per table, plus optional default-action overrides."""

    entries: Dict[str, List[TableEntry]] = dc_field(default_factory=dict)
    default_overrides: Dict[str, Tuple[str, Tuple[int, ...]]] = dc_field(
        default_factory=dict
    )
    #: Register cells preloaded at switch start/reset — how a controller
    #: installs e.g. a DHCP-snooping database into a data-plane Bloom
    #: filter before traffic flows (Sourceguard, §4).
    register_inits: List[Tuple[str, int, int]] = dc_field(
        default_factory=list
    )
    #: Hash-addressed preloads: (register, algorithm, ((value, width), ...),
    #: cell value).  The index is computed modulo the register's *current*
    #: size at load time, mirroring a controller that re-installs its
    #: database after the array is resized (phase 3 resizes arrays).
    hashed_inits: List[Tuple[str, str, Tuple[Tuple[int, int], ...], int]] = (
        dc_field(default_factory=list)
    )
    #: The profiling-engine switch: on (the default), packets run on
    #: the compiled program — per-table match structures and the
    #: execution plan, built once per switch; off, on the reference
    #: interpreter the engine is checked against bit-for-bit (the
    #: benchmark baseline and the oracle for equivalence tests).
    enable_compiled_tables: bool = True
    #: Bumped by every mutator so live switches drop their execution
    #: plan.  Mutating ``entries`` or ``default_overrides`` directly
    #: bypasses this — construct a new switch (or call its
    #: ``invalidate_caches()``) after doing so.
    mutations: int = dc_field(default=0, compare=False, repr=False)

    def add_entry(
        self,
        table: str,
        match: Sequence[MatchSpec],
        action: str,
        action_args: Sequence[int] = (),
        priority: int = 0,
    ) -> "RuntimeConfig":
        self.entries.setdefault(table, []).append(
            TableEntry(
                match=tuple(match),
                action=action,
                action_args=tuple(action_args),
                priority=priority,
            )
        )
        self.mutations += 1
        return self

    def set_default(
        self, table: str, action: str, action_args: Sequence[int] = ()
    ) -> "RuntimeConfig":
        self.default_overrides[table] = (action, tuple(action_args))
        self.mutations += 1
        return self

    def init_register(
        self, register: str, index: int, value: int
    ) -> "RuntimeConfig":
        self.register_inits.append((register, index, value))
        return self

    def init_register_hashed(
        self,
        register: str,
        algorithm: str,
        key: Sequence[Tuple[int, int]],
        value: int = 1,
    ) -> "RuntimeConfig":
        self.hashed_inits.append((register, algorithm, tuple(key), value))
        return self

    def entries_for(self, table: str) -> List[TableEntry]:
        return self.entries.get(table, [])

    def entry_count(self, table: str) -> int:
        return len(self.entries.get(table, []))

    def default_for(self, table: Table) -> Tuple[str, Tuple[int, ...]]:
        override = self.default_overrides.get(table.name)
        if override is not None:
            return override
        return (table.default_action, table.default_action_args)

    # ------------------------------------------------------------------
    def validate(self, program: Program) -> None:
        """Check all entries against the program's tables and actions."""
        for table_name, entry_list in self.entries.items():
            table = program.tables.get(table_name)
            if table is None:
                raise RuntimeConfigError(f"unknown table {table_name!r}")
            for entry in entry_list:
                self._validate_entry(program, table, entry)
            if len(entry_list) > table.size:
                raise RuntimeConfigError(
                    f"table {table_name!r}: {len(entry_list)} entries exceed "
                    f"declared size {table.size}"
                )
        for table_name, (action, args) in self.default_overrides.items():
            table = program.tables.get(table_name)
            if table is None:
                raise RuntimeConfigError(f"unknown table {table_name!r}")
            self._validate_action(program, table, action, args)
        for register, index, _value in self.register_inits:
            reg = program.registers.get(register)
            if reg is None:
                raise RuntimeConfigError(f"unknown register {register!r}")
            if not 0 <= index < reg.size:
                raise RuntimeConfigError(
                    f"register {register!r}: init index {index} out of "
                    f"range [0, {reg.size})"
                )
        for register, _algo, _key, _value in self.hashed_inits:
            if register not in program.registers:
                raise RuntimeConfigError(f"unknown register {register!r}")

    def _validate_entry(
        self, program: Program, table: Table, entry: TableEntry
    ) -> None:
        if len(entry.match) != len(table.keys):
            raise RuntimeConfigError(
                f"table {table.name!r}: entry has {len(entry.match)} match "
                f"specs, table has {len(table.keys)} keys"
            )
        for key, spec in zip(table.keys, entry.match):
            width = program.field_width(key.field)
            if key.kind is MatchKind.EXACT:
                if not isinstance(spec, int):
                    raise RuntimeConfigError(
                        f"table {table.name!r}: exact key {key.field} needs "
                        f"an int match spec, got {spec!r}"
                    )
                if spec > mask(width) or spec < 0:
                    raise RuntimeConfigError(
                        f"table {table.name!r}: match value {spec} does not "
                        f"fit in {width} bits"
                    )
            elif key.kind is MatchKind.LPM:
                if not (isinstance(spec, tuple) and len(spec) == 2):
                    raise RuntimeConfigError(
                        f"table {table.name!r}: lpm key {key.field} needs "
                        f"(value, prefix_len), got {spec!r}"
                    )
                value, plen = spec
                if not 0 <= plen <= width:
                    raise RuntimeConfigError(
                        f"table {table.name!r}: prefix length {plen} out of "
                        f"range for {width}-bit field"
                    )
                if value > mask(width) or value < 0:
                    raise RuntimeConfigError(
                        f"table {table.name!r}: match value {value} does not "
                        f"fit in {width} bits"
                    )
            else:  # TERNARY
                if not (isinstance(spec, tuple) and len(spec) == 2):
                    raise RuntimeConfigError(
                        f"table {table.name!r}: ternary key {key.field} needs "
                        f"(value, mask), got {spec!r}"
                    )
                value, tmask = spec
                if value > mask(width) or tmask > mask(width):
                    raise RuntimeConfigError(
                        f"table {table.name!r}: ternary spec does not fit in "
                        f"{width} bits"
                    )
        if entry.action not in table.actions:
            raise RuntimeConfigError(
                f"table {table.name!r}: entry action {entry.action!r} is not "
                f"among the table's actions {list(table.actions)}"
            )
        self._validate_action(program, table, entry.action, entry.action_args)

    @staticmethod
    def _validate_action(
        program: Program, table: Table, action_name: str, args: Tuple[int, ...]
    ) -> None:
        action = program.actions.get(action_name)
        if action is None:
            raise RuntimeConfigError(f"unknown action {action_name!r}")
        if len(args) != len(action.parameters):
            raise RuntimeConfigError(
                f"table {table.name!r}: action {action_name!r} takes "
                f"{len(action.parameters)} args, got {len(args)}"
            )

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """The JSON form ``p2go --config`` reads and fuzz repro files
        carry (schema: :mod:`repro.cli` docstring).  Match-spec and
        hash-key tuples travel as lists; the engine switch does not
        travel."""
        return {
            "entries": {
                table: [
                    {
                        "match": [
                            list(m) if isinstance(m, tuple) else m
                            for m in entry.match
                        ],
                        "action": entry.action,
                        "args": list(entry.action_args),
                        "priority": entry.priority,
                    }
                    for entry in entries
                ]
                for table, entries in self.entries.items()
            },
            "defaults": {
                table: {"action": action, "args": list(args)}
                for table, (action, args) in self.default_overrides.items()
            },
            "register_inits": [list(init) for init in self.register_inits],
            "hashed_inits": [
                [reg, algo, [list(k) for k in key], value]
                for reg, algo, key, value in self.hashed_inits
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "RuntimeConfig":
        """Inverse of :meth:`to_json`; every top-level key is optional.

        A malformed document raises :class:`RuntimeConfigError` naming
        the key, the table (and the entry's index) or the register-init
        row it could not read.
        """
        _shaped(data, dict, "runtime config")
        config = cls()
        entries_of = _shaped(data.get("entries", {}), dict, "'entries'")
        for table, entries in entries_of.items():
            entries = _shaped(entries, list, f"table {table!r} entries")
            for index, entry in enumerate(entries):
                where = f"table {table!r} entry {index}"
                match = [
                    tuple(m) if isinstance(m, list) else m
                    for m in _required(entry, "match", where)
                ]
                config.add_entry(
                    table,
                    match,
                    _required(entry, "action", where),
                    entry.get("args", []),
                    entry.get("priority", 0),
                )
        defaults = _shaped(data.get("defaults", {}), dict, "'defaults'")
        for table, default in defaults.items():
            config.set_default(
                table,
                _required(default, "action", f"table {table!r} default"),
                default.get("args", []),
            )
        for register, index, value in _rows(
            data, "register_inits", "register, index, value"
        ):
            config.init_register(register, index, value)
        for register, algo, key, value in _rows(
            data, "hashed_inits", "register, algorithm, key, value"
        ):
            config.init_register_hashed(
                register, algo, [tuple(k) for k in key], value
            )
        return config

    def clone(self) -> "RuntimeConfig":
        return RuntimeConfig(
            entries={t: list(es) for t, es in self.entries.items()},
            default_overrides=dict(self.default_overrides),
            register_inits=list(self.register_inits),
            hashed_inits=list(self.hashed_inits),
            enable_compiled_tables=self.enable_compiled_tables,
        )

    def restricted_to(self, tables: Sequence[str]) -> "RuntimeConfig":
        """Entries for a subset of tables (used for offloaded segments).

        Register preloads are kept only if the register still exists in the
        consuming program — the caller prunes further if needed.
        """
        keep = set(tables)
        return RuntimeConfig(
            entries={
                t: list(es) for t, es in self.entries.items() if t in keep
            },
            default_overrides={
                t: v for t, v in self.default_overrides.items() if t in keep
            },
            register_inits=list(self.register_inits),
            hashed_inits=list(self.hashed_inits),
            enable_compiled_tables=self.enable_compiled_tables,
        )

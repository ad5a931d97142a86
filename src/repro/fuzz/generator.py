"""Seeded generation of random well-formed (program, config, trace) cases.

Random programs stress every optimizer subsystem at once — passes,
session memoization, parallel probing, the store, and the engine — on
shapes the six hand-written examples never take.  Generation is
constrained just enough that every case is *legal* input:

* header chains are byte-aligned and linear (``h0 → h1 → …``), each
  link selected by a dedicated 8-bit tag field, so crafted packets
  always satisfy the parse graph they trigger;
* every table is applied exactly once and all referenced fields exist,
  so :meth:`~repro.p4.program.Program.validate` passes by construction;
* table entries respect each :class:`~repro.p4.tables.MatchKind`'s
  match-spec shape and the key's field width;
* programs stay small (≤ 8 tables, register arrays ≤ 1 KB) so they
  compile on :data:`~repro.target.model.DEFAULT_TARGET` and a full
  pipeline run takes milliseconds, keeping big campaigns cheap.

Everything derives from one :class:`random.Random` seeded with the case
seed: the same seed always reproduces the same case, byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.p4 import (
    AddToField,
    Apply,
    BinOp,
    Const,
    Drop,
    FieldRef,
    HashFields,
    If,
    LNot,
    ModifyField,
    NoOp,
    ParamRef,
    Program,
    ProgramBuilder,
    RegisterRead,
    RegisterSize,
    RegisterWrite,
    Seq,
    SetEgressPort,
    ValidExpr,
)
from repro.p4.control import ControlNode
from repro.packets.packet import pack_fields
from repro.sim.runtime import RuntimeConfig
from repro.target.model import DEFAULT_TARGET, TargetModel
from repro.traffic.generators import TracePacket

#: Field widths the generator draws from.  All are byte multiples, so
#: header byte layouts never straddle bytes and crafted packets are
#: trivially alignable.
FIELD_WIDTHS = (8, 16, 32)

#: Hash families available to generated sketch-style actions.
HASH_ALGOS = ("crc32_a", "crc32_b", "crc32_c", "crc32_d", "fnv1a")

MATCH_KINDS = ("exact", "lpm", "ternary")


@dataclass
class GeneratedCase:
    """One fuzz case: everything a differential run needs."""

    seed: int
    program: Program
    config: RuntimeConfig
    trace: List[TracePacket]
    target: TargetModel = dc_field(default_factory=lambda: DEFAULT_TARGET)

    def replace_trace(self, trace: Sequence[TracePacket]) -> "GeneratedCase":
        return GeneratedCase(
            seed=self.seed,
            program=self.program,
            config=self.config,
            trace=list(trace),
            target=self.target,
        )


@dataclass
class _HeaderPlan:
    """One link of the generated parse chain."""

    instance: str
    type_name: str
    fields: List[Tuple[str, int]]  # includes the tag field if chained
    tag_field: Optional[str]  # selector toward the next header
    tag_value: Optional[int]  # value that continues the chain


def _value_pool(rng: random.Random, width: int) -> List[int]:
    """A handful of values entries *and* packets draw from, so random
    tables actually hit on random traffic."""
    limit = (1 << width) - 1
    pool = {0, limit, rng.randrange(limit + 1)}
    while len(pool) < 4:
        pool.add(rng.randrange(limit + 1))
    return sorted(pool)


def _plan_headers(rng: random.Random) -> List[_HeaderPlan]:
    depth = rng.randint(1, 3)
    plans: List[_HeaderPlan] = []
    for i in range(depth):
        fields: List[Tuple[str, int]] = []
        chained = i < depth - 1
        tag_field = None
        tag_value = None
        if chained:
            tag_field = "nxt"
            tag_value = rng.randint(1, 254)
            fields.append((tag_field, 8))
        for j in range(rng.randint(1, 3)):
            fields.append((f"f{j}", rng.choice(FIELD_WIDTHS)))
        plans.append(
            _HeaderPlan(
                instance=f"h{i}",
                type_name=f"h{i}_t",
                fields=fields,
                tag_field=tag_field,
                tag_value=tag_value,
            )
        )
    return plans


def _build_actions(
    rng: random.Random,
    b: ProgramBuilder,
    headers: List[_HeaderPlan],
    registers: List[str],
) -> List[Tuple[str, int]]:
    """Declare a random action pool; returns ``(name, n_params)`` pairs."""
    actions: List[Tuple[str, int]] = []

    def header_field(plan: _HeaderPlan) -> FieldRef:
        name, _w = rng.choice(plan.fields)
        return FieldRef(plan.instance, name)

    n_actions = rng.randint(3, 5)
    for i in range(n_actions):
        kind = rng.choice(["fwd", "drop", "mark", "rewrite", "nop"])
        name = f"{kind}_{i}"
        if kind == "fwd":
            b.action(name, [SetEgressPort(ParamRef("port"))],
                     parameters=["port"])
            actions.append((name, 1))
        elif kind == "drop":
            b.action(name, [Drop()])
            actions.append((name, 0))
        elif kind == "mark":
            b.action(
                name,
                [
                    ModifyField(FieldRef("meta", "mark"),
                                Const(rng.randrange(1 << 16))),
                    AddToField(FieldRef("meta", "counter"), Const(1)),
                ],
            )
            actions.append((name, 0))
        elif kind == "rewrite":
            plan = rng.choice(headers)
            b.action(
                name,
                [ModifyField(header_field(plan), ParamRef("value"))],
                parameters=["value"],
            )
            actions.append((name, 1))
        else:
            b.action(name, [NoOp()])
            actions.append((name, 0))
    return actions


def _random_condition(
    rng: random.Random, headers: List[_HeaderPlan]
) -> "BinOp":
    plan = rng.choice(headers)
    name, width = rng.choice(plan.fields)
    op = rng.choice((">=", "<", "==", "!="))
    threshold = rng.randrange(1 << width)
    cond = BinOp(op, FieldRef(plan.instance, name), Const(threshold))
    if rng.random() < 0.2:
        return LNot(cond)
    return cond


def generate_program(
    rng: random.Random, name: str = "fuzzed"
) -> Tuple[Program, Dict[FieldRef, List[int]], List[_HeaderPlan]]:
    """Build one random validated program.

    Returns the program, the per-key-field value pools (shared with
    entry and packet generation), and the header plans (shared with
    packet crafting).
    """
    b = ProgramBuilder(name)
    headers = _plan_headers(rng)
    for plan in headers:
        b.header_type(plan.type_name, plan.fields)
        b.header(plan.instance, plan.type_name)
    b.metadata(
        "meta", [("mark", 16), ("counter", 32), ("index", 32)]
    )

    registers = []
    for i in range(rng.randint(0, 2)):
        reg = f"reg{i}"
        b.register(reg, width=32, size=rng.choice((16, 32, 64)))
        registers.append(reg)

    # Linear parse chain selected on each link's tag field.
    for i, plan in enumerate(headers):
        nxt = headers[i + 1] if i + 1 < len(headers) else None
        b.parser_state(
            f"parse_{plan.instance}" if i else "start",
            extracts=[plan.instance],
            select=(
                f"{plan.instance}.{plan.tag_field}" if nxt else None
            ),
            transitions=(
                {plan.tag_value: f"parse_{nxt.instance}"} if nxt else None
            ),
        )
    b.parser_start("start")

    actions = _build_actions(rng, b, headers, registers)

    # Tables: each keys on 1-2 random fields; widths recorded per key
    # field so entries and packets share value pools.
    pools: Dict[FieldRef, List[int]] = {}
    tables: List[Tuple[str, _HeaderPlan, List[Tuple[FieldRef, str, int]]]] = []
    n_tables = rng.randint(3, 8)
    # Register arrays must be owned by exactly one table (the target
    # compiler enforces this), so each register gets a dedicated
    # counting action attached to a single distinct table.
    owner_tables = rng.sample(range(n_tables), len(registers))
    for reg_index, reg in enumerate(registers):
        key = rng.choice(headers[0].fields)
        b.action(
            f"count_{reg}",
            [
                HashFields(
                    FieldRef("meta", "index"),
                    rng.choice(HASH_ALGOS),
                    (FieldRef(headers[0].instance, key[0]),),
                    RegisterSize(reg),
                ),
                RegisterRead(
                    FieldRef("meta", "counter"), reg,
                    FieldRef("meta", "index"),
                ),
                AddToField(FieldRef("meta", "counter"), Const(1)),
                RegisterWrite(
                    reg, FieldRef("meta", "index"),
                    FieldRef("meta", "counter"),
                ),
            ],
        )
    for i in range(n_tables):
        tname = f"t{i}"
        guard_plan = rng.choice(headers)
        keys: List[Tuple[FieldRef, str, int]] = []
        n_keys = rng.randint(1, 2)
        for _ in range(n_keys):
            if rng.random() < 0.12:
                ref = FieldRef("standard_metadata", "ingress_port")
                width = 9
            else:
                fname, width = rng.choice(guard_plan.fields)
                ref = FieldRef(guard_plan.instance, fname)
            if not any(k[0] == ref for k in keys):
                keys.append((ref, rng.choice(MATCH_KINDS), width))
        for ref, _kind, width in keys:
            pools.setdefault(ref, _value_pool(rng, width))
        table_actions = rng.sample(
            actions, rng.randint(1, min(3, len(actions)))
        )
        if i in owner_tables:
            reg = registers[owner_tables.index(i)]
            table_actions = table_actions + [(f"count_{reg}", 0)]
        default = "NoAction"
        default_args: Tuple[int, ...] = ()
        if rng.random() < 0.4:
            dname, n_params = rng.choice(table_actions)
            default = dname
            default_args = tuple(
                rng.randrange(1, 64) for _ in range(n_params)
            )
        b.table(
            tname,
            keys=[(ref, kind) for ref, kind, _w in keys],
            actions=[a for a, _n in table_actions],
            default_action=default,
            default_action_args=default_args,
            size=rng.choice((16, 64, 256)),
        )
        tables.append((tname, guard_plan, keys))

    # Control: one Apply per table, some guarded by validity, some
    # nested under random conditions or another apply's miss branch.
    nodes: List[ControlNode] = []
    pending: List[ControlNode] = []
    for tname, guard_plan, _keys in tables:
        node: ControlNode = Apply(tname)
        if pending and rng.random() < 0.25:
            node = Apply(tname, on_miss=pending.pop())
        if rng.random() < 0.7:
            node = If(ValidExpr(guard_plan.instance), node)
        elif rng.random() < 0.3:
            node = If(_random_condition(rng, headers), node)
        if rng.random() < 0.2:
            pending.append(node)
        else:
            nodes.append(node)
    nodes.extend(pending)
    rng.shuffle(nodes)
    b.ingress(Seq(nodes))
    return b.build(), pools, headers


def _match_spec(rng, kind: str, width: int, pool: List[int]):
    value = (
        rng.choice(pool) if rng.random() < 0.75
        else rng.randrange(1 << width)
    )
    if kind == "exact":
        return value
    if kind == "lpm":
        plen = rng.randint(0, width)
        mask = ((1 << plen) - 1) << (width - plen) if plen else 0
        return (value & mask, plen)
    tmask = rng.randrange(1 << width)
    return (value & tmask, tmask)


def generate_config(
    rng: random.Random,
    program: Program,
    pools: Dict[FieldRef, List[int]],
) -> RuntimeConfig:
    """Random legal entries (including zero-entry tables) + defaults."""
    cfg = RuntimeConfig()
    for table in program.tables.values():
        for _ in range(rng.randint(0, 5)):
            match = []
            for key in table.keys:
                width = program.field_width(key.field)
                pool = pools.get(key.field, [0])
                match.append(
                    _match_spec(rng, key.kind.value, width, pool)
                )
            aname = rng.choice(table.actions)
            action = program.actions[aname]
            args = [
                rng.randrange(1, 64) for _ in action.parameters
            ]
            cfg.add_entry(
                table.name, match, aname, args,
                priority=rng.randint(0, 3),
            )
        if rng.random() < 0.15:
            choices = [
                a for a in table.actions
                if not program.actions[a].parameters
            ]
            if choices:
                cfg.set_default(table.name, rng.choice(choices), [])
    for reg in program.registers.values():
        if rng.random() < 0.3:
            cfg.init_register(
                reg.name,
                rng.randrange(reg.size),
                rng.randrange(1 << reg.width),
            )
    cfg.validate(program)
    return cfg


def generate_trace(
    rng: random.Random,
    program: Program,
    pools: Dict[FieldRef, List[int]],
    headers: List[_HeaderPlan],
    count: int,
) -> List[TracePacket]:
    """Craft ``count`` packets walking random prefixes of the parse chain.

    Field values are drawn from the same pools the entries use (so
    tables hit), with a random tail of payload bytes.  Some packets
    carry an explicit ingress port.
    """
    packets: List[TracePacket] = []
    types = program.header_types
    for _ in range(count):
        depth = rng.randint(1, len(headers))
        if len(headers) > 1 and rng.random() < 0.6:
            depth = len(headers)  # bias toward the full chain
        data = b""
        for i in range(depth):
            plan = headers[i]
            values: Dict[str, int] = {}
            for fname, width in plan.fields:
                ref = FieldRef(plan.instance, fname)
                pool = pools.get(ref)
                if pool is not None and rng.random() < 0.7:
                    values[fname] = rng.choice(pool)
                else:
                    values[fname] = rng.randrange(1 << width)
            if plan.tag_field is not None:
                if i + 1 < depth:
                    values[plan.tag_field] = plan.tag_value
                elif values[plan.tag_field] == plan.tag_value:
                    values[plan.tag_field] = (plan.tag_value + 1) % 255
            data += pack_fields(types[plan.type_name], values)
        data += bytes(
            rng.randrange(256) for _ in range(rng.randint(0, 6))
        )
        if rng.random() < 0.3:
            packets.append((data, rng.randint(0, 7)))
        else:
            packets.append(data)
    return packets


def generate_case(
    seed: int,
    trace_packets: Optional[int] = None,
    target: TargetModel = DEFAULT_TARGET,
) -> GeneratedCase:
    """The generator's entry point: one fully seeded fuzz case."""
    rng = random.Random(seed)
    program, pools, headers = generate_program(rng, name=f"fuzz_{seed}")
    config = generate_config(rng, program, pools)
    count = (
        trace_packets if trace_packets is not None
        else rng.randint(80, 160)
    )
    trace = generate_trace(rng, program, pools, headers, count)
    return GeneratedCase(
        seed=seed, program=program, config=config, trace=trace,
        target=target,
    )

"""Greedy minimization of failing fuzz cases + replayable repro files.

Given a case on which some oracle axis disagrees, the shrinker removes
whatever it can — packets, table entries, whole tables (with their
control-flow sites), then unused actions and registers — re-running the
failing axes after every candidate removal and keeping only removals
that still reproduce a disagreement.  The result is the usual
delta-debugging fixed point: a case where every remaining packet, entry
and table is necessary.

The minimized case is written as a self-contained JSON repro file: the
program as DSL text, the runtime config in the CLI's JSON schema, the
trace as hex packets with ingress ports, and the target geometry.
``load_repro`` / ``replay_repro`` rebuild the case and re-run the axes,
so a repro file is a one-command regression test.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.fuzz.differential import ALL_AXES, AxisFailure, run_axes
from repro.fuzz.generator import GeneratedCase
from repro.p4.actions import Action
from repro.p4.control import Apply, ControlNode, If, Seq
from repro.p4.dsl import parse_program, print_program
from repro.p4.program import Program
from repro.p4.registers import RegisterArray
from repro.p4.tables import Table
from repro.sim.runtime import RuntimeConfig
from repro.target.model import TargetModel
from repro.traffic.generators import TracePacket

#: Checks whether a (possibly reduced) case still fails.
Failing = Callable[[GeneratedCase], bool]


def _signature(failure: AxisFailure) -> Tuple[str, bool]:
    """What kind of failure this is: (axis, is-crash)."""
    return failure.axis, failure.detail.startswith("crash")


# ----------------------------------------------------------------------
# Program surgery


def _drop_apply(node: ControlNode, table: str) -> Optional[ControlNode]:
    """Rebuild ``node`` without the apply of ``table``.

    The removed apply's hit/miss subtrees are spliced into its place so
    nested applies survive (the shrinker will try them separately).
    """
    if isinstance(node, Apply):
        on_hit = (
            _drop_apply(node.on_hit, table) if node.on_hit else None
        )
        on_miss = (
            _drop_apply(node.on_miss, table) if node.on_miss else None
        )
        if node.table == table:
            kept = [n for n in (on_hit, on_miss) if n is not None]
            if not kept:
                return None
            return kept[0] if len(kept) == 1 else Seq(kept)
        return Apply(node.table, on_hit=on_hit, on_miss=on_miss)
    if isinstance(node, If):
        then_node = _drop_apply(node.then_node, table)
        else_node = (
            _drop_apply(node.else_node, table) if node.else_node else None
        )
        if then_node is None:
            if else_node is None:
                return None
            then_node = Seq([])
        return If(node.condition, then_node, else_node)
    if isinstance(node, Seq):
        children = [
            child
            for child in (_drop_apply(n, table) for n in node.nodes)
            if child is not None
        ]
        return Seq(children)
    return node


def remove_table(case: GeneratedCase, table: str) -> Optional[GeneratedCase]:
    """``case`` without ``table`` (and its entries); None if the result
    does not validate."""
    original = case.program
    tables = {
        name: kept for name, kept in original.tables.items() if name != table
    }
    actions, registers = _referenced(tables, original)
    config = case.config.clone()
    config.entries.pop(table, None)
    config.default_overrides.pop(table, None)
    config.register_inits = [
        init for init in config.register_inits if init[0] in registers
    ]
    config.hashed_inits = [
        init for init in config.hashed_inits if init[0] in registers
    ]
    try:
        program = dataclasses.replace(
            original,
            tables=tables,
            actions=actions,
            registers=registers,
            ingress=_drop_apply(original.ingress, table) or Seq([]),
            egress=_drop_apply(original.egress, table) or Seq([]),
        )
        config.validate(program)
    except Exception:
        return None
    return GeneratedCase(
        seed=case.seed,
        program=program,
        config=config,
        trace=list(case.trace),
        target=case.target,
    )


def _referenced(
    tables: Dict[str, Table], program: Program
) -> Tuple[Dict[str, Action], Dict[str, RegisterArray]]:
    """``program``'s actions that ``tables`` reference, and the registers
    those actions use."""
    referenced = {"NoAction"}
    for table in tables.values():
        referenced.update(table.actions)
        referenced.add(table.default_action)
    actions = {
        name: action
        for name, action in program.actions.items()
        if name in referenced
    }
    used_registers = set()
    for action in actions.values():
        used_registers.update(action.registers_read())
        used_registers.update(action.registers_written())
    registers = {
        name: register
        for name, register in program.registers.items()
        if name in used_registers
    }
    return actions, registers


# ----------------------------------------------------------------------
# Reduction passes


def _shrink_trace(case: GeneratedCase, failing: Failing) -> GeneratedCase:
    """ddmin-style chunk removal over the packet list."""
    trace = list(case.trace)
    chunk = max(1, len(trace) // 2)
    while True:
        removed = False
        i = 0
        while i < len(trace):
            candidate = trace[:i] + trace[i + chunk:]
            if candidate and failing(case.replace_trace(candidate)):
                trace = candidate
                removed = True
            else:
                i += chunk
        case = case.replace_trace(trace)
        if chunk == 1 and not removed:
            return case
        chunk = max(1, chunk // 2) if not removed else chunk
        if chunk > len(trace):
            chunk = max(1, len(trace) // 2)


def _shrink_tables(case: GeneratedCase, failing: Failing) -> GeneratedCase:
    progress = True
    while progress:
        progress = False
        for table in sorted(case.program.tables):
            candidate = remove_table(case, table)
            if candidate is not None and failing(candidate):
                case = candidate
                progress = True
                break
    return case


def _shrink_entries(case: GeneratedCase, failing: Failing) -> GeneratedCase:
    progress = True
    while progress:
        progress = False
        for table in sorted(case.config.entries):
            entries = case.config.entries[table]
            for i in range(len(entries)):
                config = case.config.clone()
                config.entries[table] = (
                    entries[:i] + entries[i + 1:]
                )
                if not config.entries[table]:
                    del config.entries[table]
                candidate = GeneratedCase(
                    seed=case.seed,
                    program=case.program,
                    config=config,
                    trace=list(case.trace),
                    target=case.target,
                )
                if failing(candidate):
                    case = candidate
                    progress = True
                    break
            if progress:
                break
    return case


def shrink_case(
    case: GeneratedCase,
    axes: Sequence[str] = ALL_AXES,
    mutator=None,
    store_root: Optional[str] = None,
    max_checks: int = 400,
) -> Tuple[GeneratedCase, AxisFailure]:
    """Minimize ``case`` while some axis in ``axes`` still disagrees.

    Returns the minimized case and the failure it still exhibits.
    Raises ``ValueError`` if the case does not fail to begin with.
    ``max_checks`` bounds the number of oracle re-runs (each re-run is
    several full pipeline executions).
    """
    budget = {"left": max_checks}

    initial = run_axes(case, axes, mutator=mutator, store_root=store_root)
    if not initial:
        raise ValueError("case does not fail; nothing to shrink")
    # Pin the failure's shape: a reduction only counts if it still fails
    # on the same axis in the same way (disagreement vs crash).  Without
    # this, deleting every table "reproduces" by crashing the profiler —
    # a different bug than the one being minimized.
    target = _signature(initial[0])

    def matching(failures: List[AxisFailure]) -> Optional[AxisFailure]:
        for failure in failures:
            if _signature(failure) == target:
                return failure
        return None

    def failing(candidate: GeneratedCase) -> bool:
        if budget["left"] <= 0:
            return False
        budget["left"] -= 1
        failures = run_axes(
            candidate,
            axes,
            mutator=mutator,
            store_root=store_root,
            stop_on_first=False,
        )
        return matching(failures) is not None

    case = _shrink_trace(case, failing)
    case = _shrink_tables(case, failing)
    case = _shrink_entries(case, failing)
    case = _shrink_trace(case, failing)  # table removals unlock packets
    final = run_axes(
        case, axes, mutator=mutator, store_root=store_root,
        stop_on_first=False,
    )
    return case, (matching(final) or initial[0])


# ----------------------------------------------------------------------
# Repro files


def write_repro(
    path: Path,
    case: GeneratedCase,
    failure: AxisFailure,
    axes: Sequence[str] = ALL_AXES,
) -> Path:
    """Serialize a (minimized) failing case as a replayable JSON file."""
    packets = []
    for entry in case.trace:
        data, port = entry if isinstance(entry, tuple) else (entry, None)
        packets.append({"data": data.hex(), "port": port})
    payload = {
        "seed": case.seed,
        "axes": list(axes),
        "failure": {"axis": failure.axis, "detail": failure.detail},
        "program": print_program(case.program),
        "config": case.config.to_json(),
        "trace": packets,
        "target": dataclasses.asdict(case.target),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def load_repro(path: Path) -> Tuple[GeneratedCase, List[str]]:
    """Rebuild the case and the axis list from a repro file."""
    payload = json.loads(Path(path).read_text())
    program = parse_program(payload["program"], name=f"repro_{payload['seed']}")
    trace: List[TracePacket] = []
    for packet in payload["trace"]:
        data = bytes.fromhex(packet["data"])
        if packet.get("port") is None:
            trace.append(data)
        else:
            trace.append((data, packet["port"]))
    case = GeneratedCase(
        seed=payload["seed"],
        program=program,
        config=RuntimeConfig.from_json(payload["config"]),
        trace=trace,
        target=TargetModel(**payload["target"]),
    )
    return case, list(payload.get("axes", ALL_AXES))


def replay_repro(
    path: Path, store_root: Optional[str] = None
) -> List[AxisFailure]:
    """Re-run a repro file's axes; empty list means it no longer fails."""
    case, axes = load_repro(path)
    return run_axes(case, axes, store_root=store_root)

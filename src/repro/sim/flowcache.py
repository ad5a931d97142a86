"""Flow-result cache: memoized table-walk verdicts for stateless packets.

Two packets whose *match-relevant* header bytes agree traverse the exact
same control path, match the same entries, and execute the same actions —
provided no executed action touches a register.  The cache exploits this:

* :func:`analyze_program` statically over-approximates the fields the
  pipeline may *read* (table keys, ``if`` conditions, every expression
  operand inside every action, hash inputs, register indices) and the
  actions that touch registers.  Only *packet* headers contribute key
  fields: metadata starts zeroed for every packet except
  ``ingress_port``, which is part of the key separately.
* The cache key is ``(ingress_port, read-field values, valid-header
  set)``, built from the freshly parsed packet before any execution.
* A cached :class:`FlowVerdict` stores the traversal *delta* — the
  execution steps, the final values of every field the pipeline wrote,
  and header validity changes — **not** the final packet.  Replaying a
  verdict applies the delta to the new packet's own parsed headers, so
  pass-through fields the pipeline never reads or writes (TCP sequence
  numbers, DHCP transaction ids, payloads) keep their per-packet values
  bit-for-bit.

What may be memoized: traversals whose executed actions perform no
``register_read``/``register_write``.  Their outcome is a pure function
of the key (written values can only depend on read fields, which the key
covers, and on entry action data, which is constant between config
mutations), so no register write can change it and only a config
mutation drops it.  A verdict is built on a key's **second** sighting:
the first leaves :data:`SEEN` and runs the plain traversal; a second
that touched a register leaves :data:`STATEFUL` instead, and that key
skips verdict work from then on — sound because every decision before a
traversal's first register access is a function of the key, so an equal
key reaches that same access (DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Set, Tuple, Union

from repro.p4.control import Apply, If, iter_nodes
from repro.p4.expressions import FieldRef, fields_read
from repro.p4.program import Program
from repro.sim.events import ExecutionStep

#: A cache key: (ingress_port, read-field values, valid packet headers).
FlowKey = Tuple[int, Tuple[int, ...], FrozenSet[str]]

#: Marks: key sighted once; key whose traversal touches a register.
SEEN, STATEFUL = "seen", "stateful"


@dataclass(frozen=True)
class FlowAnalysis:
    """Static facts the cache needs about one program."""

    #: (header, field) pairs whose initial values the pipeline may read,
    #: restricted to packet headers (metadata starts identical for every
    #: packet), in deterministic order.
    key_fields: Tuple[Tuple[str, str], ...]
    #: Names of actions containing register reads or writes.
    stateful_actions: FrozenSet[str]


def analyze_program(program: Program) -> FlowAnalysis:
    """Derive the cache-key field set and the stateful-action set.

    The read set is a *static over-approximation*: it unions the reads of
    every table key, every control-flow condition, and every action in
    the program, whether or not a given packet executes them.  That keeps
    the key sound without tracking per-packet control paths.
    """
    reads: Set[FieldRef] = set()
    for root in (program.ingress, program.egress):
        for node in iter_nodes(root):
            if isinstance(node, If):
                reads.update(fields_read(node.condition))
            elif isinstance(node, Apply):
                reads.update(k.field for k in program.tables[node.table].keys)

    stateful: Set[str] = set()
    for action in program.actions.values():
        reads.update(action.reads())
        if action.registers_read() or action.registers_written():
            stateful.add(action.name)

    metadata = {inst.name for inst in program.metadata_headers()}
    key_fields = tuple(sorted(
        (ref.header, ref.field)
        for ref in reads
        if ref.header not in metadata
    ))
    return FlowAnalysis(
        key_fields=key_fields, stateful_actions=frozenset(stateful)
    )


def compile_key_extractor(key_fields: Tuple[Tuple[str, str], ...]):
    """Build ``headers -> tuple(field values)`` for the cache key.

    Exec-compiled into one tuple literal when names permit (invalid
    headers contribute 0, mirroring the read-of-invalid convention);
    generic closure otherwise.
    """
    if not key_fields:
        return lambda headers: ()
    names = {n for pair in key_fields for n in pair}
    if all(n.isidentifier() for n in names):
        header_vars: Dict[str, str] = {}
        lines = ["def extract(headers):"]
        for header, _field in key_fields:
            if header not in header_vars:
                var = f"h{len(header_vars)}"
                header_vars[header] = var
                lines.append(f"    {var} = headers.get({header!r})")
        elems = ", ".join(
            f"({header_vars[h]}[{f!r}] if {header_vars[h]} is not None "
            "else 0)"
            for h, f in key_fields
        )
        comma = "," if len(key_fields) == 1 else ""
        lines.append(f"    return ({elems}{comma})")
        namespace: Dict[str, object] = {}
        exec("\n".join(lines), namespace)  # noqa: S102
        return namespace["extract"]

    def extract(headers: Dict[str, Dict[str, int]]) -> Tuple[int, ...]:
        values = []
        for header, field_name in key_fields:
            fields = headers.get(header)
            values.append(0 if fields is None else fields[field_name])
        return tuple(values)

    return extract


@dataclass(frozen=True)
class FlowVerdict:
    """The memoized outcome of one stateless traversal (a delta).

    ``writes`` holds the final value of every field the pipeline wrote
    whose header dict survived to the end of the traversal; ``added`` /
    ``removed`` record header-validity changes relative to the freshly
    parsed packet.  Scalar forwarding outputs are stored directly so
    replay never re-reads metadata.
    """

    steps: Tuple[ExecutionStep, ...]
    writes: Tuple[Tuple[str, str, int], ...]
    added: Tuple[str, ...]
    removed: Tuple[str, ...]
    egress_port: int
    dropped: bool
    to_controller: bool
    controller_reason: int
    #: Headers the delta touches (written / added / removed).  Replay must
    #: re-serialize these; every other valid packet header is bit-identical
    #: to its slice of the incoming packet, which the deparse fast path
    #: reuses directly.
    dirty: FrozenSet[str] = frozenset()


class FlowCache:
    """A bounded mapping from :data:`FlowKey` to :data:`SEEN`,
    :data:`STATEFUL` or a :class:`FlowVerdict`; marks take a slot each.

    Capacity is enforced by flushing wholesale when full — cheap, and the
    next window of flows re-warms immediately.  The switch reports the
    flush through ``PerfCounters.cache_evictions``.
    """

    def __init__(self, capacity: int = 65536):
        if capacity <= 0:
            raise ValueError("flow cache capacity must be positive")
        self.capacity = capacity
        self._entries: Dict[FlowKey, Union[str, FlowVerdict]] = {}

    def get(self, key: FlowKey) -> Union[None, str, FlowVerdict]:
        return self._entries.get(key)

    def put(self, key: FlowKey, entry: Union[str, FlowVerdict]) -> bool:
        """Insert; returns True if a capacity flush was needed first."""
        flushed = False
        if len(self._entries) >= self.capacity and key not in self._entries:
            self._entries.clear()
            flushed = True
        self._entries[key] = entry
        return flushed

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


def build_verdict(
    result, write_log: Set[Tuple[str, str]], initial_valid: FrozenSet[str]
) -> FlowVerdict:
    """Condense one executed traversal (its ``SwitchResult``, the fields
    it wrote, the headers valid before it ran) into a replayable delta."""
    headers, valid = result.headers, result.valid
    writes = tuple(
        (header, field, headers[header][field])
        for header, field in sorted(write_log)
        if header in headers and field in headers[header]
    )
    added = tuple(sorted(valid - initial_valid))
    removed = tuple(sorted(initial_valid - valid))
    return FlowVerdict(
        steps=tuple(result.steps),
        writes=writes,
        added=added,
        removed=removed,
        egress_port=result.egress_port,
        dropped=result.dropped,
        to_controller=result.to_controller,
        controller_reason=result.controller_reason,
        dirty=frozenset(
            {header for header, _field in write_log}.union(added, removed)
        ),
    )

"""One analysis per program structure (ISSUE 17): soundness of the key.

The session serves every executing compile the control graph and
dependency graphs of *some* program with the same
:func:`~repro.analysis.structure.structure_key`.  That is only sound if
equal keys imply equal analyses, so:

* every analysis a session attaches — executed, memo hit, disk hit — and
  every TDG the compile built from it is compared with a direct
  :func:`~repro.analysis.structure.analyse` of the very program being
  compiled, over every program family, every candidate the phases
  propose on them, and the fuzz generator's CI corpus;
* a mutation table pins what is in the key (one row per input the
  analyses read) and what is not (sizes, default-action arguments, match
  kinds, entries, the target);
* the warm store does not change the analysis counters.
"""

from __future__ import annotations

import pickle
import pkgutil
import shutil
from dataclasses import replace

import pytest

import repro.programs
from repro.analysis import analyse, structure_key
from repro.core.fleet import family_inputs
from repro.core.pipeline import P2GO
from repro.core.session import OptimizationContext
from repro.core.store import SessionStore
from repro.fuzz.generator import generate_case
from repro.p4 import Apply, If, Seq, ValidExpr
from repro.p4.actions import ModifyField, RegisterWrite
from repro.p4.expressions import Const, FieldRef, LNot
from repro.p4.registers import RegisterArray
from repro.p4.tables import MatchKind, Table, TableKey
from repro.programs import example_firewall as fw

from .conftest import build_toy_program, toy_config
from .test_store import make_trace

FAMILIES = sorted(
    module.name
    for module in pkgutil.iter_modules(repro.programs.__path__)
    if module.name != "common"
)

#: ``p2go fuzz --seed 0 --iterations 25`` is the CI leg.
FUZZ_SEEDS = range(25)


class CheckedSession(OptimizationContext):
    """A session that compares what it hands out with the oracle."""

    checked = 0

    def _analysis(self, program):
        analysis = super()._analysis(program)
        key = (self.program_key(program), self.target.fingerprint())
        self._oracles[key] = oracle = analyse(program)
        assert analysis == oracle
        self.checked += 1
        return analysis

    def _record(self, kind, key, value, lease=None):
        if kind == "compile":
            # The compile was built from the analysis checked above.
            oracle = self._oracles.pop(key)
            assert value.dependency_graph == oracle.merged()
            assert value.egress_dependency_graph == oracle.egress
        return super()._record(kind, key, value, lease)


def optimize(inputs, **session_kwargs):
    program, config, trace, target = inputs
    with CheckedSession(
        program, config, trace, target, **session_kwargs
    ) as ctx:
        ctx._oracles = {}
        result = P2GO(
            program, config, trace, target, phases=(2, 3, 4), session=ctx
        ).run()
    assert ctx.checked == ctx.counters.compile_executions > 0
    assert ctx.counters.analysis_calls == ctx.counters.compile_executions
    return result, ctx.counters


@pytest.mark.parametrize("family", FAMILIES)
def test_session_analyses_equal_direct_ones_on_every_family(
    family, tmp_path
):
    inputs = family_inputs(family, packets=150)
    root = tmp_path / "store"

    # Executions and memo hits, every candidate of every phase.
    _, counters = optimize(inputs, store=SessionStore(root))
    assert 0 < counters.analysis_executions <= counters.compile_executions
    assert counters.analysis_disk_hits == 0

    # Disk hits: with the compile entries gone every compile executes
    # again, and every analysis it needs is already stored.
    shutil.rmtree(SessionStore(root)._dir("compile"))
    _, recompiled = optimize(inputs, store=SessionStore(root))
    assert recompiled.compile_executions == counters.compile_executions
    assert recompiled.analysis_executions == 0
    assert recompiled.analysis_disk_hits == counters.analysis_executions


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_session_analyses_equal_direct_ones_on_the_fuzz_corpus(seed):
    case = generate_case(seed, trace_packets=40)
    optimize((case.program, case.config, case.trace, case.target))


def test_an_analysis_survives_pickling():
    analysis = analyse(fw.build_program())
    clone = pickle.loads(pickle.dumps(analysis))
    assert clone == analysis
    # ``==`` is by value, down to dependency kinds and causes: it tells
    # one lost cause, or one cause's changed field, apart.
    edge, dep = next(iter(clone.ingress.dependencies.items()))
    clone.ingress.dependencies[edge] = replace(dep, causes=dep.causes[1:])
    assert clone != analysis
    ghost = replace(dep.causes[0], fields=dep.causes[0].fields | {"ghost.f"})
    clone.ingress.dependencies[edge] = replace(
        dep, causes=(ghost,) + dep.causes[1:]
    )
    assert clone != analysis
    clone.ingress.dependencies[edge] = dep
    assert clone == analysis


def test_graphs_hold_no_program():
    """One analysis is shared by every size variant, so nothing in it
    may point back at the program it happened to be built from."""
    program = fw.build_program()
    payload = pickle.dumps(analyse(program))
    assert b"repro.p4.program" not in payload
    assert program.name.encode() not in payload


# ----------------------------------------------------------------------
# The mutation table


def _with(program, kind, name, value):
    """Programs are frozen: a mutant is ``program`` with one map entry
    replaced (or added)."""
    return replace(program, **{kind: {**getattr(program, kind), name: value}})


def _retable(table, **changes):
    def mutate(program):
        return _with(
            program, "tables", table,
            replace(program.tables[table], **changes),
        )

    return mutate


def base_program():
    program = build_toy_program()
    program = _with(
        program, "registers", "hits", RegisterArray("hits", width=8, size=64)
    )
    return _retable("fib", default_action="fwd", default_action_args=(3,))(
        program
    )


def _set_keys(table, *fields):
    return _retable(
        table,
        keys=tuple(
            TableKey(FieldRef.parse(path), MatchKind.EXACT)
            for path in fields
        ),
    )


def _extend_action(action, primitive):
    def mutate(program):
        return _with(
            program, "actions", action,
            program.actions[action].with_extra_primitives([primitive]),
        )

    return mutate


def _set_ingress(node):
    def mutate(program):
        return program.with_ingress(node)

    return mutate


def _add_parser_transition(program):
    # Ethernet straight to UDP: a header set the parser could not
    # produce before.
    parser = program.parser
    start = parser.states["start"]
    states = {
        **parser.states,
        "start": replace(
            start, transitions={**start.transitions, 0x9999: "parse_udp"}
        ),
    }
    return replace(program, parser=replace(parser, states=states))


def _add_egress_table(program):
    program = _with(
        program, "tables", "mark",
        Table(
            "mark",
            keys=(TableKey(FieldRef("udp", "srcPort"), MatchKind.EXACT),),
            actions=("deny",),
        ),
    )
    return replace(program, egress=Apply("mark"))


def _declare_unapplied_table(program):
    return _with(program, "tables", "spare", Table("spare", actions=("deny",)))


FIB, ACL = Apply("fib"), Apply("acl")
CHANGES_THE_KEY = {
    "add a table key": _set_keys("acl", "udp.dstPort", "udp.srcPort"),
    "remove a table key": _set_keys("acl"),
    "change a key's field": _set_keys("acl", "udp.srcPort"),
    "swap a default action": _retable("acl", default_action="deny"),
    "add a hit action": _retable("fib", actions=("fwd", "deny")),
    "add a write to an action": _extend_action(
        "deny", ModifyField(FieldRef("ipv4", "ttl"), Const(1))
    ),
    # ``deny`` already writes the egress port: only its reads grow.
    "add a read to an action": _extend_action(
        "deny",
        ModifyField(
            FieldRef("standard_metadata", "egress_port"),
            FieldRef("udp", "srcPort"),
        ),
    ),
    "add a register access to an action": _extend_action(
        "deny", RegisterWrite("hits", Const(0), Const(1))
    ),
    "flip an If condition": _set_ingress(
        Seq(
            [
                If(LNot(ValidExpr("ipv4")), FIB),
                If(ValidExpr("udp"), ACL),
            ]
        )
    ),
    "move an Apply under a miss branch": _set_ingress(
        If(ValidExpr("ipv4"), Apply("fib", on_miss=ACL))
    ),
    "move an Apply under a hit branch": _set_ingress(
        If(ValidExpr("ipv4"), Apply("fib", on_hit=ACL))
    ),
    "reorder two applies": _set_ingress(
        Seq([If(ValidExpr("udp"), ACL), If(ValidExpr("ipv4"), FIB)])
    ),
    "add a parser transition": _add_parser_transition,
    "add an egress table": _add_egress_table,
    "declare a table": _declare_unapplied_table,
}

KEEPS_THE_KEY = {
    "resize a table": lambda p: _with(
        p, "tables", "fib", p.tables["fib"].resized(8)
    ),
    "resize a register": lambda p: _with(
        p, "registers", "hits", p.registers["hits"].resized(4)
    ),
    "change default-action arguments": _retable(
        "fib", default_action_args=(7,)
    ),
    "change a match kind": _retable(
        "acl",
        keys=(TableKey(FieldRef("udp", "dstPort"), MatchKind.TERNARY),),
    ),
    "rename the program": lambda p: replace(p, name="other"),
}


@pytest.mark.parametrize("row", CHANGES_THE_KEY)
def test_what_the_analyses_read_is_in_the_key(row):
    base = base_program()
    mutant = CHANGES_THE_KEY[row](base_program())
    assert structure_key(mutant) != structure_key(base)


@pytest.mark.parametrize("row", KEEPS_THE_KEY)
def test_what_the_analyses_do_not_read_is_not_in_the_key(row):
    base = base_program()
    mutant = KEEPS_THE_KEY[row](base_program())
    assert structure_key(mutant) == structure_key(base)
    assert analyse(mutant) == analyse(base)


def test_entries_and_target_are_not_in_the_key(tmp_path):
    """Entries live in the config and the target in the session: a run
    that differs in both is served the stored analysis."""
    root = tmp_path / "store"
    first = OptimizationContext(
        build_toy_program(), toy_config(), make_trace(), fw.TARGET,
        store=SessionStore(root),
    )
    first.compile()
    assert first.counters.analysis_executions == 1

    config = toy_config()
    config.add_entry("acl", [80], "deny")
    second = OptimizationContext(
        build_toy_program().with_table_size("fib", 8),
        config,
        make_trace(),
        replace(fw.TARGET, name="wider", sram_blocks_per_stage=99),
        store=SessionStore(root),
    )
    second.compile()
    assert second.counters.compile_executions == 1
    assert second.counters.analysis_executions == 0
    assert second.counters.analysis_disk_hits == 1

"""Programs are persistent values.

Deriving a candidate shares every leaf and every control subtree the
derivation did not touch, and that is only sound if nothing can write
to what is shared.  So, for every deriving function in the package, over
every bundled program and the fuzz generator's CI corpus:

* the original is unchanged afterwards (``program_fingerprint`` and deep
  equality with a ``copy.deepcopy`` taken before);
* untouched leaves are ``is``-shared;
* the derived program's trees hold none of the original's *rewritten*
  nodes (the ancestors of what changed were path-copied), while the
  moved or untouched subtrees are the original's own objects;
* assigning to any field of any leaf or control node raises, and so
  does any write to a program: its fields, its name -> leaf maps, its
  parser's states and their transitions.

A second group pins where derived state lives: the packet codec
memoized on a ``HeaderType`` never travels into a pickle, a deep copy
or a stored probe entry, and a layout is compiled once per process;
the text ``print_program`` pins on each leaf and control root renders
what a from-scratch render does, for every derivation, so the program
fingerprint and the structure key pinned on a program are its own.
The last tests are regression gates without a clock: a resized
candidate compiles without being validated again, and a warm optimize
and a serve run deep-copy no IR object and build no more codecs than
there are distinct field layouts.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import pickle
import pkgutil
from collections import OrderedDict
from typing import Dict, Iterator, List, NamedTuple, Set
from unittest import mock

import pytest

import repro.p4.program as program_module
import repro.packets.packet as packet_module
import repro.programs
import repro.sim.plan as plan_module
from repro.analysis.dependencies import Dependency, DependencyKind
from repro.analysis.structure import structure_key
from repro.controller.offload_runtime import segment_program
from repro.core.fleet import family_inputs
from repro.core.instrument import instrument
from repro.core.phase_dependencies import (
    _parents,
    _relocation_unit,
    remove_dependency,
)
from repro.core.phase_offload import (
    enumerate_candidates,
    make_offloaded_program,
)
from repro.core.pipeline import P2GO
from repro.core.profiler import Profiler
from repro.core.runtime_guard import add_dependency_guard
from repro.core.serve import ContinuousOptimizer, GeneratorFeed
from repro.core.session import program_fingerprint
from repro.core.store import KINDS, SessionStore
from repro.exceptions import OptimizationError
from repro.fuzz.generator import generate_case
from repro.p4.actions import Action
from repro.p4.control import Apply, If, Seq, find_apply, iter_nodes
from repro.p4.dsl import print_program
from repro.p4.parser_spec import ParserSpec, ParserState
from repro.p4.program import HeaderInstance, HeaderType, Program
from repro.p4.registers import RegisterArray
from repro.p4.tables import Table
from repro.packets.packet import HeaderCodec, get_codec
from repro.programs import example_firewall as fw
from repro.sim.runtime import RuntimeConfig
from repro.target.compiler import compile_program

from .test_store import entry_paths, pickled_modules

FAMILIES = sorted(
    module.name
    for module in pkgutil.iter_modules(repro.programs.__path__)
    if module.name != "common"
)
#: ``p2go fuzz --seed 0 --iterations 25`` is the CI leg.
CORPUS = [f"family:{name}" for name in FAMILIES] + [
    f"fuzz:{seed}" for seed in range(25)
]

LEAF_DICTS = ("header_types", "headers", "registers", "actions", "tables")
LEAF_TYPES = (
    HeaderType, HeaderInstance, RegisterArray, Table, Action,
    ParserSpec, ParserState,
)
NODE_TYPES = (Apply, If, Seq)


def corpus_program(case_id: str) -> Program:
    kind, _, name = case_id.partition(":")
    if kind == "family":
        return family_inputs(name, packets=1)[0]
    return generate_case(int(name), trace_packets=1).program


# ----------------------------------------------------------------------
# Every deriving function, applied wherever it applies


class Derivation(NamedTuple):
    label: str
    original: Program
    derived: Program
    #: dict name -> entries the derivation replaced (new keys need no
    #: listing; only keys present on both sides are compared).
    replaced: Dict[str, Set[str]]
    #: original nodes that must not appear in the derived trees.
    rewritten: List[object]
    #: original nodes that must appear in them, as the same objects.
    kept: List[object]


def path_to(root, target) -> List[object]:
    """Nodes from ``root`` down to ``target`` (by identity), inclusive."""
    if root is target:
        return [root]
    for child in root.children():
        below = path_to(child, target)
        if below:
            return [root] + below
    return []


def removable_pairs(program: Program) -> Iterator[Derivation]:
    """Phase 2's rewrite and the guard install, on every adjacent pair
    of ingress tables the rewrite accepts."""
    tables = program.ingress_tables()
    for src, dst in zip(tables, tables[1:]):
        dep = Dependency(src, dst, DependencyKind.ACTION, causes=())
        try:
            rewritten = remove_dependency(program, dep)
        except OptimizationError:
            continue
        root = program.ingress
        apply_src = find_apply(root, src)
        dst_unit = _relocation_unit(
            root, find_apply(root, dst), _parents(root)
        )
        steps = [
            Derivation(
                "remove_dependency", program, rewritten, {},
                rewritten=(
                    path_to(root, apply_src) + path_to(root, dst_unit)[:-1]
                ),
                kept=[dst_unit],
            )
        ]
        try:
            guarded, _config, _guard = add_dependency_guard(
                rewritten, RuntimeConfig(), src, dst
            )
        except OptimizationError:
            pass
        else:
            new_root = rewritten.ingress
            new_apply_src = find_apply(new_root, src)
            steps.append(
                Derivation(
                    "add_dependency_guard", rewritten, guarded, {},
                    rewritten=path_to(new_root, new_apply_src),
                    kept=[new_apply_src.on_miss],
                )
            )
        # The guard goes first: checking a step empties its result.
        yield from reversed(steps)


def offloads(program: Program) -> Iterator[Derivation]:
    root = program.ingress
    for candidate in enumerate_candidates(program):
        yield Derivation(
            "make_offloaded_program", program,
            make_offloaded_program(program, candidate), {},
            rewritten=path_to(root, candidate.subtree), kept=[],
        )
        yield Derivation(
            "segment_program", program,
            segment_program(program, candidate.subtree), {},
            rewritten=[], kept=[candidate.subtree],
        )


def derivations(program: Program) -> Iterator[Derivation]:
    both_roots = [program.ingress, program.egress]
    yield Derivation(
        "clone", program, program.clone(), {}, [], kept=both_roots
    )
    for name in program.tables:
        yield Derivation(
            "with_table_size", program,
            program.with_table_size(name, program.tables[name].size + 1),
            {"tables": {name}}, [], kept=both_roots,
        )
    for name in program.registers:
        yield Derivation(
            "with_register_size", program,
            program.with_register_size(
                name, program.registers[name].size + 1
            ),
            {"registers": {name}}, [], kept=both_roots,
        )
    yield Derivation(
        "with_ingress", program,
        program.with_ingress(Seq([program.ingress])), {}, [],
        kept=both_roots,
    )
    if program.tables:
        yield Derivation(
            "instrument", program, instrument(program).program,
            {"tables": set(program.tables)}, [], kept=both_roots,
        )
    yield from removable_pairs(program)
    yield from offloads(program)


def node_ids(program: Program) -> Set[int]:
    return {
        id(node)
        for root in (program.ingress, program.egress)
        for node in iter_nodes(root)
    }


def assert_every_write_raises(program: Program) -> None:
    """Every way to write to ``program`` raises: its fields, its maps,
    its parser's states and their transitions."""
    for field in dataclasses.fields(program):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(program, field.name, getattr(program, field.name))
    with pytest.raises(dataclasses.FrozenInstanceError):
        program.scratch = 1
    maps = [getattr(program, name) for name in LEAF_DICTS]
    if program.parser is not None:
        maps.append(program.parser.states)
        maps += [state.transitions for state in program.parser.states.values()]
    for entries in maps:
        key = next(iter(entries), "fresh")
        with pytest.raises(TypeError):
            entries[key] = None
        with pytest.raises(TypeError):
            del entries[key]
        for method in ("clear", "pop", "popitem", "setdefault", "update"):
            assert not hasattr(entries, method), method


def check(step: Derivation, fingerprint: str, snapshot: Program) -> None:
    original, derived = step.original, step.derived
    derived.validate()

    # Shared: every leaf the derivation did not replace.
    for name in LEAF_DICTS:
        ours, theirs = getattr(original, name), getattr(derived, name)
        replaced = step.replaced.get(name, set())
        for key in ours.keys() & theirs.keys():
            if key in replaced:
                assert theirs[key] is not ours[key], (step.label, key)
            else:
                assert theirs[key] is ours[key], (step.label, name, key)
    if original.parser is not None:
        ours, theirs = original.parser.states, derived.parser.states
        assert all(theirs[key] is ours[key] for key in ours), step.label

    # Path-copied: none of the original's rewritten nodes survives in
    # the derived trees; what was moved or untouched is not copied.
    ids = node_ids(derived)
    assert not [n for n in step.rewritten if id(n) in ids], step.label
    assert all(id(n) in ids for n in step.kept), step.label

    # Nothing reaches what is shared: every write to the derived
    # program raises, and the original is what it was.
    assert_every_write_raises(derived)
    assert program_fingerprint(original) == fingerprint, step.label
    assert original == snapshot, step.label


@pytest.mark.parametrize("case_id", CORPUS)
def test_deriving_shares_what_it_did_not_touch(case_id):
    program = corpus_program(case_id)
    fingerprint = program_fingerprint(program)
    snapshot = copy.deepcopy(program)
    labels = set()
    for step in derivations(program):
        labels.add(step.label)
        if step.original is program:
            check(step, fingerprint, snapshot)
        else:  # a second-generation derivation (the guard install)
            check(
                step,
                program_fingerprint(step.original),
                copy.deepcopy(step.original),
            )
    assert {"clone", "with_ingress"} <= labels
    if case_id == "family:example_firewall":
        # The paper's Ex. 1 exercises every deriving function there is.
        assert labels == {
            "clone", "with_table_size", "with_register_size",
            "with_ingress", "instrument", "remove_dependency",
            "add_dependency_guard", "make_offloaded_program",
            "segment_program",
        }


@pytest.mark.parametrize("case_id", CORPUS)
def test_every_leaf_and_control_node_is_frozen(case_id):
    program = corpus_program(case_id)
    leaves = [
        leaf for name in LEAF_DICTS for leaf in getattr(program, name).values()
    ]
    if program.parser is not None:
        leaves += [program.parser, *program.parser.states.values()]
    nodes = [
        node
        for root in (program.ingress, program.egress)
        for node in iter_nodes(root)
    ]
    assert all(isinstance(leaf, LEAF_TYPES) for leaf in leaves)
    assert all(isinstance(node, NODE_TYPES) for node in nodes)
    for value in leaves + nodes:
        for field in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field.name, getattr(value, field.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.scratch = 1


@pytest.mark.parametrize("case_id", CORPUS)
def test_a_write_to_a_program_raises(case_id):
    assert_every_write_raises(corpus_program(case_id))


def test_deriving_builds_no_intrinsics(monkeypatch):
    """``Program(...)`` used to construct a ``standard_metadata_t`` and
    a ``NoAction`` on every call, then discard them in ``setdefault``."""
    program = fw.build_program()

    def unexpected(*_args, **_kwargs):
        raise AssertionError("a derived program rebuilt an intrinsic")

    monkeypatch.setattr(program_module, "standard_metadata_type", unexpected)
    monkeypatch.setattr(program_module, "NoOp", unexpected)
    derived = program.with_table_size("IPv4", 8)
    assert derived.actions["NoAction"] is program.actions["NoAction"]
    monkeypatch.undo()
    assert "standard_metadata" in Program("bare").headers


# ----------------------------------------------------------------------
# Derived state lives outside the value


def simulated_firewall(packets: int = 60) -> Program:
    """The firewall after a replay: every header type it parses carries
    a memoized codec.  The replay starts from an empty plan memo: a tail
    another firewall switch emitted would bind it without reading this
    program's header types."""
    program = fw.build_program()
    with mock.patch.object(plan_module, "_plans", OrderedDict()):
        Profiler(program, fw.runtime_config()).run(fw.make_trace(packets))
    assert any(
        "_codec" in vars(htype) for htype in program.header_types.values()
    )
    return program


def test_a_simulated_program_pickles_without_its_codecs():
    program = simulated_firewall()
    for unshared in (
        pickle.loads(pickle.dumps(program)), copy.deepcopy(program)
    ):
        assert print_program(unshared) == print_program(program)
        assert unshared == program
        for name, htype in unshared.header_types.items():
            assert htype is not program.header_types[name]
            assert "_codec" not in vars(htype)
    assert "repro.packets.packet" not in pickled_modules(
        pickle.dumps(program)
    )
    # A derived program shares the header types, codecs included, and
    # pickles just as clean.
    derived = program.with_table_size("IPv4", 8)
    assert "repro.packets.packet" not in pickled_modules(
        pickle.dumps(derived)
    )


def fresh_render(program: Program) -> str:
    """``print_program`` of an unshared copy, which carries no pin."""
    unshared = copy.deepcopy(program)
    leaves = [
        leaf for name in LEAF_DICTS for leaf in getattr(unshared, name).values()
    ]
    for value in leaves + [unshared.parser, unshared.ingress, unshared.egress]:
        assert "_text" not in vars(value)
    return print_program(unshared)


@pytest.mark.parametrize("case_id", CORPUS)
def test_memoised_print_equals_a_fresh_render(case_id):
    """Every leaf and root of the original carries its text and the
    program its keys before anything is derived, so a derivation that
    kept a stale pin (a resize that carried its table's text over, or
    its parent's fingerprint) prints or keys the wrong program here."""
    program = corpus_program(case_id)
    assert print_program(program) == fresh_render(program)
    program_fingerprint(program)
    structure_key(program)
    for step in derivations(program):
        derived = step.derived
        text = fresh_render(derived)
        assert print_program(derived) == text, step.label
        assert program_fingerprint(derived) == (
            hashlib.sha1(text.encode()).hexdigest()
        ), step.label
        # replace() builds a new program, which has no pin of its own.
        assert structure_key(derived) == structure_key(
            dataclasses.replace(derived)
        ), step.label


def test_a_resized_candidate_compiles_without_validation(monkeypatch):
    """Phase 3's candidates differ from their parent in one size, which
    nothing ``validate()`` reads: deriving and compiling one checks the
    program no further."""
    program = fw.build_program()
    calls = []
    monkeypatch.setattr(
        Program, "validate", lambda self: calls.append(self.name)
    )
    for candidate in (
        program.with_table_size("IPv4", 8),
        program.with_register_size(next(iter(program.registers)), 64),
    ):
        assert compile_program(candidate, fw.TARGET).stages_used > 0
    assert calls == []


def test_entries_stored_after_a_replay_name_no_codec(tmp_path):
    """Header types are shared between the original (simulated in place
    by phase 1) and every candidate compiled afterwards: what a sibling
    memoized must not reach the store."""
    store = SessionStore(tmp_path / "store")
    program = simulated_firewall()
    P2GO(
        program, fw.runtime_config(), fw.make_trace(300), fw.TARGET,
        store=store,
    ).run()
    for kind in KINDS:
        entries = entry_paths(store, kind)
        assert entries, kind
        for path in entries:
            assert "repro.packets.packet" not in pickled_modules(
                path.read_bytes()
            ), (kind, path.name)


def test_one_codec_per_layout_per_process():
    fields = fw.build_program().header_types["ipv4_t"].fields
    first = HeaderType("probe_t", fields)
    second = HeaderType("probe_t", first.fields)
    assert get_codec(first) is get_codec(second)
    # A codec pickled on its own resolves through the same memo.
    assert pickle.loads(pickle.dumps(get_codec(first))) is get_codec(first)
    assert copy.deepcopy(get_codec(first)) is get_codec(first)
    renamed = HeaderType("other_t", first.fields)
    assert get_codec(renamed) is not get_codec(first)
    assert get_codec(renamed).name == "other_t"


# ----------------------------------------------------------------------
# The regression gate, without a clock


IR_TYPES = (Program,) + LEAF_TYPES + NODE_TYPES


@pytest.fixture
def construction_counts(monkeypatch):
    """Counts ``copy.deepcopy`` calls that reach an IR object and
    ``HeaderCodec`` constructions, from a cold codec memo."""
    counts = {"deepcopies": [], "codecs": 0}
    real_deepcopy, real_init = copy.deepcopy, HeaderCodec.__init__

    def counting_deepcopy(value, memo=None, *rest):
        memo = {} if memo is None else memo
        result = real_deepcopy(value, memo, *rest)
        if any(isinstance(seen, IR_TYPES) for seen in memo.values()):
            counts["deepcopies"].append(type(value).__name__)
        return result

    def counting_init(self, *args, **kwargs):
        counts["codecs"] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(copy, "deepcopy", counting_deepcopy)
    monkeypatch.setattr(HeaderCodec, "__init__", counting_init)
    packet_module._layout_codec.cache_clear()
    return counts


def distinct_layouts(program: Program) -> int:
    return len(
        {(htype.name, htype.fields) for htype in program.header_types.values()}
    )


def test_candidates_are_neither_deep_copied_nor_recompiled(
    construction_counts, tmp_path
):
    counts = construction_counts
    layouts = distinct_layouts(fw.build_program())

    # (a) a warm optimize: every probe answered from the store.
    inputs = (fw.runtime_config(), fw.make_trace(300), fw.TARGET)
    store = str(tmp_path / "store")
    P2GO(fw.build_program(), *inputs, phases=(2, 3, 4), store=store).run()
    counts["deepcopies"].clear()
    counts["codecs"] = 0
    warm = P2GO(
        fw.build_program(), *inputs, phases=(2, 3, 4), store=store
    ).run()
    assert warm.session_counters.compile_executions == 0
    assert warm.session_counters.profile_executions == 0
    assert warm.stages_after < warm.stages_before
    assert counts["deepcopies"] == []
    assert counts["codecs"] <= layouts

    # (b) the daemon: serve, detect, reoptimize, gate, swap.
    packet_module._layout_codec.cache_clear()
    counts["codecs"] = 0
    result = ContinuousOptimizer(
        fw.build_program(), fw.runtime_config(),
        fw.make_trace(2000, seed=0), fw.TARGET,
        window=300, hit_rate_tolerance=0.15, workers=0,
    ).run(GeneratorFeed.firewall_drift(total=1200, seed=0, shift_at=0.5))
    assert result.stats.reoptimizations >= 1
    assert counts["deepcopies"] == []
    assert 0 < counts["codecs"] <= layouts

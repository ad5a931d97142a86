"""The persistent cross-run session store (ISSUE 5).

Covers the durability contract of :class:`~repro.core.store.SessionStore`
(round trips, versioned layout, LRU eviction, corruption quarantine,
lock-free multi-process sharing), its wiring into
:class:`~repro.core.session.OptimizationContext` (memo → disk → execute,
disk hits never attributed to perf windows, every executed probe leased
and written through), and the acceptance bars: a warm second run
performs **zero compiles and zero replays**, and a store-enabled
pipeline is canonically identical to a store-less one for every phase
order, whatever ``$P2GO_WORKERS`` says.
"""

import ast
import errno
import importlib.util
import inspect
import json
import os
import pickle
import pickletools
import socket
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core import session as session_module
from repro.core import store as store_module
from repro.core.pipeline import P2GO, SwitchRun
from repro.core.report import render_report
from repro.core.session import OptimizationContext, Source
from repro.analysis import analyse, structure_key
from repro.core.store import (
    _FINGERPRINTED_MODULES,
    KINDS,
    SCHEMA_VERSION,
    SessionStore,
    code_fingerprint,
    default_store_root,
    resolve_store,
)
from repro.exceptions import AllocationError
from repro.programs import example_firewall as fw
from repro.target.model import DEFAULT_TARGET

from .conftest import build_toy_program, toy_config
from .test_parallel import canonical
from .test_passes import ORDERS, assert_equivalent

#: Enough for every firewall phase to probe, fast enough to afford the
#: order × ``$P2GO_WORKERS`` × cold/warm matrix below.
TRACE_PACKETS = 1200


def make_trace():
    from repro.packets.craft import udp_packet

    return [
        udp_packet("1.1.1.1", "10.0.0.9", 5, 53) for _ in range(4)
    ] + [
        udp_packet("2.2.2.2", "10.0.0.9", 5, 80) for _ in range(4)
    ]


def make_ctx(store, **kwargs):
    return OptimizationContext(
        build_toy_program(), toy_config(), make_trace(), DEFAULT_TARGET,
        store=store, **kwargs,
    )


#: Child process for the dead-holder test: claim one probe, say so,
#: then hang until killed.
_CLAIM_AND_HANG = """
import ast, sys, time
from repro.core.store import SessionStore
store = SessionStore(sys.argv[1])
assert store.claim_probe("compile", ast.literal_eval(sys.argv[2]))
print("claimed", flush=True)
time.sleep(300)
"""


#: Child process for the half-written-lease test: claim one probe,
#: write the first half of a large entry into the lease file, say so,
#: then hang until killed.
_CLAIM_WRITE_HALF_AND_HANG = """
import ast, os, pickle, sys, time
from repro.core.store import SessionStore
store = SessionStore(sys.argv[1])
key = ast.literal_eval(sys.argv[2])
lease = store.claim_probe("compile", key)
data = pickle.dumps({"key": key, "value": "x" * 200000})
os.write(lease.fd, data[: len(data) // 2])
print("half", flush=True)
time.sleep(300)
"""


#: Child process for the cross-version test: with code fingerprint
#: ``argv[2]``, write every key tagged with it, say so, wait for the
#: go line, then load and rewrite every key for 20 rounds; print how
#: many loads returned another tag and how many were hits.
_TAGGED_ROUNDS = """
import sys
from repro.core.store import SessionStore
root, tag = sys.argv[1], sys.argv[2]
store = SessionStore(root, code_fp=tag)
keys = [("k%d" % index,) for index in range(8)]
for key in keys:
    store.store_compile(key, tag)
print("wrote", flush=True)
sys.stdin.readline()
foreign = 0
for _ in range(20):
    for key in keys:
        value = store.load_compile(key)
        foreign += value is not None and value != tag
        store.store_compile(key, tag)
print(foreign, store.counters.compile_hits, flush=True)
"""


def pickled_modules(data):
    """Modules of every class a pickle names, read off its
    ``GLOBAL`` / ``STACK_GLOBAL`` opcodes (the latter takes module and
    qualified name from the stack: the last two strings pushed, directly
    or out of the memo)."""
    memo, strings, modules, top = {}, [], set(), None
    for opcode, argument, _position in pickletools.genops(data):
        if "UNICODE" in opcode.name:
            top = argument
            strings.append(top)
        elif opcode.name in ("BINGET", "LONG_BINGET"):
            top = memo.get(argument)
            strings.append(top)
        elif opcode.name == "MEMOIZE":
            memo[len(memo)] = top
        elif opcode.name == "STACK_GLOBAL":
            modules.add(strings[-2])
            top = None
        elif opcode.name == "GLOBAL":
            modules.add(argument.split()[0])
            top = None
        elif opcode.name != "FRAME":
            top = None
    return modules


def entry_paths(store, kind):
    return sorted(
        path
        for path in store._dir(kind).iterdir()
        if not path.name.endswith(".tmp")
    )


class TestResolveStore:
    def test_false_means_no_store(self, monkeypatch, tmp_path):
        monkeypatch.setenv("P2GO_STORE", str(tmp_path))
        assert resolve_store(False) is None

    def test_none_without_env_means_no_store(self, monkeypatch):
        monkeypatch.delenv("P2GO_STORE", raising=False)
        assert resolve_store(None) is None

    def test_none_with_env_roots_there(self, monkeypatch, tmp_path):
        monkeypatch.setenv("P2GO_STORE", str(tmp_path / "s"))
        store = resolve_store(None)
        assert store is not None
        assert store.root == tmp_path / "s"

    def test_path_and_instance_pass_through(self, tmp_path):
        store = resolve_store(tmp_path / "s")
        assert isinstance(store, SessionStore)
        assert store.root == tmp_path / "s"
        assert resolve_store(store) is store

    def test_default_root_env_then_home(self, monkeypatch, tmp_path):
        monkeypatch.setenv("P2GO_STORE", str(tmp_path))
        assert default_store_root() == tmp_path
        monkeypatch.delenv("P2GO_STORE")
        assert default_store_root().name == "p2go"


class TestRoundTrip:
    def test_compile_result_round_trips(self, tmp_path):
        from repro.target.compiler import compile_program

        store = SessionStore(tmp_path / "store")
        result = compile_program(build_toy_program(), DEFAULT_TARGET)
        key = ("fp", DEFAULT_TARGET.name)
        assert store.load_compile(key) is None
        store.store_compile(key, result)
        loaded = store.load_compile(key)
        assert loaded.stages_used == result.stages_used
        assert loaded.stage_map() == result.stage_map()
        assert store.counters.compile_hits == 1
        assert store.counters.misses == 1
        assert store.counters.writes == 1

    def test_profile_round_trips(self, tmp_path):
        from repro.core.profiler import Profiler

        store = SessionStore(tmp_path / "store")
        profiled = Profiler(build_toy_program(), toy_config()).run(
            make_trace()
        )
        key = ("p", ("c",), "t")
        store.store_profile(key, profiled)
        assert store.load_profile(key) == profiled

    @pytest.mark.parametrize("size", [4, 8, 16, 32])
    def test_round_trip_across_program_variants(self, tmp_path, size):
        from repro.target.compiler import compile_program

        store = SessionStore(tmp_path / "store")
        program = build_toy_program().with_table_size("fib", size)
        result = compile_program(program, DEFAULT_TARGET)
        key = (f"fp-{size}", DEFAULT_TARGET.name)
        store.store_compile(key, result)
        assert store.load_compile(key).stage_map() == result.stage_map()

    def test_entries_survive_new_instances(self, tmp_path):
        a = SessionStore(tmp_path / "store")
        a.store_compile(("k",), {"v": 1})
        b = SessionStore(tmp_path / "store")
        assert b.load_compile(("k",)) == {"v": 1}

    def test_distinct_keys_distinct_entries(self, tmp_path):
        store = SessionStore(tmp_path / "store")
        store.store_compile(("a",), 1)
        store.store_compile(("b",), 2)
        assert store.load_compile(("a",)) == 1
        assert store.load_compile(("b",)) == 2
        assert store.load_compile(("c",)) is None

    def test_rejects_nonpositive_cap(self, tmp_path):
        with pytest.raises(ValueError):
            SessionStore(tmp_path, max_bytes=0)


class TestEntrySize:
    """A warm run pays for what an entry holds: it holds the answer to
    its probe and nothing the caller already has."""

    def test_compile_entry_holds_no_program(self):
        from repro.target.compiler import compile_program

        program = fw.build_program()
        payload = pickle.dumps(
            compile_program(program, fw.TARGET),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        assert not {
            name for name in pickled_modules(payload)
            if name.startswith("repro.p4")
        }
        assert program.name.encode() not in payload

    def test_profile_shares_one_tuple_per_distinct_decision(self, tmp_path):
        from repro.core.profiler import Profiler

        profile = Profiler(fw.build_program(), fw.runtime_config()).run(
            fw.make_trace(4000)
        )
        assert len(profile.decisions) == 4000
        assert len({id(d) for d in profile.decisions}) == len(
            set(profile.decisions)
        )
        store = SessionStore(tmp_path / "store")
        store.store_profile(("p",), profile)
        (entry,) = entry_paths(store, "profile")
        # 25 637 B when every packet pickled its own decision tuple.
        assert entry.stat().st_size < 10_000
        assert store.load_profile(("p",)) == profile


class TestEviction:
    def write_sized(self, store, key, payload_bytes):
        store.store_compile(key, b"x" * payload_bytes)

    def test_lru_evicts_oldest_mtime_first(self, tmp_path):
        store = SessionStore(tmp_path / "store", max_bytes=10 ** 6)
        for index, stamp in [(0, 100), (1, 200), (2, 300)]:
            self.write_sized(store, (f"k{index}",), 64)
            path = store._entry_path("compile", (f"k{index}",))
            os.utime(path, (stamp, stamp))
        sizes = [p.stat().st_size for p in entry_paths(store, "compile")]
        store.max_bytes = sum(sizes) - 1  # one entry must go
        assert store._evict_over_cap() == 1
        assert store.load_compile(("k0",)) is None  # oldest gone
        assert store.load_compile(("k1",)) is not None
        assert store.load_compile(("k2",)) is not None
        assert store.counters.evictions == 1

    def test_equal_mtimes_break_ties_by_name(self, tmp_path):
        store = SessionStore(tmp_path / "store", max_bytes=10 ** 6)
        keys = [("a",), ("b",), ("c",)]
        for key in keys:
            self.write_sized(store, key, 64)
            os.utime(store._entry_path("compile", key), (100, 100))
        by_name = sorted(
            keys, key=lambda k: store._entry_name("compile", k)
        )
        sizes = [p.stat().st_size for p in entry_paths(store, "compile")]
        store.max_bytes = sum(sizes) - 1
        store._evict_over_cap()
        # Exactly the lexicographically-first entry file went.
        assert store.load_compile(by_name[0]) is None
        for key in by_name[1:]:
            assert store.load_compile(key) is not None

    def test_lru_order_spans_kinds_and_the_cap_is_inclusive(self, tmp_path):
        store = SessionStore(tmp_path / "store", max_bytes=10 ** 6)
        store.store_profile(("p",), b"x" * 64)
        self.write_sized(store, ("c",), 64)
        os.utime(store._entry_path("profile", ("p",)), (100, 100))
        os.utime(store._entry_path("compile", ("c",)), (200, 200))
        paths = entry_paths(store, "compile") + entry_paths(store, "profile")
        store.max_bytes = sum(p.stat().st_size for p in paths)
        assert store._evict_over_cap() == 0  # at the cap: nothing goes
        store.max_bytes -= 1
        assert store._evict_over_cap() == 1
        assert store.load_profile(("p",)) is None  # the older, other kind
        assert store.load_compile(("c",)) is not None

    def test_load_refreshes_recency(self, tmp_path):
        store = SessionStore(tmp_path / "store", max_bytes=10 ** 6)
        self.write_sized(store, ("old",), 64)
        self.write_sized(store, ("new",), 64)
        os.utime(store._entry_path("compile", ("old",)), (100, 100))
        os.utime(store._entry_path("compile", ("new",)), (200, 200))
        store.load_compile(("old",))  # os.utime(now) — newest again
        sizes = [p.stat().st_size for p in entry_paths(store, "compile")]
        store.max_bytes = sum(sizes) - 1
        store._evict_over_cap()
        assert store.load_compile(("old",)) is not None
        assert store.load_compile(("new",)) is None

    def test_writes_trigger_eviction_automatically(self, tmp_path):
        store = SessionStore(tmp_path / "store", max_bytes=400)
        for index in range(8):
            self.write_sized(store, (f"k{index}",), 128)
        stats = store.stats()
        assert stats["total_bytes"] <= 400
        assert store.counters.evictions > 0

    def test_clear_removes_everything(self, tmp_path):
        store = SessionStore(tmp_path / "store")
        store.store_compile(("a",), 1)
        store.store_profile(("b",), "profile")
        assert store.clear() == 2
        assert store.load_compile(("a",)) is None
        stats = store.stats()
        assert stats["compile_entries"] == 0
        assert stats["profile_entries"] == 0

    def test_clear_empties_every_code_version(self, tmp_path):
        root = tmp_path / "store"
        old = SessionStore(root, code_fp="old-code")
        old.store_compile(("a",), 1)
        old.store_compile(("bad",), 2)
        old._entry_path("compile", ("bad",)).write_bytes(b"garbage")
        assert old.load_compile(("bad",)) is None  # quarantined
        store = SessionStore(root)
        store.store_profile(("b",), "profile")
        assert store.stats()["profile_entries"] == 1
        assert old.stats()["compile_entries"] == 1  # census: own code only
        # What the manifest layout left: one directory for every code.
        (root / f"v{SCHEMA_VERSION}" / "manifest.json").write_text("{}")
        (root / f"v{SCHEMA_VERSION}" / "compile").mkdir()
        (root / f"v{SCHEMA_VERSION}" / "compile" / "old.pkl").write_bytes(
            b"old"
        )
        assert store.clear() == 3
        for handle in (old, store):
            stats = handle.stats()
            assert stats["total_bytes"] == stats["quarantine_entries"] == 0
            assert all(stats[f"{kind}_entries"] == 0 for kind in KINDS)
        assert not [path for path in root.rglob("*") if path.is_file()]

    def test_cap_covers_every_code_version(self, tmp_path):
        """The census spans the root: four code versions writing in turn
        leave at most ``max_bytes`` under ``v1/``, not that per code
        version (the per-directory cap left 15 424 bytes here)."""
        root = tmp_path / "store"
        for code in ("a", "b", "c", "d"):
            store = SessionStore(root, max_bytes=4096, code_fp=f"code-{code}")
            for index in range(40):
                store.store_profile((f"{code}{index}",), b"x" * 200)
        files = [
            path
            for path in (root / f"v{SCHEMA_VERSION}").rglob("*")
            if path.is_file()
        ]
        assert sum(path.stat().st_size for path in files) <= 4096
        assert store.counters.evictions > 0

    def test_quarantined_files_count_toward_the_cap(self, tmp_path):
        store = SessionStore(tmp_path / "store", max_bytes=10 ** 6)
        store.store_compile(("bad",), b"x" * 64)
        store._entry_path("compile", ("bad",)).write_bytes(b"g" * 500)
        assert store.load_compile(("bad",)) is None  # quarantined
        (quarantined,) = store._dir("quarantine").iterdir()
        os.utime(quarantined, (100, 100))
        self.write_sized(store, ("good",), 64)
        store.max_bytes = 499  # the 500-byte quarantined file must go
        assert store._evict_over_cap() == 1
        assert not quarantined.exists()
        assert store.load_compile(("good",)) is not None

    def test_stats_creates_nothing(self, tmp_path):
        store = SessionStore(tmp_path / "missing")
        stats = store.stats()
        assert stats["total_bytes"] == stats["quarantine_entries"] == 0
        assert store.clear() == 0
        assert not (tmp_path / "missing").exists()


class TestCensusCadence:
    """The census behind the cap stats every entry, so a handle takes it
    on its first write and then once the bytes it wrote since reach half
    the headroom its last census saw (DESIGN.md §10).  One handle never
    ends a write over the cap; N interleaved handles end one less than
    ``(N - 1) / 2 * max_bytes`` over it."""

    CAP = 6_000

    def on_disk(self, store):
        return sum(
            path.stat().st_size
            for kind in KINDS
            for path in entry_paths(store, kind)
        )

    def counting(self, store, monkeypatch):
        scans = []
        real = store._evict_over_cap
        monkeypatch.setattr(
            store, "_evict_over_cap", lambda: scans.append(1) or real()
        )
        return scans

    def test_one_handle_never_exceeds_the_cap(self, tmp_path, monkeypatch):
        store = SessionStore(tmp_path / "store", max_bytes=self.CAP)
        scans = self.counting(store, monkeypatch)
        for index in range(120):
            store.store_compile((f"k{index}",), b"x" * (50 + 7 * index % 300))
            if index == 0:
                assert scans == [1]  # the first write takes the census
            assert self.on_disk(store) <= self.CAP, index
        assert store.counters.evictions > 0
        assert len(scans) < 120
        assert store.stats()["total_bytes"] == self.on_disk(store)

    def test_two_interleaved_handles_stay_within_the_bound(self, tmp_path):
        """The worst order: ``first`` takes its census on an empty store
        and keeps that budget while ``second`` fills the store through
        census after census; then ``first`` spends its budget."""
        root = tmp_path / "store"
        first = SessionStore(root, max_bytes=self.CAP)
        second = SessionStore(root, max_bytes=self.CAP)
        bound = self.CAP + self.CAP / 2
        peak = 0
        first.store_compile(("a0",), b"x" * 50)
        for index in range(200):
            second.store_compile((f"b{index}",), b"x" * 40)
            peak = max(peak, self.on_disk(first))
        for index in range(1, 200):
            first.store_compile((f"a{index}",), b"x" * 40)
            peak = max(peak, self.on_disk(first))
            assert peak < bound, index
        # Then any interleaving: still within the bound.
        for index in range(300):
            store = (first, second)[index * 7 % 3 == 0]
            store.store_profile((f"c{index}",), b"x" * (20 + index % 90))
            peak = max(peak, self.on_disk(first))
            assert peak < bound, index
        assert self.on_disk(first) <= bound
        assert first.stats()["total_bytes"] == self.on_disk(first)


class TestFaultInjection:
    """Corrupt, truncated, foreign, or version-mismatched stores must
    degrade to a clean cold start — quarantine + counter, never an
    exception, never a wrong result."""

    def corrupt(self, store, key, data):
        path = store._entry_path("compile", key)
        path.write_bytes(data)

    def test_truncated_entry_is_a_quarantined_miss(self, tmp_path):
        store = SessionStore(tmp_path / "store")
        store.store_compile(("k",), {"v": 1})
        path = store._entry_path("compile", ("k",))
        path.write_bytes(path.read_bytes()[:10])
        assert store.load_compile(("k",)) is None
        assert store.counters.quarantined == 1
        assert not path.exists()  # sidelined, cost paid once
        assert len(list(store._dir("quarantine").iterdir())) == 1

    def test_garbage_entry_is_a_quarantined_miss(self, tmp_path):
        store = SessionStore(tmp_path / "store")
        store.store_compile(("k",), {"v": 1})
        self.corrupt(store, ("k",), b"not a pickle at all")
        assert store.load_compile(("k",)) is None
        assert store.counters.quarantined == 1

    def test_wrong_key_payload_is_a_quarantined_miss(self, tmp_path):
        store = SessionStore(tmp_path / "store")
        store.store_compile(("k",), 1)
        self.corrupt(
            store, ("k",),
            pickle.dumps({"key": ("other",), "value": 2}),
        )
        assert store.load_compile(("k",)) is None
        assert store.counters.quarantined == 1

    def test_partial_write_tmp_files_are_invisible(self, tmp_path):
        store = SessionStore(tmp_path / "store")
        store.store_compile(("k",), 1)
        (store._dir("compile") / ".abc.pkl.999.1.tmp").write_bytes(
            b"half-written"
        )
        stats = store.stats()
        assert stats["compile_entries"] == 1
        assert store.load_compile(("k",)) == 1

    def test_schema_mismatch_forces_cold_start(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "store"
        monkeypatch.setattr(store_module, "SCHEMA_VERSION", SCHEMA_VERSION + 9)
        SessionStore(root).store_compile(("k",), 1)
        monkeypatch.undo()
        fresh = SessionStore(root)
        assert fresh.load_compile(("k",)) is None  # never unpickled
        # The store starts cold beside the other schema's entry, which
        # it neither reads nor moves.
        fresh.store_compile(("k",), 2)
        assert fresh.load_compile(("k",)) == 2
        assert fresh.base.parent.name == f"v{SCHEMA_VERSION}"
        other = list(root.glob(f"v{SCHEMA_VERSION + 9}/*/compile/*.pkl"))
        assert len(other) == 1
        assert fresh.stats()["quarantine_entries"] == 0

    def test_code_fingerprint_mismatch_forces_cold_start(self, tmp_path):
        root = tmp_path / "store"
        old = SessionStore(root, code_fp="written-by-old-code")
        old.store_compile(("k",), 1)
        fresh = SessionStore(root)
        assert fresh.code_fp == code_fingerprint()
        assert fresh.load_compile(("k",)) is None
        fresh.store_compile(("k",), 2)
        assert fresh.load_compile(("k",)) == 2
        # The old code's entry stays where it was, loadable by old code.
        assert old.load_compile(("k",)) == 1
        again = SessionStore(root, code_fp="written-by-old-code")
        assert again.load_compile(("k",)) == 1
        assert fresh.stats()["quarantine_entries"] == 0
        assert again.stats()["quarantine_entries"] == 0

    def test_alternating_code_versions_run_warm(self, tmp_path):
        """Runs with code A, B, A, B on one root: each version keeps
        its own entries, so the third and fourth runs are warm."""
        root = tmp_path / "store"
        trace = fw.make_trace(600)
        executed = []
        for code_fp in ("A", "B", "A", "B"):
            counters = P2GO(
                fw.build_program(), fw.runtime_config(), trace, fw.TARGET,
                store=SessionStore(root, code_fp=code_fp),
            ).run().session_counters
            executed.append(
                (counters.compile_executions, counters.profile_executions)
            )
        assert executed[0] == executed[1] != (0, 0)
        assert executed[2:] == [(0, 0), (0, 0)]

    def test_code_fingerprint_covers_every_pickled_module(self, tmp_path):
        """A class pickled into an entry whose module is not
        fingerprinted would unpickle a stale layout into new code
        instead of quarantining the store."""
        store = SessionStore(tmp_path / "store")
        P2GO(
            fw.build_program(), fw.runtime_config(), fw.make_trace(300),
            fw.TARGET, store=store,
        ).run()
        for kind in KINDS:
            entries = entry_paths(store, kind)
            assert entries, kind
            named = set().union(
                *(pickled_modules(path.read_bytes()) for path in entries)
            )
            ours = {name for name in named if name.startswith("repro.")}
            assert ours and ours <= set(_FINGERPRINTED_MODULES), kind

    def test_code_fingerprint_covers_the_probe_tasks_imports(self):
        """What a probe answers is computed by its task and everything
        the task imports: a simulator fix must retire the profiles the
        old simulator stored, not only a change to a pickled class."""
        from repro.analysis.structure import analyse
        from repro.core.profiler import Profiler
        from repro.target.compiler import compile_program

        roots = [compile_program.__module__, Profiler.run.__module__,
                 analyse.__module__]
        closure, pending = set(), list(roots)
        while pending:
            name = pending.pop()
            if name in closure:
                continue
            closure.add(name)
            source = importlib.util.find_spec(name).origin
            for node in ast.walk(ast.parse(Path(source).read_text())):
                if isinstance(node, ast.Import):
                    named = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    named = [node.module]
                else:
                    continue
                pending.extend(
                    n for n in named
                    if n == "repro" or n.startswith("repro.")
                )
        assert "repro.sim.plan" in closure
        assert sorted(closure - set(_FINGERPRINTED_MODULES)) == []

    def test_peer_starting_on_a_fresh_root_keeps_its_entries(
        self, tmp_path
    ):
        """Two fresh handles on one fresh root, interleaved: each serves
        the other's entries, neither quarantines anything, and each
        one's lease stands against the other."""
        root = tmp_path / "store"
        late, peer = SessionStore(root), SessionStore(root)
        peer.store_compile(("k",), 1)
        peer_lease = peer.claim_probe("compile", ("pending",))
        assert late.load_compile(("k",)) == 1
        late_lease = late.claim_probe("compile", ("other",))
        assert not peer_lease.released and not late_lease.released
        assert late.claim_probe("compile", ("pending",)) is None
        assert peer.claim_probe("compile", ("other",)) is None
        assert peer_lease.path.exists() and late_lease.path.exists()
        assert late.counters.quarantined == peer.counters.quarantined == 0
        assert late.stats()["quarantine_entries"] == 0

    def test_unusable_root_makes_store_inert(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the store root should go")
        store = SessionStore(blocker / "store")
        store.store_compile(("k",), 1)  # dropped write, no exception
        assert store.load_compile(("k",)) is None
        assert store.clear() == 0
        assert store.stats()["compile_entries"] == 0
        assert store.counters.errors > 0

    def test_pipeline_survives_fully_corrupted_store(self, tmp_path):
        program, config = build_toy_program(), toy_config()
        trace = make_trace()
        store_root = tmp_path / "store"
        baseline = P2GO(
            program, config, trace, DEFAULT_TARGET,
            store=SessionStore(store_root),
        ).run()
        # Smash every entry the first run persisted.
        store = SessionStore(store_root)
        for kind in ("compile", "profile"):
            for path in entry_paths(store, kind):
                path.write_bytes(b"garbage")
        again = P2GO(
            program, config, trace, DEFAULT_TARGET,
            store=SessionStore(store_root),
        ).run()
        assert_equivalent(again, baseline)
        assert again.store_stats["counters"]["quarantined"] > 0
        assert again.session_counters.compile_disk_hits == 0
        assert "corrupt store entries quarantined" in render_report(again)

    def test_pipeline_survives_schema_mismatch_with_report_note(
        self, tmp_path
    ):
        """Other code's entries on the root cost nothing and say
        nothing: the run starts cold in its own directory, with no
        note, and the other code's entry is left as it was."""
        program, config = build_toy_program(), toy_config()
        trace = make_trace()
        store_root = tmp_path / "store"
        old = SessionStore(store_root, code_fp="written-by-old-code")
        old.store_compile(("k",), 1)
        result = P2GO(
            program, config, trace, DEFAULT_TARGET,
            store=SessionStore(store_root),
        ).run()
        assert_equivalent(
            result,
            P2GO(program, config, trace, DEFAULT_TARGET, store=False).run(),
        )
        assert result.session_counters.compile_disk_hits == 0
        assert result.store_stats["counters"]["quarantined"] == 0
        assert "note:" not in render_report(result)
        assert old.load_compile(("k",)) == 1


class TestConcurrentInstances:
    """Two store instances on one directory: per-entry files + atomic
    O_EXCL-temp writes mean no locks are needed — readers only ever see
    complete entries, and racing writers of a content-addressed key
    both produce the same value."""

    def test_instances_see_each_others_writes(self, tmp_path):
        a = SessionStore(tmp_path / "store")
        b = SessionStore(tmp_path / "store")
        a.store_compile(("from-a",), "A")
        b.store_compile(("from-b",), "B")
        assert a.load_compile(("from-b",)) == "B"
        assert b.load_compile(("from-a",)) == "A"

    def test_racing_writers_of_one_key_last_rename_wins(self, tmp_path):
        a = SessionStore(tmp_path / "store")
        b = SessionStore(tmp_path / "store")
        a.store_compile(("k",), "same-content")
        b.store_compile(("k",), "same-content")
        assert a.load_compile(("k",)) == "same-content"
        assert len(entry_paths(a, "compile")) == 1

    def test_thread_hammer_no_exceptions(self, tmp_path):
        """Interleaved store/load/clear from two threads, each with its
        own instance: every operation must degrade gracefully, never
        raise."""
        errors = []

        def hammer(worker):
            store = SessionStore(tmp_path / "store")
            try:
                for round_no in range(30):
                    key = (f"k{round_no % 7}",)
                    store.store_compile(key, f"{worker}:{round_no}")
                    store.load_compile(key)
                    if round_no % 13 == 12:
                        store.clear()
            except Exception as exc:  # pragma: no cover — the failure
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        survivor = SessionStore(tmp_path / "store")
        survivor.store_compile(("after",), 1)
        assert survivor.load_compile(("after",)) == 1


class TestSessionTiering:
    """memo → disk → execute inside OptimizationContext."""

    def test_disk_hit_hydrates_memo(self, tmp_path):
        writer = make_ctx(SessionStore(tmp_path / "store"))
        writer.profile()
        writer.compile()
        writer.close()

        reader = make_ctx(SessionStore(tmp_path / "store"))
        reader.profile()
        reader.compile()
        assert reader.counters.profile_executions == 0
        assert reader.counters.compile_executions == 0
        assert reader.counters.profile_disk_hits == 1
        assert reader.counters.compile_disk_hits == 1
        # Second ask: memo, not disk.
        reader.profile()
        assert reader.counters.profile_disk_hits == 1
        assert reader.counters.profile_hits == 1

    def test_disk_hits_never_attributed_to_perf_windows(self, tmp_path):
        writer = make_ctx(SessionStore(tmp_path / "store"))
        writer.profile()
        writer.close()
        reader = make_ctx(SessionStore(tmp_path / "store"))
        reader.profile()  # disk hit — the writer paid the replay
        assert [r.source for r in reader.probes] == [Source.DISK]
        assert reader.replay_perf(0) is None

    def test_probe_written_through_when_executed(self, tmp_path):
        """Nothing is buffered until the session closes: the probe's
        entry is on disk as soon as it executed."""
        store = SessionStore(tmp_path / "store")
        ctx = make_ctx(store)
        key = ctx._profile_key(ctx.program, ctx.config)
        ctx.profile()
        assert store.load_profile(key) is not None  # not buffered


class TestWarmSecondRun:
    """The tentpole acceptance bar: a second run over an unchanged
    program + config + trace performs zero compiles and zero replays."""

    def run(self, store_root):
        return P2GO(
            build_toy_program(), toy_config(), make_trace(),
            DEFAULT_TARGET, store=SessionStore(store_root),
        ).run()

    def test_second_run_zero_compiles_zero_replays(self, tmp_path):
        cold = self.run(tmp_path / "store")
        warm = self.run(tmp_path / "store")
        assert_equivalent(warm, cold)
        counters = warm.session_counters
        assert counters.compile_executions == 0
        assert counters.profile_executions == 0
        assert counters.compile_disk_hits > 0
        assert counters.profile_disk_hits > 0
        assert counters.compile_calls == cold.session_counters.compile_calls
        # No compile executed, so no structure key was computed and the
        # store was asked for no analysis.
        assert cold.session_counters.analysis_calls > 0
        assert counters.analysis_calls == 0
        assert warm.store_stats["counters"]["analysis_hits"] == 0

    def test_warm_run_logs_no_execution(self, tmp_path):
        self.run(tmp_path / "store")
        with OptimizationContext(
            build_toy_program(), toy_config(), make_trace(),
            DEFAULT_TARGET, store=SessionStore(tmp_path / "store"),
        ) as ctx:
            P2GO(
                build_toy_program(), toy_config(), make_trace(),
                DEFAULT_TARGET, session=ctx,
            ).run()
        assert ctx.probes
        assert Source.EXECUTED not in {r.source for r in ctx.probes}
        assert Source.DISK in {r.source for r in ctx.probes}

    def test_report_carries_provenance_and_store_lines(self, tmp_path):
        self.run(tmp_path / "store")
        report = render_report(self.run(tmp_path / "store"))
        (session_line,) = [
            line for line in report.splitlines()
            if line.startswith("compile/profile session")
        ]
        assert "compile: " in session_line
        assert session_line.count(" 0 executed") == 3
        assert "result provenance:" not in report
        assert "static analysis:" not in report
        assert "persistent store:" in report

    def test_storeless_run_has_no_store_line(self):
        result = P2GO(
            build_toy_program(), toy_config(), make_trace(),
            DEFAULT_TARGET, store=False,
        ).run()
        assert result.store_stats is None
        assert "persistent store:" not in render_report(result)

    def test_workers_env_routes_through_store(self, monkeypatch, tmp_path):
        monkeypatch.setenv("P2GO_WORKERS", "4")
        self.run(tmp_path / "store")
        warm = self.run(tmp_path / "store")
        assert warm.session_counters.compile_executions == 0
        assert warm.session_counters.profile_executions == 0


class TestSeedEquivalence:
    """ISSUE 5 satellite: store-enabled pipeline results are canonically
    identical to the store-less pipeline for every phase order in
    tests/test_passes.py — a cold store changes nothing but writes, and
    a warm store changes nothing but who pays for the answers."""

    @pytest.fixture(scope="class")
    def inputs(self):
        return (
            fw.build_program(),
            fw.runtime_config(),
            fw.make_trace(TRACE_PACKETS),
            fw.TARGET,
        )

    @pytest.fixture(scope="class")
    def storeless(self, inputs):
        """Store-less baselines, computed lazily per phase order (both
        ``$P2GO_WORKERS`` legs share them)."""
        cache = {}

        def baseline(order):
            if order not in cache:
                program, config, trace, target = inputs
                cache[order] = P2GO(
                    program, config, trace, target, phases=order,
                    store=False,
                ).run()
            return cache[order]

        return baseline

    @pytest.mark.parametrize("workers", ["1", "4"])
    @pytest.mark.parametrize(
        "order", ORDERS, ids=lambda o: "-".join(map(str, o))
    )
    def test_cold_canonical_warm_equivalent(
        self, inputs, storeless, tmp_path, order, workers, monkeypatch
    ):
        # $P2GO_WORKERS sizes fan-out pools only: no session reads it.
        monkeypatch.setenv("P2GO_WORKERS", workers)
        program, config, trace, target = inputs
        baseline = storeless(order)
        store_root = tmp_path / "store"
        cold = P2GO(
            program, config, trace, target, phases=order,
            store=SessionStore(store_root),
        ).run()
        # Cold: nothing to hit, so counters, per-phase perf, and every
        # decision are byte-identical to the store-less run.
        assert canonical(cold) == canonical(baseline)
        warm = P2GO(
            program, config, trace, target, phases=order,
            store=SessionStore(store_root),
        ).run()
        assert_equivalent(warm, baseline)
        assert warm.session_counters.compile_executions == 0
        assert warm.session_counters.profile_executions == 0


# ----------------------------------------------------------------------
# Probe leases (ISSUE 8): cross-process dedup of in-flight probes.


@pytest.fixture
def no_waiting(monkeypatch):
    """Fail a test whose store would wait on a lease: a wait blocks
    until the holder releases, and these holders never do."""
    monkeypatch.setattr(
        SessionStore,
        "wait_for_probe",
        lambda *_args: pytest.fail("waited on a lease"),
    )


class TestProbeLeases:
    """Claim / wait / release / reap on one shared root."""

    def test_claim_is_exclusive_until_released(self, tmp_path):
        holder = SessionStore(tmp_path / "store")
        rival = SessionStore(tmp_path / "store")
        lease = holder.claim_probe("compile", ("k",))
        assert lease is not None
        assert rival.claim_probe("compile", ("k",)) is None
        lease.release()
        assert rival.claim_probe("compile", ("k",)) is not None
        assert holder.counters.lease_claims == 1
        assert holder.counters.lease_releases == 1
        assert rival.counters.lease_claims == 1

    def test_release_is_idempotent(self, tmp_path):
        store = SessionStore(tmp_path / "store")
        lease = store.claim_probe("profile", ("k",))
        lease.release()
        lease.release()
        assert store.counters.lease_releases == 1

    def test_distinct_probes_lease_independently(self, tmp_path):
        store = SessionStore(tmp_path / "store")
        assert store.claim_probe("compile", ("a",)) is not None
        assert store.claim_probe("compile", ("b",)) is not None
        assert store.claim_probe("profile", ("a",)) is not None

    def test_claim_rechecks_entry_written_after_miss(
        self, tmp_path, monkeypatch
    ):
        """TOCTOU regression: an entry that lands between a session's
        disk miss and its winning lease claim must be served as a disk
        hit (lease released), never re-executed — the exactly-once
        guarantee the fleet bench's deterministic counters rest on."""
        root = tmp_path / "store"
        writer = make_ctx(SessionStore(root))
        writer.compile()  # executes, publishes, releases its lease
        assert writer.counters.compile_executions == 1

        reader = SessionStore(root)
        key = (writer.program_key(writer.program),
               writer.target.fingerprint())
        # The race, reproduced directly: the reader's first look misses
        # (it ran *before* the writer's entry landed), then it wins the
        # now-free lease.  acquire must re-check the entry under it.
        load, looks = reader.load_compile, []

        def miss_once(key):
            looks.append(key)
            return None if len(looks) == 1 else load(key)

        monkeypatch.setattr(reader, "load_compile", miss_once)
        value, lease = reader.acquire("compile", key)
        assert value is not None  # a hit, not an execute-yourself signal
        assert lease is None
        # ... and the lease was released, not left to go stale; a claim
        # that executed nothing is not counted as won.
        assert reader.counters.lease_claims == 0
        assert reader.counters.leases_held == 0
        assert reader.claim_probe("compile", key) is not None

    def test_unlocked_lease_of_a_live_pid_is_reaped_at_once(self, tmp_path):
        """A lease file nobody has locked has no holder, whatever it
        records.  Here it names this host and a live pid (a reused one,
        in the host/pid record of an older store): a guess from the
        record would wait on it; the lock says it is free."""
        root = tmp_path / "store"
        store = SessionStore(root)
        assert store._ensure_ready()
        path = store._lease_path("compile", ("k",))
        path.write_text(
            json.dumps({"host": socket.gethostname(), "pid": os.getpid()})
        )
        lease = store.claim_probe("compile", ("k",))
        assert lease is not None and not lease.released
        assert store.counters.leases_reaped == 1
        assert store.counters.lease_claims == 1
        # The file taken over is the lease now: it excludes a rival.
        assert SessionStore(root).claim_probe("compile", ("k",)) is None
        lease.release()
        assert not path.exists()

    def test_killed_holders_lease_is_reaped_at_once(self, tmp_path):
        """A SIGKILLed holder must not make the next run wait: the
        kernel dropped its lock, so its lease is reaped at once."""
        root = tmp_path / "store"
        ctx = make_ctx(SessionStore(root))
        key = (ctx.program_key(ctx.program), ctx.target.fingerprint())
        holder = subprocess.Popen(
            [sys.executable, "-c", _CLAIM_AND_HANG, str(root), repr(key)],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            assert holder.stdout.readline().strip() == "claimed"
            assert ctx.store.claim_probe("compile", key) is None  # alive
        finally:
            holder.kill()
            holder.wait(timeout=30)
            holder.stdout.close()
        start = time.monotonic()
        result = ctx.compile()
        assert time.monotonic() - start < 5.0
        assert ctx.counters.compile_executions == 1
        assert result.stages_used == make_ctx(None).compile().stages_used
        counters = ctx.store.counters
        assert counters.leases_reaped == 1
        assert counters.lease_waits == 0
        assert not list(root.rglob("*.lease"))

    def test_half_written_lease_of_a_killed_holder_is_reaped(
        self, tmp_path
    ):
        """A holder SIGKILLed halfway through writing its entry into the
        lease file leaves those bytes behind: the reaper's publish
        replaces them, and its entry loads intact."""
        root = tmp_path / "store"
        ctx = make_ctx(SessionStore(root))
        key = (ctx.program_key(ctx.program), ctx.target.fingerprint())
        holder = subprocess.Popen(
            [
                sys.executable, "-c", _CLAIM_WRITE_HALF_AND_HANG,
                str(root), repr(key),
            ],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            assert holder.stdout.readline().strip() == "half"
        finally:
            holder.kill()
            holder.wait(timeout=30)
            holder.stdout.close()
        lease_path = ctx.store._lease_path("compile", key)
        partial = lease_path.stat().st_size
        assert partial > 100000
        result = ctx.compile()
        assert ctx.store.counters.leases_reaped == 1
        assert ctx.counters.compile_executions == 1
        entry = ctx.store._entry_path("compile", key)
        assert entry.stat().st_size < partial  # truncated, not overlaid
        loaded = SessionStore(root).load_compile(key)
        assert loaded.stage_map() == result.stage_map()
        assert not list(root.rglob("*.lease"))

    def test_published_entry_is_the_lease_file(self, tmp_path):
        """A leased publish writes into the lease's own inode and
        renames it onto the entry: no temp file, no lease left."""
        store = SessionStore(tmp_path / "store")
        lease = store.claim_probe("compile", ("k",))
        inode = os.fstat(lease.fd).st_ino
        lease.publish("answer")
        entry = store._entry_path("compile", ("k",))
        assert entry.stat().st_ino == inode
        assert sorted(path.name for path in entry.parent.iterdir()) == [
            entry.name
        ]
        assert SessionStore(tmp_path / "store").load_compile(("k",)) == (
            "answer"
        )
        assert store.counters.writes == store.counters.lease_releases == 1

    def test_a_leased_probe_creates_one_inode(self, tmp_path, monkeypatch):
        """Claim, publish and release create one file between them (the
        lease's); an unleased write creates its temp file."""
        store = SessionStore(tmp_path / "store")
        assert store._ensure_ready()
        real_open, creates = os.open, []

        def counting_open(path, flags, *args, **kwargs):
            if flags & os.O_CREAT:
                creates.append(Path(path).name)
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", counting_open)
        value, lease = store.acquire("compile", ("k",))
        assert value is None and lease is not None
        lease.publish("answer")
        assert len(creates) == 1 and ".lease." in creates[0]
        store.publish("compile", ("unleased",), "answer")
        assert len(creates) == 2 and creates[1].endswith(".tmp")

    def test_release_after_landing_keeps_a_newer_claimants_lease(
        self, tmp_path
    ):
        """Once the lease file is the entry, the lease path is free: a
        newer claimant's lease there survives the first holder's
        release, and still excludes a third claimant."""
        holder = SessionStore(tmp_path / "store")
        newer = SessionStore(tmp_path / "store")
        lease = holder.claim_probe("compile", ("k",))
        holder.store_compile(("k",), "answer")  # lands, still locked
        assert lease.landed and not lease.released
        newer_lease = newer.claim_probe("compile", ("k",))
        assert newer_lease is not None and not newer_lease.released
        lease.release()
        assert (
            newer_lease.path.stat().st_ino
            == os.fstat(newer_lease.fd).st_ino
        )
        assert SessionStore(tmp_path / "store").claim_probe(
            "compile", ("k",)
        ) is None
        newer_lease.release()
        assert not newer_lease.path.exists()
        assert holder.load_compile(("k",)) == "answer"

    def test_a_held_lock_excludes_whatever_the_lease_file_holds(
        self, tmp_path
    ):
        holder = SessionStore(tmp_path / "store")
        rival = SessionStore(tmp_path / "store")
        lease = holder.claim_probe("compile", ("k",))
        for record in ('{"host": "elsewhere", "pid": 1}', "", "[1]"):
            lease.path.write_text(record)
            assert rival.claim_probe("compile", ("k",)) is None
        assert rival.counters.leases_reaped == 0
        lease.release()
        assert rival.claim_probe("compile", ("k",)) is not None
        assert rival.counters.leases_reaped == 0

    def test_lease_creation_failure_does_not_spin(
        self, tmp_path, monkeypatch, no_waiting
    ):
        """ENOSPC / read-only root: "cannot lease" is not "someone else
        holds it" — execute unleased at once, never wait."""
        ctx = make_ctx(SessionStore(tmp_path / "store"))
        real_open, attempts = os.open, []

        def no_space_for_leases(path, *args, **kwargs):
            if ".lease." in Path(path).name:  # a lease's temp file
                attempts.append(path)
                assert len(attempts) < 10, "spinning on a failed claim"
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", no_space_for_leases)
        result = ctx.compile()
        assert result.stages_used == make_ctx(None).compile().stages_used
        # One attempt per executed probe: the compile and its analysis.
        assert [Path(path).parent.name for path in attempts] == [
            "compile",
            "analysis",
        ]
        assert ctx.counters.compile_executions == 1
        assert ctx.store.counters.errors == 2
        assert ctx.store.counters.lease_waits == 0
        # Unleased is still written through.
        assert ctx.store.counters.writes == 2
        assert ctx.store.acquire("profile", ("k",)) == (None, None)

    def test_a_root_without_hard_links_executes_unleased(
        self, tmp_path, monkeypatch, no_waiting
    ):
        """A file system that cannot hard-link a lease into place makes
        the probe execute unleased, counted in ``errors``, and leaves
        no temp file behind."""
        ctx = make_ctx(SessionStore(tmp_path / "store"))

        def no_hard_links(_src, _dst):
            raise OSError(errno.EPERM, "Operation not permitted")

        monkeypatch.setattr(os, "link", no_hard_links)
        result = ctx.compile()
        assert result.stages_used == make_ctx(None).compile().stages_used
        assert ctx.store.counters.errors == 2  # the compile, its analysis
        assert ctx.store.counters.lease_claims == 0
        assert ctx.store.counters.writes == 2
        assert not list((tmp_path / "store").rglob("*.lease*"))

    def test_a_handle_holding_leases_never_waits(self, tmp_path, no_waiting):
        """The store-level guard: a handle that already holds a lease
        executes a probe it loses unleased instead of waiting, so two
        holders wanting each other's probes never block each other."""
        a = SessionStore(tmp_path / "store")
        b = SessionStore(tmp_path / "store")
        _, held_by_a = a.acquire("compile", ("k1",))
        _, held_by_b = b.acquire("compile", ("k2",))
        assert held_by_a is not None and held_by_b is not None
        assert a.acquire("compile", ("k2",)) == (None, None)
        assert b.acquire("compile", ("k1",)) == (None, None)
        assert a.counters.lease_waits == b.counters.lease_waits == 0

    def test_analysis_is_never_waited_on_under_a_compile_lease(
        self, tmp_path, no_waiting
    ):
        """Another process is analysing the same structure for a
        different compile: this one holds its compile lease, so it
        builds the analysis itself, unleased, rather than wait — and
        the entry is written identically twice."""
        ctx = make_ctx(SessionStore(tmp_path / "store"))
        rival = SessionStore(tmp_path / "store")
        key = (structure_key(ctx.program),)
        rival_lease = rival.claim_probe("analysis", key)
        ctx.compile()
        assert ctx.counters.analysis_executions == 1
        assert ctx.store.counters.lease_waits == 0
        assert ctx.store.counters.lease_claims == 1  # the compile's
        assert rival_lease.path.exists()  # not reaped, not stolen
        assert rival.load_analysis(key) == analyse(ctx.program)
        rival_lease.publish(analyse(ctx.program))
        assert rival.load_analysis(key) == analyse(ctx.program)
        assert len(entry_paths(rival, "analysis")) == 1
        assert not list((tmp_path / "store").rglob("*.lease"))

    def test_a_foreign_analysis_lease_changes_no_count(
        self, tmp_path, no_waiting
    ):
        """The guard's one case in a session: an executing compile asks
        for its analysis while it holds the compile's lease.  With a
        second handle holding that analysis's lease, a cold optimize
        analyses unleased, never waits, and counts what a run without
        the foreign lease counts."""

        def run(root, foreign_lease):
            store = SessionStore(root)
            if foreign_lease:
                key = (structure_key(build_toy_program()),)
                assert SessionStore(root).claim_probe("analysis", key)
            result = P2GO(
                build_toy_program(), toy_config(), make_trace(),
                DEFAULT_TARGET, store=store,
            ).run()
            return result, store.counters

        plain, plain_store = run(tmp_path / "plain", False)
        held, held_store = run(tmp_path / "held", True)
        assert held.session_counters == plain.session_counters
        assert canonical(held) == canonical(plain)
        assert held_store.lease_waits == plain_store.lease_waits == 0
        assert held_store.writes == plain_store.writes
        # Only the held analysis went unleased.
        assert held_store.lease_claims == plain_store.lease_claims - 1

    def test_raising_probe_releases_its_lease(self, tmp_path):
        """An infeasible compile propagates with no lease left for
        others to wait on."""
        program = fw.build_program()
        ctx = OptimizationContext(
            program, fw.runtime_config(), fw.make_trace(50),
            replace(fw.TARGET, sram_blocks_per_stage=1),
            store=SessionStore(tmp_path / "store"),
        )
        with ctx:
            with pytest.raises(AllocationError):
                ctx.compile()
            assert not list((tmp_path / "store").rglob("*.lease"))
        counters = ctx.store.counters
        assert counters.lease_claims == counters.lease_releases >= 1

    def test_wait_returns_entry_written_by_holder(self, tmp_path):
        holder = SessionStore(tmp_path / "store")
        waiter = SessionStore(tmp_path / "store")
        lease = holder.claim_probe("compile", ("k",))

        def finish():
            time.sleep(0.05)
            holder.store_compile(("k",), "answer")
            lease.release()

        thread = threading.Thread(target=finish)
        thread.start()
        try:
            assert waiter.wait_for_probe("compile", ("k",)) == "answer"
        finally:
            thread.join()
        assert waiter.counters.lease_waits == 1
        assert waiter.counters.lease_wait_hits == 1

    def test_wait_wakes_when_the_holder_publishes(
        self, tmp_path, monkeypatch
    ):
        """A waiter blocks on the holder's lock and wakes when the
        holder publishes: nothing sleeps or polls in between."""
        holder = SessionStore(tmp_path / "store")
        waiter = SessionStore(tmp_path / "store")
        lease = holder.claim_probe("compile", ("k",))
        monkeypatch.setattr(
            time, "sleep", lambda _s: pytest.fail("the wait slept")
        )
        pause = threading.Event()

        def publish_once_waited_on():
            while not waiter.counters.lease_waits:
                pause.wait(0.001)
            pause.wait(0.05)  # let the waiter reach its wait
            lease.publish("answer")

        thread = threading.Thread(target=publish_once_waited_on)
        thread.start()
        try:
            assert waiter.wait_for_probe("compile", ("k",)) == "answer"
        finally:
            thread.join()
        assert waiter.counters.lease_wait_hits == 1
        assert holder.counters.lease_releases == 1

    def test_wait_returns_none_when_lease_vanishes_empty(self, tmp_path):
        holder = SessionStore(tmp_path / "store")
        waiter = SessionStore(tmp_path / "store")
        lease = holder.claim_probe("profile", ("k",))
        lease.release()  # holder gave up without writing
        assert waiter.wait_for_probe("profile", ("k",)) is None
        assert waiter.counters.lease_wait_hits == 0

    def test_lease_files_invisible_to_census_and_clear(self, tmp_path):
        store = SessionStore(tmp_path / "store")
        store.store_compile(("real",), "entry")
        store.claim_probe("compile", ("pending",))
        stats = store.stats()
        assert stats["compile_entries"] == 1
        assert store.clear() == 1  # the entry, not the lease
        # clear() leaves no stale lease behind either.
        assert store.claim_probe("compile", ("pending",)) is not None

    def test_invalidate_sweeps_leases(self, tmp_path):
        """A lease held by other code is on another path: it never
        blocks a claim on the same key by this code."""
        root = tmp_path / "store"
        old = SessionStore(root, code_fp="f" * 40)
        held = old.claim_probe("compile", ("k",))
        fresh = SessionStore(root)
        lease = fresh.claim_probe("compile", ("k",))
        assert lease is not None and not lease.released
        assert lease.path != held.path and not held.released
        assert fresh.counters.lease_waits == fresh.counters.errors == 0


# ----------------------------------------------------------------------
# Multi-process sharing (ISSUE 8): real processes, one store root.


def _hammer_process(root, worker):
    """Pool worker: interleaved store/load rounds on the shared root.
    Returns an error string on the first malformed read, else the
    worker's store I/O error count (must be 0)."""
    store = SessionStore(root)
    for round_no in range(40):
        key = (f"k{round_no % 11}",)
        store.store_compile(key, f"{worker}:{round_no}")
        loaded = store.load_compile(key)
        if loaded is not None and ":" not in loaded:
            return f"corrupt value {loaded!r}"
    return store.counters.errors


def _toy_run(root):
    """Pool worker: one plain toy pipeline against the shared root.
    Returns this process's execution/hit counters."""
    result = P2GO(
        build_toy_program(), toy_config(), make_trace(), DEFAULT_TARGET,
        store=SessionStore(root),
    ).run()
    counters = result.session_counters
    return {
        "compile_executions": counters.compile_executions,
        "profile_executions": counters.profile_executions,
        "analysis_executions": counters.analysis_executions,
        "disk_hits": (
            counters.compile_disk_hits + counters.profile_disk_hits
        ),
    }


class TestMultiProcessStore:
    """N genuine processes against one root: no lost or corrupt
    entries, and no probe executed twice across plain runs."""

    def _pool(self, workers):
        from concurrent.futures import ProcessPoolExecutor

        try:
            return ProcessPoolExecutor(max_workers=workers)
        except (OSError, NotImplementedError):  # pragma: no cover
            pytest.skip("platform cannot spawn worker processes")

    def test_process_hammer_no_lost_or_corrupt_entries(self, tmp_path):
        root = str(tmp_path / "store")
        with self._pool(4) as pool:
            outcomes = list(
                pool.map(_hammer_process, [root] * 4, range(4))
            )
        assert outcomes == [0, 0, 0, 0]
        survivor = SessionStore(root)
        for round_no in range(11):
            value = survivor.load_compile((f"k{round_no}",))
            assert value is not None
            worker, _, stamp = value.partition(":")
            assert int(worker) in range(4) and stamp.isdigit()
        assert survivor.stats()["quarantine_entries"] == 0

    def test_two_processes_never_both_execute_a_probe(self, tmp_path):
        # The lease acceptance bar: across two concurrent plain runs
        # of the same program, every fingerprinted probe is
        # executed by exactly one of them — the fleet-wide execution
        # total equals the distinct-probe count a single storeless run
        # pays, and every probe the loser skipped came back as a disk
        # hit.
        solo = P2GO(
            build_toy_program(), toy_config(), make_trace(),
            DEFAULT_TARGET, store=False,
        ).run().session_counters
        root = str(tmp_path / "store")
        with self._pool(2) as pool:
            outcomes = list(
                pool.map(_toy_run, [root, root])
            )
        assert (
            sum(o["compile_executions"] for o in outcomes)
            == solo.compile_executions
        )
        assert (
            sum(o["profile_executions"] for o in outcomes)
            == solo.profile_executions
        )
        assert sum(o["disk_hits"] for o in outcomes) == (
            solo.compile_executions + solo.profile_executions
        )
        # Analyses ride under a compile lease and are never waited on,
        # so a structure may be built by both — once or identically
        # twice, one entry either way.
        assert (
            solo.analysis_executions
            <= sum(o["analysis_executions"] for o in outcomes)
            <= 2 * solo.analysis_executions
        )
        assert (
            SessionStore(root).stats()["analysis_entries"]
            == solo.analysis_executions
        )

    def test_two_processes_of_different_code_never_share_entries(
        self, tmp_path
    ):
        """Two processes with different code fingerprints write the same
        keys to one root, each value tagged with its writer's code, and
        load them back while the other writes: no load ever returns the
        other code's value, and every load is a hit on its own."""
        root = str(tmp_path / "store")
        children = [
            subprocess.Popen(
                [sys.executable, "-c", _TAGGED_ROUNDS, root, tag],
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
            for tag in ("code-a", "code-b")
        ]
        try:
            # Both have written every key before either loads one.
            for child in children:
                assert child.stdout.readline().strip() == "wrote"
            for child in children:
                child.stdin.write("go\n")
                child.stdin.flush()
            outcomes = [
                child.communicate(timeout=60)[0].split()
                for child in children
            ]
        finally:
            for child in children:
                child.kill()
                child.wait(timeout=30)
        assert outcomes == [["0", "160"], ["0", "160"]]

    def test_no_leases_left_behind_after_runs(self, tmp_path):
        root = str(tmp_path / "store")
        with self._pool(2) as pool:
            list(pool.map(_toy_run, [root, root]))
        store = SessionStore(root)
        leftovers = [
            path
            for kind in KINDS
            for path in store._dir(kind).iterdir()
            if path.name.endswith(".lease")
        ]
        assert leftovers == []


def test_removed_store_knobs_stay_removed(tmp_path):
    """The disk tier's policy lives in the store: none of the session's
    old write-back / leasing / miss-cache surface may drift back, not
    even as a compatibility shim — nor the lease TTL and wait deadline
    the kernel's lock made moot."""
    for name in ("flush_store", "lease_probes", "DEFAULT_STORE_MISS_CACHE"):
        for owner in (OptimizationContext, SwitchRun, session_module):
            assert not hasattr(owner, name), (owner, name)
    ctx = make_ctx(None)
    run = SwitchRun(build_toy_program(), toy_config(), make_trace())
    assert not hasattr(ctx, "lease_probes")
    assert not hasattr(run, "lease_probes")
    with pytest.raises(TypeError):
        SessionStore(tmp_path / "store", lease_ttl=120.0)
    assert not hasattr(store_module, "DEFAULT_LEASE_TTL")
    wait = inspect.signature(SessionStore.wait_for_probe).parameters
    assert "deadline" not in wait and "poll" not in wait

"""Command-line interface: ``python -m repro <command>``.

Mirrors how the paper's prototype is driven (Fig. 2's inputs): a P4
program (DSL file), a runtime configuration (JSON), and a traffic trace
(pcap).

Commands:

* ``compile PROGRAM`` — stage map / fit report for a target.
* ``profile PROGRAM --config CFG --trace PCAP [--reference]`` —
  phase 1 on its own; prints the replay's throughput (packets/s, timed
  here) and what it cost (packets, per-table lookups).  ``--reference``
  replays on the reference interpreter (the oracle, not a speed
  setting).
* ``optimize PROGRAM --config CFG --trace PCAP
  [--store PATH | --no-store]`` — the full pipeline; writes the
  optimized program (DSL) and the observation report (which includes
  the session line: per probe kind, how many calls the memo, the disk
  store or an execution answered).  ``--store`` warm-starts from (and
  persists to) a cross-run disk cache (default: the ``P2GO_STORE``
  environment variable, then no store; ``--no-store`` forces a
  memory-only run).
* ``store stats|clear [--store PATH]`` — inspect or empty the
  persistent store (default root: ``$P2GO_STORE``, then
  ``~/.cache/p2go``); ``stats`` breaks the running code's entries
  and bytes down per kind (compile / profile / analysis) with
  human-readable sizes and creates nothing; ``clear`` empties the
  entries of every code version.
* ``fleet [--size N] [--families a,b] [--seed N] [--packets N]
  [--workers N] [--store PATH | --no-store] [--report FILE]
  [--json FILE]`` — optimize a fabric of built-in
  program variants against one shared store (the run-orchestration
  layer: per-switch results identical to independent ``optimize``
  runs, cross-switch probes answered from the shared store, in-flight
  duplicates deduped through store leases).
* ``explore [--programs a,b] [--grid SPEC] [--sample N] [--seed N]
  [--workers N] [--store PATH | --no-store] [--json FILE]
  [--report FILE]`` — sweep a design space (target shapes x phase
  orders x candidate policies x programs) through the full pipeline
  against one shared store and extract the multi-objective Pareto
  frontier (stages, controller load, profile coverage, compile count)
  plus each program's smallest-shape-that-still-fits breakpoint.
  Exit code 1 when the frontier is empty (no swept point both
  optimizes and fits its shape).
* ``serve [PROGRAM] [--config CFG] [--trace PCAP]
  [--feed generator|trace|lines|socket] [--max-packets N]
  [--duration S] [--window N] [--tolerance F] [--phases 2,3]
  [--workers N] [--store PATH | --no-store] [--json FILE]
  [--report FILE]`` — the continuous-optimization daemon: optimize,
  serve packets from the feed, re-optimize warm on drift alerts, and
  atomically swap in each re-optimized program once the equivalence
  gate passes on the recent window.  Without ``PROGRAM`` it serves
  the built-in example firewall; ``--feed generator`` (the default)
  plays the scripted drift scenario (steady mix, then a DNS flood).
  Packets are served on the command's own thread.  ``--workers 0``
  re-optimizes inline (deterministic counters — the CI gate's mode);
  ``--workers 1`` re-optimizes on one worker thread while traffic
  keeps flowing; any other count is refused.
* ``demo NAME`` — run a built-in evaluation scenario end to end.
* ``fuzz [--seed N] [--iterations N] [--time-budget S] [--axes a,b]
  [--shrink/--no-shrink] [--repro-dir DIR]`` — seeded differential
  fuzzing of the optimizer: random well-formed programs + traces, each
  checked on the behaviour/engine/store/order oracle axes;
  failures are shrunk to minimal replayable repro files.  Exit code 1
  when any axis disagrees.  ``--replay FILE`` re-runs a repro file
  instead; ``--break-optimizer`` sabotages the optimized program on
  purpose (mutation self-test — the run *must* fail).  When the
  behaviour axis ran, one ``phase N:`` line per phase tallies its
  (2, 3, 4) runs: accepted, rejected (by reason), or nothing enumerated.

Runtime-config JSON schema (``RuntimeConfig.from_json`` / ``to_json``)::

    {
      "entries": {
        "<table>": [
          {"match": [<int> | [value, len_or_mask], ...],
           "action": "<name>", "args": [<int>, ...], "priority": 0}
        ]
      },
      "defaults": {"<table>": {"action": "<name>", "args": []}},
      "register_inits": [["<register>", <index>, <value>], ...],
      "hashed_inits": [["<register>", "<algo>",
                        [[<value>, <width>], ...], <value>], ...]
    }

Target JSON object (all fields optional, defaults = the generic RMT
model; an unknown field is an error)::

    {"num_stages": 12, "sram_blocks_per_stage": 16, ...}
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.core.pipeline import P2GO
from repro.core.profiler import PerfCounters, Profiler
from repro.core.report import render_decision, render_report, stage_table
from repro.exceptions import ReproError
from repro.p4.dsl import parse_program, print_program
from repro.packets.pcap import read_pcap
from repro.sim.runtime import RuntimeConfig
from repro.target.compiler import compile_program
from repro.target.model import DEFAULT_TARGET, TargetModel


def load_program(path: str):
    source = Path(path).read_text()
    return parse_program(source, name=Path(path).stem)


def load_target(path: Optional[str]) -> TargetModel:
    if path is None:
        return DEFAULT_TARGET
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(
            f"target file {path} must hold a JSON object, "
            f"not a {type(data).__name__}"
        )
    known = [f.name for f in fields(TargetModel)]
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(
            f"target file {path}: unknown field(s) {', '.join(unknown)}; "
            f"known: {', '.join(known)}"
        )
    return TargetModel(**data)


def load_config(path: Optional[str]) -> RuntimeConfig:
    if path is None:
        return RuntimeConfig()
    return RuntimeConfig.from_json(json.loads(Path(path).read_text()))


def load_trace(path: str) -> List[bytes]:
    return [record.data for record in read_pcap(path)]


# ----------------------------------------------------------------------


def store_choice(args: argparse.Namespace) -> Union[bool, str, None]:
    """A verb's ``--store`` / ``--no-store``: False for ``--no-store``,
    the ``--store`` path, or None (defer to ``$P2GO_STORE``)."""
    return False if args.no_store else args.store or None


def write_output(path: str, text: str, what: str) -> None:
    """Write one output file and say where it went."""
    Path(path).write_text(text)
    print(f"{what} written to {path}")


def cmd_compile(args: argparse.Namespace) -> int:
    program = load_program(args.program)
    target = load_target(args.target)
    result = compile_program(program, target)
    print(f"compile {program.name!r} -> {target}")
    print(result.summary())
    return 0 if result.fits else 2


def cmd_profile(args: argparse.Namespace) -> int:
    program = load_program(args.program)
    config = load_config(args.config)
    if args.reference:
        config.enable_compiled_tables = False
    trace = load_trace(args.trace)
    started = time.perf_counter()
    profile = Profiler(program, config).run(trace)
    elapsed = time.perf_counter() - started
    lines = PerfCounters.of([profile]).render().splitlines()
    lines.insert(
        1,
        f"throughput:           {len(trace) / elapsed:,.0f} packets/s "
        f"({len(trace)} packets in {elapsed:.3f} s)",
    )
    print(f"profiled {profile.total_packets} packets")
    print("\n".join(lines))
    print()
    print(f"{'table':<24} {'hit rate':>9} {'apply rate':>11}")
    for table in program.tables_in_control_order():
        print(
            f"{table:<24} {profile.hit_rate(table):>8.2%} "
            f"{profile.apply_rate(table):>10.2%}"
        )
    print("\nnon-exclusive action sets (multi-table, by table):")
    seen = set()
    for group in profile.hit_action_sets():
        tables = tuple(sorted({pair[0] for pair in group}))
        if len(tables) > 1 and tables not in seen:
            seen.add(tables)
            print("  {" + ", ".join(tables) + "}")
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    program = load_program(args.program)
    config = load_config(args.config)
    target = load_target(args.target)
    trace = load_trace(args.trace)
    phases = tuple(int(p) for p in args.phases.split(","))
    result = P2GO(
        program,
        config,
        trace,
        target,
        phases=phases,
        max_redirect_fraction=args.max_redirect,
        store=store_choice(args),
    ).run()
    print(render_report(result))
    if args.output:
        write_output(
            args.output,
            print_program(result.optimized_program),
            "optimized program",
        )
    if args.report:
        write_output(args.report, render_report(result), "report")
    return 0


def _open_store(path: Optional[str]):
    from repro.core.store import SessionStore, default_store_root

    return SessionStore(path if path else default_store_root())


def cmd_store_stats(args: argparse.Namespace) -> int:
    from repro.core.store import KINDS, human_bytes

    stats = _open_store(args.store).stats()
    print(f"store root:        {stats['root']}")
    print(f"schema / code:     v{stats['schema']} / {stats['code'][:12]}")
    for kind in KINDS:
        print(
            f"{kind + ' entries:':<18} {stats[kind + '_entries']} "
            f"({human_bytes(stats[kind + '_bytes'])})"
        )
    print(f"quarantined:       {stats['quarantine_entries']}")
    print(
        f"size:              {human_bytes(stats['total_bytes'])} "
        f"of {human_bytes(stats['max_bytes'])} cap"
    )
    return 0


def cmd_store_clear(args: argparse.Namespace) -> int:
    store = _open_store(args.store)
    removed = store.clear()
    print(f"removed {removed} entries from {store.root}")
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    from repro.core.fleet import DEFAULT_FAMILIES, build_fabric, run_fleet
    from repro.core.report import render_fleet_report

    if args.families:
        families = tuple(
            f.strip() for f in args.families.split(",") if f.strip()
        )
    else:
        families = DEFAULT_FAMILIES
    try:
        specs = build_fabric(
            args.size,
            families=families,
            seed=args.seed,
            packets=args.packets,
        )
    except ModuleNotFoundError as exc:
        print(
            f"error: unknown program family ({exc.name}); built-ins: "
            + ", ".join(DEFAULT_FAMILIES),
            file=sys.stderr,
        )
        return 2
    fleet = run_fleet(specs, store=store_choice(args), workers=args.workers)
    report = render_fleet_report(fleet)
    print(report)
    if args.report:
        write_output(args.report, report + "\n", "fleet report")
    if args.json:
        write_output(
            args.json,
            json.dumps(fleet.as_dict(), indent=2) + "\n",
            "fleet summary",
        )
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    import tempfile

    from repro.core.report import render_explore_report
    from repro.explore import DesignSpace, Explorer, parse_grid, seed_space

    programs = (
        tuple(p.strip() for p in args.programs.split(",") if p.strip())
        if args.programs
        else None
    )
    # A malformed --grid raises ValueError: main() reports it, exit 2.
    if args.grid:
        from repro.programs.common import EXAMPLE_TARGET

        base = load_target(args.target) if args.target else EXAMPLE_TARGET
        space = DesignSpace(
            programs=programs if programs else ("example_firewall",),
            shapes=parse_grid(args.grid, base),
        )
    else:
        space = seed_space(
            programs,
            base=load_target(args.target) if args.target else None,
        )

    def sweep(store) -> int:
        explorer = Explorer(
            space,
            packets=args.packets,
            trace_seed=args.trace_seed,
            sample=args.sample,
            seed=args.seed,
            workers=args.workers,
            store=store,
        )
        try:
            result = explorer.run()
        except ModuleNotFoundError as exc:
            print(
                f"error: unknown program family ({exc.name})",
                file=sys.stderr,
            )
            return 2
        report = render_explore_report(result)
        print(report)
        if args.report:
            write_output(args.report, report + "\n", "exploration report")
        if args.json:
            write_output(
                args.json,
                json.dumps(result.as_dict(), indent=2, sort_keys=True)
                + "\n",
                "exploration summary",
            )
        if result.aggregate()["frontier_points"] == 0:
            print(
                "error: empty frontier — no swept design point both "
                "optimizes and fits its shape",
                file=sys.stderr,
            )
            return 1
        return 0

    store = store_choice(args)
    if store is not None or os.environ.get("P2GO_STORE"):
        return sweep(store)
    # No store requested anywhere: cross-point reuse is the sweep's
    # whole economy, so share an ephemeral store for this run.
    with tempfile.TemporaryDirectory(prefix="p2go-explore-") as tmp:
        return sweep(tmp)


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.core.report import render_serve_report
    from repro.core.serve import (
        ContinuousOptimizer,
        GeneratorFeed,
        LineFeed,
        SocketFeed,
        TraceFeed,
    )

    if args.program:
        program = load_program(args.program)
        config = load_config(args.config)
        target = load_target(args.target)
        if not args.trace:
            print(
                "error: --trace (the baseline optimization trace) is "
                "required with an explicit program",
                file=sys.stderr,
            )
            return 2
        baseline = load_trace(args.trace)
        if args.feed == "generator":
            print(
                "error: --feed generator scripts the built-in example "
                "firewall's drift scenario; use --feed trace/lines/"
                "socket with an explicit program",
                file=sys.stderr,
            )
            return 2
    else:
        from repro.programs import example_firewall

        program = example_firewall.build_program()
        config = example_firewall.runtime_config()
        target = example_firewall.TARGET
        baseline = example_firewall.make_trace(
            args.baseline_packets, seed=args.seed
        )

    if args.feed == "generator":
        feed = GeneratorFeed.firewall_drift(
            total=args.max_packets if args.max_packets else 3000,
            seed=args.seed,
            shift_at=args.shift_at,
        )
    elif args.feed == "trace":
        replay = (
            load_trace(args.feed_trace) if args.feed_trace else baseline
        )
        feed = TraceFeed(replay, repeat=args.repeat)
    elif args.feed == "lines":
        if not args.lines:
            print("error: --feed lines requires --lines FILE ('-' for "
                  "stdin)", file=sys.stderr)
            return 2
        feed = LineFeed(
            sys.stdin if args.lines == "-" else args.lines
        )
    else:  # socket
        host, _, port = args.listen.rpartition(":")
        feed = SocketFeed(host or "127.0.0.1", int(port))
        print(
            "listening on {}:{} (line format: '<hex packet> "
            "[ingress_port]')".format(*feed.address)
        )

    optimizer = ContinuousOptimizer(
        program,
        config,
        baseline,
        target,
        phases=tuple(int(p) for p in args.phases.split(",")),
        window=args.window,
        hit_rate_tolerance=args.tolerance,
        store=store_choice(args),
        workers=args.workers,
        log=print if not args.quiet else None,
    )
    result = optimizer.run(
        feed, max_packets=args.max_packets, duration=args.duration
    )
    report = render_serve_report(result)
    print(report)
    if args.report:
        write_output(args.report, report + "\n", "serve report")
    if args.json:
        write_output(
            args.json,
            json.dumps(result.stats.as_dict(), indent=2) + "\n",
            "serve stats",
        )
    if args.output:
        write_output(
            args.output,
            print_program(result.program),
            "final serving program",
        )
    return 0 if result.stats.misprocessed == 0 else 1


def cmd_demo(args: argparse.Namespace) -> int:
    import inspect

    from repro import programs
    from repro.core.fleet import family_inputs

    names = [
        name
        for name in programs.__all__
        if inspect.ismodule(getattr(programs, name))
    ]
    if args.name not in names:
        print(f"unknown demo {args.name!r}; available: "
              + ", ".join(names), file=sys.stderr)
        return 2
    # trace_seed=None: each bundled program's own default trace.
    result = P2GO(*family_inputs(args.name, trace_seed=None)).run()
    print(stage_table(result))
    print()
    for decision in result.applied:
        print(render_decision(decision))
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.core.observations import Reason
    from repro.fuzz import (
        ALL_AXES,
        break_optimizer,
        load_repro,
        run_axes,
        run_campaign,
        unknown_axes,
    )

    if args.replay:
        case, axes = load_repro(args.replay)
    elif args.axes:
        axes = tuple(a.strip() for a in args.axes.split(",") if a.strip())
    else:
        axes = ALL_AXES
    complaint = unknown_axes(axes)
    if complaint:
        print(f"error: {complaint}", file=sys.stderr)
        return 2

    if args.replay:
        failures = run_axes(case, axes)
        if not failures:
            print(f"{args.replay}: no longer fails")
            return 0
        for failure in failures:
            print(f"{args.replay}: {failure}")
        return 1

    result = run_campaign(
        base_seed=args.seed,
        iterations=args.iterations,
        time_budget=args.time_budget,
        axes=axes,
        shrink=args.shrink,
        repro_dir=Path(args.repro_dir) if args.repro_dir else None,
        trace_packets=args.trace_packets,
        mutator=break_optimizer if args.break_optimizer else None,
        log=print,
    )
    print(
        f"{result.iterations} iteration(s), axes {','.join(result.axes)}: "
        f"{len(result.failures)} failure(s) in "
        f"{result.elapsed_seconds:.1f}s"
    )
    if "behavior" in result.axes:
        tally = result.exercised
        for phase in (2, 3, 4):
            key = f"phase {phase}"
            reasons = ", ".join(
                f"{reason.value} {tally[f'{key} rejected {reason.value}']}"
                for reason in Reason
                if tally[f"{key} rejected {reason.value}"]
            )
            print(
                f"{key}: {tally[f'{key} accepted']} accepted, "
                f"{tally[f'{key} rejected']} rejected"
                + (f" ({reasons})" if reasons else "")
                + f", {tally[f'{key} nothing enumerated']} nothing enumerated"
            )
        print(
            f"behavior axis checked {result.exercised['offload_checked']} "
            "offloading case(s)"
        )
    return 0 if result.ok else 1


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="P2GO: profile-guided optimization of P4 programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile and show stage map")
    p_compile.add_argument("program", help="P4 DSL file")
    p_compile.add_argument("--target", help="target model JSON")
    p_compile.set_defaults(func=cmd_compile)

    p_profile = sub.add_parser("profile", help="profile on a trace")
    p_profile.add_argument("program")
    p_profile.add_argument("--config", help="runtime config JSON")
    p_profile.add_argument("--trace", required=True, help="pcap trace")
    p_profile.add_argument(
        "--reference",
        action="store_true",
        help="replay on the reference interpreter (no compiled match "
        "structures, no execution plan): the oracle the engine is "
        "checked against, not a speed setting",
    )
    p_profile.set_defaults(func=cmd_profile)

    p_opt = sub.add_parser("optimize", help="run the P2GO pipeline")
    p_opt.add_argument("program")
    p_opt.add_argument("--config", help="runtime config JSON")
    p_opt.add_argument("--trace", required=True, help="pcap trace")
    p_opt.add_argument("--target", help="target model JSON")
    p_opt.add_argument("--phases", default="2,3,4",
                       help="comma-separated phase order (default 2,3,4)")
    p_opt.add_argument("--max-redirect", type=float, default=0.10,
                       help="controller-load budget (default 0.10)")
    p_opt.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help="warm-start from (and persist probes to) the cross-run "
        "session store rooted here (default: $P2GO_STORE, then no "
        "store); a second run over an unchanged program+trace performs "
        "zero compiles and zero replays",
    )
    p_opt.add_argument(
        "--no-store",
        action="store_true",
        help="memory-only run even when $P2GO_STORE is set",
    )
    p_opt.add_argument("-o", "--output", help="write optimized DSL here")
    p_opt.add_argument("--report", help="write the report here")
    p_opt.set_defaults(func=cmd_optimize)

    p_store = sub.add_parser(
        "store", help="inspect or clear the persistent session store"
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_stats = store_sub.add_parser(
        "stats", help="print store census (entries, size, layout)"
    )
    p_stats.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help="store root (default: $P2GO_STORE, then ~/.cache/p2go)",
    )
    p_stats.set_defaults(func=cmd_store_stats)
    p_clear = store_sub.add_parser(
        "clear", help="delete every stored entry (the layout survives)"
    )
    p_clear.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help="store root (default: $P2GO_STORE, then ~/.cache/p2go)",
    )
    p_clear.set_defaults(func=cmd_store_clear)

    p_fleet = sub.add_parser(
        "fleet",
        help="optimize a fabric of built-in switches over one shared "
        "store",
    )
    p_fleet.add_argument(
        "--size", type=int, default=8,
        help="number of switches in the fabric (default 8)",
    )
    p_fleet.add_argument(
        "--families", default=None,
        help="comma-separated program families the fabric cycles "
        "through (default enterprise,nat_gre,sourceguard,cgnat)",
    )
    p_fleet.add_argument(
        "--seed", type=int, default=0,
        help="base trace seed; switch i sees traffic seeded seed+i "
        "(default 0)",
    )
    p_fleet.add_argument(
        "--packets", type=int, default=None,
        help="per-switch trace length (default: each family's "
        "standard trace)",
    )
    p_fleet.add_argument(
        "--workers", type=int, default=None,
        help="coordinator process-pool size (default: $P2GO_WORKERS, "
        "then 1; per-switch results are identical for any value)",
    )
    p_fleet.add_argument(
        "--store", metavar="PATH", default=None,
        help="shared store root every switch reads and writes "
        "(default: $P2GO_STORE, then no store)",
    )
    p_fleet.add_argument(
        "--no-store", action="store_true",
        help="run the fabric without a shared store (no cross-switch "
        "reuse) even when $P2GO_STORE is set",
    )
    p_fleet.add_argument("--report", help="write the fleet report here")
    p_fleet.add_argument(
        "--json", metavar="FILE",
        help="write the aggregate + per-switch summary as JSON",
    )
    p_fleet.set_defaults(func=cmd_fleet)

    p_explore = sub.add_parser(
        "explore",
        help="sweep a design space (shapes x orders x policies) and "
        "extract the Pareto frontier",
    )
    p_explore.add_argument(
        "--programs", default=None,
        help="comma-separated program families to sweep (default: "
        "example_firewall — the ablation benches' program)",
    )
    p_explore.add_argument(
        "--grid", default=None, metavar="SPEC",
        help="shape grid as ';'-separated axis clauses, e.g. "
        "'stages=3,6,12;sram=8,16;tcam=4,8' (axes omitted stay at the "
        "base target's value; default: the seed grid "
        "stages=2,3,4,6,12;sram=8,16)",
    )
    p_explore.add_argument(
        "--target", default=None,
        help="base target JSON the grid's shapes are applied to "
        "(default: the example target)",
    )
    p_explore.add_argument(
        "--sample", type=int, default=None, metavar="N",
        help="run a seeded N-point sample of the grid instead of all "
        "of it (order-preserving; same --seed -> same points)",
    )
    p_explore.add_argument(
        "--seed", type=int, default=0,
        help="sampling seed (default 0)",
    )
    p_explore.add_argument(
        "--trace-seed", type=int, default=0,
        help="per-program traffic seed (default 0)",
    )
    p_explore.add_argument(
        "--packets", type=int, default=None,
        help="per-program trace length (default: each family's "
        "standard trace)",
    )
    p_explore.add_argument(
        "--workers", type=int, default=None,
        help="coordinator process-pool size (default: $P2GO_WORKERS, "
        "then 1; results and JSON are identical for any value)",
    )
    p_explore.add_argument(
        "--store", metavar="PATH", default=None,
        help="shared store root every point reads and writes "
        "(default: $P2GO_STORE, then an ephemeral per-run store — "
        "cross-point reuse always on)",
    )
    p_explore.add_argument(
        "--no-store", action="store_true",
        help="run every point storeless (no cross-point reuse)",
    )
    p_explore.add_argument(
        "--report", metavar="FILE",
        help="write the exploration report here",
    )
    p_explore.add_argument(
        "--json", metavar="FILE",
        help="write the canonical sweep summary (points, frontier, "
        "breakpoints, aggregate) as JSON",
    )
    p_explore.set_defaults(func=cmd_explore)

    p_serve = sub.add_parser(
        "serve",
        help="continuous-optimization daemon: serve, monitor, "
        "re-optimize on drift, equivalence-gate, swap",
    )
    p_serve.add_argument(
        "program", nargs="?", default=None,
        help="P4 DSL file (default: the built-in example firewall)",
    )
    p_serve.add_argument("--config", help="runtime config JSON")
    p_serve.add_argument(
        "--trace",
        help="baseline optimization trace (pcap); required with an "
        "explicit program",
    )
    p_serve.add_argument("--target", help="target model JSON")
    p_serve.add_argument(
        "--feed", choices=("generator", "trace", "lines", "socket"),
        default="generator",
        help="packet source: the scripted drift scenario (default, "
        "built-in program only), a pcap replay, newline-framed hex "
        "lines, or a TCP socket speaking the line format",
    )
    p_serve.add_argument(
        "--feed-trace", metavar="PCAP",
        help="pcap to replay with --feed trace (default: the baseline "
        "trace)",
    )
    p_serve.add_argument(
        "--repeat", type=int, default=1,
        help="times --feed trace replays its pcap (default 1)",
    )
    p_serve.add_argument(
        "--lines", metavar="FILE",
        help="line-feed source file, '-' for stdin (--feed lines)",
    )
    p_serve.add_argument(
        "--listen", metavar="HOST:PORT", default="127.0.0.1:0",
        help="socket-feed bind address (--feed socket; port 0 picks a "
        "free port and prints it)",
    )
    p_serve.add_argument(
        "--max-packets", type=int, default=None,
        help="stop after serving this many packets (also sizes the "
        "generator feed's scenario; default: serve until the feed "
        "ends)",
    )
    p_serve.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="stop after this much serving time",
    )
    p_serve.add_argument(
        "--window", type=int, default=1000,
        help="sliding drift window in packets — also the re-optimize "
        "and gate trace length (default 1000)",
    )
    p_serve.add_argument(
        "--tolerance", type=float, default=0.10,
        help="windowed hit-rate drift tolerance (default 0.10)",
    )
    p_serve.add_argument(
        "--phases", default="2,3",
        help="phases each (re-)optimization runs (default 2,3: the "
        "strict promotion gate rejects phase-4 offloads by design)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=1,
        help="0 = inline, 1 = one background thread: re-optimize in "
        "the ingest loop (deterministic counters) or while traffic "
        "keeps flowing (default 1)",
    )
    p_serve.add_argument(
        "--seed", type=int, default=0,
        help="generator-feed and baseline-trace seed (default 0)",
    )
    p_serve.add_argument(
        "--shift-at", type=float, default=0.5,
        help="fraction of the generator scenario after which the "
        "traffic mix shifts (default 0.5)",
    )
    p_serve.add_argument(
        "--baseline-packets", type=int, default=4000,
        help="built-in baseline trace length (default 4000)",
    )
    p_serve.add_argument(
        "--store", metavar="PATH", default=None,
        help="persistent session store warm-starting every "
        "re-optimization (default: $P2GO_STORE, then no store)",
    )
    p_serve.add_argument(
        "--no-store", action="store_true",
        help="memory-only serving even when $P2GO_STORE is set",
    )
    p_serve.add_argument(
        "--quiet", action="store_true",
        help="suppress per-event log lines (the report still prints)",
    )
    p_serve.add_argument("--report", help="write the serve report here")
    p_serve.add_argument(
        "--json", metavar="FILE",
        help="write the serve stats (counters, latencies, events) as "
        "JSON",
    )
    p_serve.add_argument(
        "-o", "--output",
        help="write the final serving program's DSL here",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_demo = sub.add_parser("demo", help="run a built-in scenario")
    p_demo.add_argument("name")
    p_demo.set_defaults(func=cmd_demo)

    p_fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing of the optimizer"
    )
    p_fuzz.add_argument(
        "--seed", type=int, default=0,
        help="base seed; iteration i uses seed+i (default 0)",
    )
    p_fuzz.add_argument(
        "--iterations", type=int, default=25,
        help="number of seeded cases to run (default 25)",
    )
    p_fuzz.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="stop starting new iterations after this many seconds",
    )
    p_fuzz.add_argument(
        "--axes", default=None,
        help="comma-separated oracle axes (default: all of "
        "behavior,engine,store,order)",
    )
    p_fuzz.add_argument(
        "--shrink", default=True, action=argparse.BooleanOptionalAction,
        help="minimize failing cases before writing repros (default on)",
    )
    p_fuzz.add_argument(
        "--repro-dir", metavar="DIR", default=None,
        help="write a replayable repro JSON per failure into this "
        "directory",
    )
    p_fuzz.add_argument(
        "--trace-packets", type=int, default=None,
        help="override generated trace length (smaller = faster)",
    )
    p_fuzz.add_argument(
        "--replay", metavar="FILE", default=None,
        help="re-run one repro file instead of a campaign",
    )
    p_fuzz.add_argument(
        "--break-optimizer", action="store_true",
        help="mutation self-test: sabotage the optimized program so "
        "the behaviour axis must fail",
    )
    p_fuzz.set_defaults(func=cmd_fuzz)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # A bad argument value argparse cannot see: a fabric size, a
        # worker count, $P2GO_WORKERS, a --grid clause.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

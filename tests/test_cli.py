"""Tests for the command-line interface."""

import json
import re

import pytest

from repro.cli import build_arg_parser, main
from repro.p4.dsl import print_program
from repro.packets.pcap import write_pcap
from repro.programs import nat_gre
from tests.conftest import build_toy_program


@pytest.fixture
def toy_files(tmp_path):
    """A toy program + config + trace on disk, CLI-style."""
    program = build_toy_program()
    prog_path = tmp_path / "toy.p4"
    prog_path.write_text(print_program(program))

    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "entries": {
                    "fib": [
                        {"match": [[0x0A000000, 8]], "action": "fwd",
                         "args": [3]},
                        {"match": [[0, 0]], "action": "fwd", "args": [1]},
                    ],
                    "acl": [{"match": [53], "action": "deny"}],
                }
            }
        )
    )

    from repro.packets.craft import udp_packet

    trace_path = tmp_path / "trace.pcap"
    write_pcap(
        trace_path,
        [
            udp_packet("1.1.1.1", "10.0.0.9", 5, 53),
            udp_packet("1.1.1.1", "10.0.0.9", 5, 80),
            udp_packet("1.1.1.1", "99.0.0.9", 5, 80),
        ],
    )
    return prog_path, config_path, trace_path


class TestCompile:
    def test_compile_prints_stage_map(self, toy_files, capsys):
        prog_path, _config, _trace = toy_files
        assert main(["compile", str(prog_path)]) == 0
        out = capsys.readouterr().out
        assert "stages used" in out
        assert "fib" in out

    def test_compile_custom_target(self, toy_files, tmp_path, capsys):
        prog_path, _config, _trace = toy_files
        target_path = tmp_path / "target.json"
        target_path.write_text(json.dumps({"num_stages": 2,
                                           "name": "tiny"}))
        main(["compile", str(prog_path), "--target", str(target_path)])
        out = capsys.readouterr().out
        assert "tiny" in out

    def test_nonzero_exit_when_not_fitting(self, toy_files, tmp_path):
        prog_path, _config, _trace = toy_files
        target_path = tmp_path / "target.json"
        target_path.write_text(json.dumps({"num_stages": 1}))
        assert (
            main(["compile", str(prog_path), "--target", str(target_path)])
            == 2
        )

    def test_missing_file_reports_error(self, capsys):
        assert main(["compile", "no_such.p4"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "target, message",
        [
            (
                {"num_stages": 4, "bogus": 1},
                "unknown field(s) bogus; known: name, num_stages",
            ),
            ([1, 2], "must hold a JSON object, not a list"),
        ],
        ids=["unknown-field", "not-an-object"],
    )
    def test_malformed_target_reports_error(
        self, toy_files, tmp_path, capsys, target, message
    ):
        prog_path, _config, _trace = toy_files
        target_path = tmp_path / "target.json"
        target_path.write_text(json.dumps(target))
        assert (
            main(["compile", str(prog_path), "--target", str(target_path)])
            == 2
        )
        err = capsys.readouterr().err
        assert err.startswith("error: target file ")
        assert message in err


class TestProfile:
    def test_profile_outputs_rates(self, toy_files, capsys):
        prog_path, config_path, trace_path = toy_files
        assert (
            main(
                [
                    "profile",
                    str(prog_path),
                    "--config",
                    str(config_path),
                    "--trace",
                    str(trace_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "profiled 3 packets" in out
        assert "fib" in out and "100.00%" in out

    def test_reference_flag_profiles_identically(self, toy_files, capsys):
        """``--reference`` selects the oracle interpreter: the same
        profile, only the throughput line may differ."""
        prog_path, config_path, trace_path = toy_files
        command = [
            "profile", str(prog_path),
            "--config", str(config_path), "--trace", str(trace_path),
        ]
        outputs = []
        for flags in ([], ["--reference"]):
            assert main(command + flags) == 0
            outputs.append([
                line
                for line in capsys.readouterr().out.splitlines()
                if not line.startswith("throughput:")
            ])
        assert outputs[0] == outputs[1]

    def test_malformed_config_reports_error(self, toy_files, capsys):
        prog_path, config_path, trace_path = toy_files
        config_path.write_text(json.dumps({"defaults": {"acl": {}}}))
        command = [
            "profile", str(prog_path),
            "--config", str(config_path), "--trace", str(trace_path),
        ]
        assert main(command) == 1
        assert capsys.readouterr().err == (
            "error: table 'acl' default has no 'action'\n"
        )

    def test_malformed_config_section_reports_error(
        self, toy_files, capsys
    ):
        prog_path, config_path, trace_path = toy_files
        config_path.write_text(json.dumps({"register_inits": [[1]]}))
        command = [
            "profile", str(prog_path),
            "--config", str(config_path), "--trace", str(trace_path),
        ]
        assert main(command) == 1
        assert capsys.readouterr().err == (
            "error: 'register_inits' item 0 must be "
            "[register, index, value], not [1]\n"
        )

    def test_malformed_dsl_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.p4"
        bad.write_text("table {")
        assert main(["compile", str(bad)]) == 1
        assert "error" in capsys.readouterr().err


class TestOptimize:
    def test_optimize_nat_gre_end_to_end(self, tmp_path, capsys):
        program = nat_gre.build_program()
        prog_path = tmp_path / "nat_gre.p4"
        prog_path.write_text(print_program(program))

        config = nat_gre.runtime_config()
        entries = {}
        for table, table_entries in config.entries.items():
            entries[table] = [
                {
                    "match": [
                        list(m) if isinstance(m, tuple) else m
                        for m in e.match
                    ],
                    "action": e.action,
                    "args": list(e.action_args),
                }
                for e in table_entries
            ]
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"entries": entries}))

        trace_path = tmp_path / "trace.pcap"
        write_pcap(trace_path, nat_gre.make_trace(500))

        target_path = tmp_path / "target.json"
        from dataclasses import asdict

        target_path.write_text(json.dumps(asdict(nat_gre.TARGET)))

        out_path = tmp_path / "optimized.p4"
        report_path = tmp_path / "report.txt"
        code = main(
            [
                "optimize",
                str(prog_path),
                "--config", str(config_path),
                "--trace", str(trace_path),
                "--target", str(target_path),
                "-o", str(out_path),
                "--report", str(report_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stages: 4 -> 3" in out
        assert out_path.exists()
        # The written program parses back and shows the rewrite.
        from repro.p4.dsl import parse_program

        optimized = parse_program(out_path.read_text(), "optimized")
        from repro.p4.control import find_apply

        nat_apply = find_apply(optimized.ingress, "nat")
        assert nat_apply.on_miss is not None
        assert "removed dependency" in report_path.read_text()

    def test_optimize_workers_flag(self, toy_files, capsys):
        """A session probes serially: ``optimize`` has no ``--workers``."""
        prog_path, config_path, trace_path = toy_files
        with pytest.raises(SystemExit) as exited:
            main(
                [
                    "optimize",
                    str(prog_path),
                    "--config", str(config_path),
                    "--trace", str(trace_path),
                    "--workers", "2",
                ]
            )
        assert exited.value.code == 2
        assert "unrecognized arguments: --workers 2" in (
            capsys.readouterr().err
        )

    def test_optimize_workers_env(self, toy_files, capsys, monkeypatch):
        """``$P2GO_WORKERS`` sizes fan-out pools only: ``optimize``
        prints the plain session line."""
        prog_path, config_path, trace_path = toy_files
        monkeypatch.setenv("P2GO_WORKERS", "2")
        code = main(
            [
                "optimize",
                str(prog_path),
                "--config", str(config_path),
                "--trace", str(trace_path),
            ]
        )
        assert code == 0
        assert "compile/profile session: compile:" in (
            capsys.readouterr().out
        )


class TestStore:
    def optimize(self, toy_files, extra):
        prog_path, config_path, trace_path = toy_files
        return main(
            [
                "optimize",
                str(prog_path),
                "--config", str(config_path),
                "--trace", str(trace_path),
            ]
            + extra
        )

    def test_second_run_warm_starts_from_store(
        self, toy_files, tmp_path, capsys
    ):
        store = tmp_path / "store"
        assert self.optimize(toy_files, ["--store", str(store)]) == 0
        capsys.readouterr()
        assert self.optimize(toy_files, ["--store", str(store)]) == 0
        out = capsys.readouterr().out
        # The report's census: a run outside a fan-out still takes it.
        assert re.search(
            r"^persistent store: .* analysis entries, [0-9,]+ bytes ",
            out,
            re.MULTILINE,
        )
        # Warm run: the compile and the profile line report zero
        # executions — everything hydrated from disk — and with no
        # compile executed, no analysis was even asked for.
        assert out.count(" 0 executed (") == 3
        assert "analysis: 0 calls" in out

    def test_store_stats_and_clear(self, toy_files, tmp_path, capsys):
        store = tmp_path / "store"
        self.optimize(toy_files, ["--store", str(store)])
        capsys.readouterr()

        assert main(["store", "stats", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "store root:" in out
        # Per-kind breakdown with human-readable sizes, one line each.
        assert "compile entries:   " in out
        assert "profile entries:   " in out
        assert "compile entries:   0 " not in out  # entries persisted
        assert "profile entries:   0 " not in out
        assert "KiB" in out or "MiB" in out
        assert "cap" in out

        assert main(["store", "clear", "--store", str(store)]) == 0
        assert "removed" in capsys.readouterr().out
        main(["store", "stats", "--store", str(store)])
        out = capsys.readouterr().out
        assert "compile entries:   0 (0 B)" in out
        assert "profile entries:   0 (0 B)" in out

    def test_store_stats_creates_no_store(self, tmp_path, capsys):
        store = tmp_path / "nonexistent"
        assert main(["store", "stats", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "compile entries:   0 (0 B)" in out
        assert "quarantined:       0" in out
        assert not store.exists()

    def test_env_var_enables_store(
        self, toy_files, tmp_path, capsys, monkeypatch
    ):
        store = tmp_path / "env-store"
        monkeypatch.setenv("P2GO_STORE", str(store))
        assert self.optimize(toy_files, []) == 0
        assert "persistent store:" in capsys.readouterr().out
        assert (store / "v1").exists()

    def test_no_store_beats_env_var(
        self, toy_files, tmp_path, capsys, monkeypatch
    ):
        store = tmp_path / "env-store"
        monkeypatch.setenv("P2GO_STORE", str(store))
        assert self.optimize(toy_files, ["--no-store"]) == 0
        assert "persistent store:" not in capsys.readouterr().out
        assert not store.exists()

    def test_no_store_by_default(self, toy_files, capsys, monkeypatch):
        monkeypatch.delenv("P2GO_STORE", raising=False)
        assert self.optimize(toy_files, []) == 0
        assert "persistent store:" not in capsys.readouterr().out


class TestDemo:
    def test_demo_nat_gre(self, capsys):
        assert main(["demo", "nat_gre"]) == 0
        out = capsys.readouterr().out
        assert "Removing Deps." in out

    def test_unknown_demo(self, capsys):
        assert main(["demo", "nope"]) == 2
        assert "unknown demo" in capsys.readouterr().err


class TestFuzz:
    def test_healthy_iteration_exits_zero(self, capsys):
        assert main(["fuzz", "--seed", "0", "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "0 failure(s)" in out
        assert "behavior axis checked 0 offloading case(s)" in out

    def test_broken_optimizer_exits_nonzero(self, tmp_path, capsys):
        code = main(
            [
                "fuzz",
                "--seed", "3",
                "--iterations", "1",
                "--axes", "behavior",
                "--break-optimizer",
                "--repro-dir", str(tmp_path),
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "shrunk to" in out
        repros = list(tmp_path.glob("repro-*.json"))
        assert len(repros) == 1
        # The written repro replays clean under the real optimizer.
        assert main(["fuzz", "--replay", str(repros[0])]) == 0
        assert "no longer fails" in capsys.readouterr().out

    def test_unknown_axis_rejected(self, capsys):
        assert main(["fuzz", "--axes", "bogus"]) == 2
        assert "unknown axes" in capsys.readouterr().err

    def test_replay_of_retired_axis_rejected(self, toy_files, tmp_path,
                                             capsys):
        """A repro recorded before an axis was retired names an axis
        ``run_axes`` no longer knows: a one-line error and exit 2, like
        ``--axes``, not a ``ValueError`` traceback.  ``workers`` is such
        an axis: sessions probe serially."""
        prog_path, _config, _trace = toy_files
        for axis in ("retired_axis", "workers"):
            repro = tmp_path / f"repro-0-{axis}.json"
            repro.write_text(
                json.dumps(
                    {
                        "seed": 0,
                        "axes": ["behavior", axis],
                        "failure": {"axis": axis, "detail": "old"},
                        "program": prog_path.read_text(),
                        "config": {
                            "entries": {
                                "acl": [{"match": [53], "action": "deny"}]
                            }
                        },
                        "trace": [{"data": "00" * 64, "port": None}],
                        "target": {"name": "tiny", "num_stages": 4},
                    }
                )
            )
            assert main(["fuzz", "--replay", str(repro)]) == 2
            captured = capsys.readouterr()
            assert (
                f"error: unknown axes ['{axis}']; known: " in captured.err
            )
            assert "behavior, engine, store, order" in captured.err
            assert len(captured.err.splitlines()) == 1
            assert "Traceback" not in captured.err and not captured.out


class TestFleet:
    """``p2go fleet``: a built-in fabric over one shared store."""

    FAST = ["--size", "2", "--families", "nat_gre,cgnat",
            "--packets", "120"]

    def test_fleet_prints_report_and_writes_json(
        self, tmp_path, capsys
    ):
        store = tmp_path / "store"
        summary = tmp_path / "fleet.json"
        assert main(
            ["fleet", *self.FAST, "--store", str(store),
             "--json", str(summary)]
        ) == 0
        out = capsys.readouterr().out
        assert "P2GO fleet report — 2 switches" in out
        assert "sw00-nat_gre" in out and "sw01-cgnat" in out
        assert "stages reclaimed:" in out
        assert "cross-switch reuse" in out
        assert str(store) in out
        payload = json.loads(summary.read_text())
        aggregate, switches = payload["aggregate"], payload["switches"]
        assert list(payload) == ["aggregate", "switches"]
        assert aggregate["switches"] == 2
        assert [switch["name"] for switch in switches] == [
            "sw00-nat_gre", "sw01-cgnat",
        ]
        for switch in switches:
            assert list(switch) == [
                "name", "seconds", "stages_before", "stages_after",
            ]
            assert 0 < switch["stages_after"] <= switch["stages_before"]
        # Per-switch stages add up to the fleet's totals.
        for key in ("stages_before", "stages_after"):
            assert sum(switch[key] for switch in switches) == aggregate[key]
        assert aggregate["stages_reclaimed"] == (
            aggregate["stages_before"] - aggregate["stages_after"]
        )
        assert (store / "v1").exists()

    def test_fleet_report_file(self, tmp_path, capsys):
        report = tmp_path / "fleet.txt"
        assert main(
            ["fleet", *self.FAST, "--no-store",
             "--report", str(report)]
        ) == 0
        assert "fleet report written to" in capsys.readouterr().out
        assert "stages reclaimed:" in report.read_text()

    def test_no_store_beats_env_var(self, tmp_path, capsys, monkeypatch):
        store = tmp_path / "env-store"
        monkeypatch.setenv("P2GO_STORE", str(store))
        assert main(["fleet", *self.FAST, "--no-store"]) == 0
        out = capsys.readouterr().out
        assert "shared store:" not in out
        assert not store.exists()

    def test_env_var_enables_store(self, tmp_path, capsys, monkeypatch):
        store = tmp_path / "env-store"
        monkeypatch.setenv("P2GO_STORE", str(store))
        assert main(["fleet", *self.FAST]) == 0
        assert "shared store:" in capsys.readouterr().out
        assert (store / "v1").exists()

    def test_unknown_family_reports_error(self, capsys):
        assert main(
            ["fleet", "--size", "1", "--families", "no_such_family"]
        ) == 2
        assert "unknown program family" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, env_workers, complaint",
        [
            (["fleet", "--size", "0"], None, "fabric size"),
            (["fleet", "--families", ","], None, "program family"),
            (["fleet", *FAST, "--workers", "0"], None, "workers must be"),
            (["explore", "--grid", "stages=6", "--packets", "120",
              "--workers", "0"], None, "workers must be"),
            (["serve", "--max-packets", "1", "--workers", "-1"], None,
             "workers must be"),
            (["fleet", *FAST], "abc", "P2GO_WORKERS must be an integer"),
            # One background thread is all a serial session can use.
            (["serve", "--max-packets", "1", "--workers", "2"], None,
             "workers must be 0 (inline) or 1"),
        ],
    )
    def test_bad_fanout_argument_exits_with_usage_error(
        self, argv, env_workers, complaint, toy_files, capsys, monkeypatch
    ):
        """Regression: these died with an uncaught ValueError."""
        if env_workers is not None:
            monkeypatch.setenv("P2GO_WORKERS", env_workers)
        if argv[0] == "optimize":
            prog_path, config_path, trace_path = toy_files
            argv = [argv[0], str(prog_path), "--config", str(config_path),
                    "--trace", str(trace_path), *argv[1:]]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert complaint in captured.err
        assert len(captured.err.splitlines()) == 1


class TestExplore:
    """``p2go explore``: a design-space sweep with a Pareto frontier."""

    FAST = ["--grid", "stages=6,12", "--packets", "300"]

    def test_flags_parse(self):
        args = build_arg_parser().parse_args(
            ["explore", "--programs", "example_firewall", "--grid",
             "stages=3,6;sram=8", "--sample", "5", "--seed", "9",
             "--workers", "2", "--no-store"]
        )
        assert args.programs == "example_firewall"
        assert args.grid == "stages=3,6;sram=8"
        assert args.sample == 5 and args.seed == 9
        assert args.workers == 2 and args.no_store

    def test_explore_prints_report_and_writes_json(
        self, tmp_path, capsys
    ):
        summary = tmp_path / "explore.json"
        assert main(
            ["explore", *self.FAST, "--store", str(tmp_path / "store"),
             "--json", str(summary)]
        ) == 0
        out = capsys.readouterr().out
        assert "P2GO design-space exploration" in out
        assert "cross-point reuse" in out
        assert "smallest fitting shape" in out
        assert re.search(r"^leases: [0-9]+ claimed, ", out, re.MULTILINE)
        assert "lease" not in summary.read_text()
        payload = json.loads(summary.read_text())
        assert set(payload) == {
            "aggregate", "breakpoints", "frontier", "points", "space",
        }
        assert payload["space"]["points_run"] == 8
        assert payload["frontier"]["example_firewall"]
        assert payload["breakpoints"]["example_firewall"][
            "smallest_fit"
        ] is not None
        for point in payload["points"]:
            assert point["status"] == "ok"
            assert point["metrics"]["compile_count"] > 0

    def test_ephemeral_store_still_reuses_across_points(
        self, capsys, monkeypatch
    ):
        # No --store, no $P2GO_STORE: the sweep shares a per-run
        # temporary store, so cross-point reuse is non-zero anyway.
        monkeypatch.delenv("P2GO_STORE", raising=False)
        assert main(["explore", *self.FAST]) == 0
        out = capsys.readouterr().out
        assert "cross-point reuse 0.0%" not in out
        assert "p2go-explore-" in out

    def test_infeasible_only_grid_exits_nonzero(self, capsys):
        assert main(
            ["explore", "--grid", "stages=12;sram=1",
             "--packets", "300"]
        ) == 1
        captured = capsys.readouterr()
        assert "empty frontier" in captured.err
        assert "infeasible points: 4" in captured.out

    def test_bad_grid_exits_with_usage_error(self, capsys):
        assert main(["explore", "--grid", "stages=twelve"]) == 2
        assert "comma-separated integers" in capsys.readouterr().err

    def test_unknown_program_reports_error(self, capsys):
        assert main(
            ["explore", "--programs", "no_such_family",
             "--grid", "stages=6"]
        ) == 2
        assert "unknown program family" in capsys.readouterr().err


class TestServe:
    def test_generator_scenario_completes_a_swap_cycle(
        self, tmp_path, capsys
    ):
        """The acceptance scenario end to end: the built-in firewall,
        a scripted drift feed, at least one detect -> warm reoptimize
        -> equivalence-gated swap, zero misprocessed packets."""
        stats_path = tmp_path / "stats.json"
        assert main(
            [
                "serve",
                "--feed", "generator",
                "--max-packets", "1200",
                "--baseline-packets", "2000",
                "--window", "300",
                "--tolerance", "0.15",
                "--workers", "0",
                "--quiet",
                "--json", str(stats_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "P2GO serve report" in out
        assert "promoted" in out
        stats = json.loads(stats_path.read_text())
        assert stats["packets_in"] == 1200
        assert stats["packets_processed"] == 1200
        assert stats["misprocessed"] == 0
        assert stats["swaps"] >= 1
        assert stats["events"][0]["promoted"] is True
        assert stats["events"][0]["swap_seconds"] > 0

    def test_trace_feed_with_explicit_program(
        self, toy_files, tmp_path, capsys
    ):
        prog_path, config_path, trace_path = toy_files
        out_path = tmp_path / "served.p4"
        assert main(
            [
                "serve", str(prog_path),
                "--config", str(config_path),
                "--trace", str(trace_path),
                "--feed", "trace",
                "--repeat", "4",
                "--window", "6",
                "--workers", "0",
                "--quiet",
                "-o", str(out_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "P2GO serve report" in out
        assert "misprocessed" in out
        assert out_path.exists()

    def test_explicit_program_requires_trace(self, toy_files, capsys):
        prog_path, config_path, _trace = toy_files
        assert main(
            ["serve", str(prog_path), "--config", str(config_path),
             "--feed", "trace"]
        ) == 2
        assert "--trace" in capsys.readouterr().err

    def test_generator_feed_needs_builtin_program(
        self, toy_files, capsys
    ):
        prog_path, config_path, trace_path = toy_files
        assert main(
            ["serve", str(prog_path), "--config", str(config_path),
             "--trace", str(trace_path), "--feed", "generator"]
        ) == 2
        assert "feed generator" in capsys.readouterr().err

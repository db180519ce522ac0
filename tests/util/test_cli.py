"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_elect_defaults(self):
        args = build_parser().parse_args(["elect"])
        assert args.topology is None  # handler defaults paired mode to complete
        assert args.protocol is None
        assert args.n == 1024

    def test_elect_rejects_unpaired_topology_in_paired_mode(self, capsys):
        # Validation moved from the parser to the handler so that
        # single-protocol mode can accept any topology family.
        assert main(["elect", "--topology", "torus", "-n", "8"]) == 2
        assert "torus" in capsys.readouterr().err


class TestCommands:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for i in range(1, 13):
            assert f"E{i} " in out or f"E{i}\t" in out or f"E{i}  " in out

    def test_info_known_experiment(self, capsys):
        assert main(["info", "E1"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 5.2" in out
        assert "bench_e01" in out

    def test_info_unknown_experiment(self, capsys):
        assert main(["info", "E99"]) == 2

    def test_elect_complete_small(self, capsys):
        code = main(["elect", "--topology", "complete", "--n", "128", "--seed", "3"])
        out = capsys.readouterr().out
        assert "quantum" in out and "classical" in out
        assert code in (0, 1)  # success expected w.h.p., failure tolerated

    def test_agree_small(self, capsys):
        code = main(["agree", "--n", "256", "--seed", "1"])
        out = capsys.readouterr().out
        assert "implicit agreement" in out
        assert code in (0, 1)

    def test_routing_demo(self, capsys):
        assert main(["routing-demo", "--leaves", "3"]) == 0
        out = capsys.readouterr().out
        assert "message complexity = 1" in out


class TestSweepParser:
    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep", "--experiment", "E1"])
        assert args.experiment == "E1"
        assert args.scenario is None
        assert args.jobs is None  # all cores

    def test_scenarios_parses(self):
        args = build_parser().parse_args(["scenarios"])
        assert args.command == "scenarios"


class TestSweepCommand:
    def test_requires_exactly_one_target(self, capsys):
        assert main(["sweep"]) == 2
        assert main(["sweep", "--experiment", "E1", "--scenario", "ring-le/hs"]) == 2

    def test_experiment_smoke(self, capsys):
        code = main(
            ["sweep", "--experiment", "E1", "--sizes", "16,32",
             "--trials", "2", "--jobs", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "complete-le/quantum" in out
        assert "ratio (c/q)" in out
        assert "success rates" in out

    def test_unmapped_experiment_is_an_error(self, capsys):
        assert main(["sweep", "--experiment", "E2"]) == 2
        assert "bench" in capsys.readouterr().err

    def test_single_scenario_smoke(self, capsys):
        code = main(
            ["sweep", "--scenario", "ring-le/hs", "--sizes", "8,16",
             "--trials", "2", "--jobs", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ring-le/hs" in out
        assert "p90" in out

    def test_unknown_scenario_is_an_error(self, capsys):
        assert main(["sweep", "--scenario", "le-donut/quantum"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_in_process_call_leaves_environment_unchanged(self, capsys):
        before = dict(os.environ)
        code = main(
            ["sweep", "--scenario", "ring-le/lcr", "--sizes", "8",
             "--trials", "1", "--jobs", "1", "--no-cache",
             "--engine", "reference", "--node-api", "scalar",
             "--kernel", "numpy", "--profile"]
        )
        assert code == 0
        assert dict(os.environ) == before


class TestScenariosCommand:
    def test_lists_catalogue(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "complete-le/quantum" in out
        assert "torus-le/quantum" in out

    def test_lists_protocols(self, capsys):
        assert main(["scenarios", "--protocols"]) == 0
        out = capsys.readouterr().out
        assert "le-diameter2/quantum" in out
        assert "quantum" in out and "classical" in out


class TestAdversaryFlags:
    def test_parser_accepts_adversary_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--scenario", "ring-le/lcr", "--drop-rate", "0.1",
             "--crash", "2@4", "--adversary", "delay=0.05"]
        )
        assert args.drop_rate == 0.1
        assert args.crash == "2@4"
        assert args.adversary == "delay=0.05"

    def test_elect_with_drop_rate(self, capsys):
        code = main(
            ["elect", "--topology", "complete", "--n", "64", "--seed", "3",
             "--drop-rate", "0.05"]
        )
        captured = capsys.readouterr()
        assert "adversary [drop=0.05] armed" in captured.err
        assert code in (0, 1)

    def test_elect_rejects_faults_on_non_engine_protocol(self, capsys):
        code = main(
            ["elect", "--topology", "hypercube", "--n", "16", "--drop-rate", "0.1"]
        )
        assert code == 2
        assert "does not support adversary" in capsys.readouterr().err

    def test_bad_adversary_spec_is_an_error(self, capsys):
        assert main(["elect", "--adversary", "explode=1"]) == 2
        assert "unknown adversary key" in capsys.readouterr().err

    def test_agree_with_input_schedule(self, capsys):
        code = main(
            ["agree", "--n", "128", "--seed", "1", "--adversary", "input=tie"]
        )
        out = capsys.readouterr().out
        assert "adversary [input=tie]" in out
        assert code in (0, 1)

    def test_agree_arms_message_faults_on_engine_row_only(self, capsys):
        code = main(["agree", "--n", "64", "--seed", "1", "--drop-rate", "0.1"])
        captured = capsys.readouterr()
        assert "armed on the engine-driven row only" in captured.err
        assert "adversary [drop=0.1]" in captured.out
        assert code in (0, 1)

    def test_agree_with_adaptive_strategy(self, capsys):
        code = main(
            ["agree", "--n", "64", "--seed", "1", "--adaptive", "target-leader"]
        )
        captured = capsys.readouterr()
        assert "armed on the engine-driven row only" in captured.err
        assert code in (0, 1)

    def test_agree_rejects_engine_faults_below_engine_minimum(self, capsys):
        assert main(["agree", "--n", "2", "--drop-rate", "0.1"]) == 2
        assert "needs n >= 3" in capsys.readouterr().err

    def test_sweep_with_drop_rate_end_to_end(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        argv = ["sweep", "--scenario", "ring-le/lcr", "--sizes", "8,16",
                "--trials", "2", "--jobs", "1", "--drop-rate", "0.1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "adversary [drop=0.1]" in out
        # The fault sweep cached under its own (adversary-aware) keys...
        faulty_entries = sorted(tmp_path.glob("*.json"))
        assert len(faulty_entries) == 2
        # ... and a cached re-run reproduces the same table.
        assert main(argv) == 0
        assert capsys.readouterr().out == out
        # The fault-free sweep misses those keys and writes its own.
        assert main(argv[:-2]) == 0
        assert len(sorted(tmp_path.glob("*.json"))) == 4

    def test_sweep_experiment_arms_supporting_side_only(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        code = main(
            ["sweep", "--experiment", "E1", "--sizes", "32", "--trials", "1",
             "--jobs", "1", "--drop-rate", "0.05"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "armed on the classical side only" in captured.err

    def test_sweep_experiment_with_no_supporting_side_errors(self, capsys):
        code = main(
            ["sweep", "--experiment", "E3", "--sizes", "64", "--trials", "1",
             "--jobs", "1", "--drop-rate", "0.05"]
        )
        assert code == 2
        assert "neither side of E3" in capsys.readouterr().err

    def test_sweep_fault_scenario_from_catalogue(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        code = main(
            ["sweep", "--scenario", "complete-le-lossy/classical",
             "--sizes", "64", "--trials", "2", "--jobs", "1"]
        )
        assert code == 0
        assert "adversary [drop=0.05]" in capsys.readouterr().out

    def test_explicit_zero_drop_rate_strips_catalogue_adversary(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        lossy = ["sweep", "--scenario", "ring-le-lossy/lcr", "--sizes", "32",
                 "--trials", "3", "--jobs", "1"]
        assert main(lossy) == 0
        lossy_out = capsys.readouterr().out
        assert "adversary [drop=0.02]" in lossy_out
        # --drop-rate 0 is a request for the fault-free baseline, not a no-op.
        assert main(lossy + ["--drop-rate", "0"]) == 0
        baseline_out = capsys.readouterr().out
        assert "adversary" not in baseline_out
        assert baseline_out != lossy_out
        # ... and --adversary none does the same.
        assert main(lossy + ["--adversary", "none"]) == 0
        assert "adversary" not in capsys.readouterr().out

    def test_scenarios_table_shows_adversary_column(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "ring-le-lossy/lcr" in out
        assert "drop=0.02" in out


class TestCacheCommand:
    def test_stats_and_clear(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        assert main(["cache", "stats"]) == 0
        assert "entries    : 0" in capsys.readouterr().out
        main(["sweep", "--scenario", "ring-le/lcr", "--sizes", "8",
              "--trials", "1", "--jobs", "1"])
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        assert "entries    : 1" in capsys.readouterr().out
        assert main(["cache", "clear"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert main(["cache", "stats"]) == 0
        assert "entries    : 0" in capsys.readouterr().out

    def test_list_empty_and_populated(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        assert main(["cache", "list"]) == 0
        assert "empty" in capsys.readouterr().out
        main(["sweep", "--scenario", "ring-le/lcr", "--sizes", "8",
              "--trials", "1", "--jobs", "1", "--drop-rate", "0.1"])
        capsys.readouterr()
        assert main(["cache", "list"]) == 0
        out = capsys.readouterr().out
        assert "ring-le/lcr" in out
        assert "yes" in out  # adversary column

    def test_cache_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])


class TestNodeApiFlag:
    def test_parser_accepts_node_api(self):
        for command in (["elect"], ["agree"], ["sweep", "--experiment", "E1"]):
            args = build_parser().parse_args(command + ["--node-api", "batch"])
            assert args.node_api == "batch"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["elect", "--node-api", "vector"])

    def test_elect_complete_batch(self, capsys):
        code = main(
            ["elect", "--topology", "complete", "--n", "64", "--seed", "3",
             "--node-api", "batch"]
        )
        assert "classical" in capsys.readouterr().out
        assert code in (0, 1)

    def test_elect_batch_and_scalar_agree(self, capsys):
        argv = ["elect", "--topology", "complete", "--n", "64", "--seed", "5"]
        assert main(argv + ["--node-api", "batch"]) in (0, 1)
        batch_out = capsys.readouterr().out
        assert main(argv + ["--node-api", "scalar"]) in (0, 1)
        assert capsys.readouterr().out == batch_out

    def test_agree_shows_engine_row(self, capsys):
        code = main(["agree", "--n", "64", "--seed", "1", "--node-api", "batch"])
        out = capsys.readouterr().out
        assert "engine[batch]" in out
        assert code in (0, 1)

    def test_agree_k2_still_works_without_engine_row(self, capsys):
        # The engine-driven row needs n >= 3; K_2 keeps the legacy rows.
        code = main(["agree", "--n", "2", "--seed", "1"])
        out = capsys.readouterr().out
        assert "quantum" in out and "classical" in out
        assert "engine[" not in out
        assert code in (0, 1)

    def test_sweep_scenario_node_api_caches_separately(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        argv = ["sweep", "--scenario", "ring-le/lcr", "--sizes", "8",
                "--trials", "2", "--jobs", "1"]
        assert main(argv + ["--node-api", "batch"]) == 0
        batch_out = capsys.readouterr().out
        assert "node-api batch" in batch_out
        assert main(argv + ["--node-api", "scalar"]) == 0
        scalar_out = capsys.readouterr().out
        # Bit-identical aggregates, separately-cached trial sets.
        assert len(sorted(tmp_path.glob("*.json"))) == 2
        strip = lambda s: s.replace("node-api batch", "").replace(", )", ")")
        assert [r for r in strip(batch_out).splitlines() if "|" in r] == [
            r for r in strip(scalar_out).splitlines() if "|" in r
        ]

    def test_sweep_batch_on_scalar_only_scenario_errors(self, capsys):
        code = main(
            ["sweep", "--scenario", "general-le/classical", "--sizes", "8",
             "--trials", "1", "--jobs", "1", "--node-api", "batch",
             "--no-cache"]
        )
        assert code == 2
        assert "array-native" in capsys.readouterr().err

    def test_sweep_experiment_batch_arms_supporting_side_only(self, capsys):
        code = main(
            ["sweep", "--experiment", "E1", "--sizes", "16", "--trials", "1",
             "--jobs", "1", "--no-cache", "--node-api", "batch"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "classical side only" in captured.err


class TestKernelFlag:
    def test_parser_accepts_kernel(self):
        for command in (["elect"], ["agree"], ["sweep", "--experiment", "E1"]):
            args = build_parser().parse_args(command + ["--kernel", "numpy"])
            assert args.kernel == "numpy"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["elect", "--kernel", "fortran"])

    def test_explicit_numba_without_numba_is_exit_2(self, capsys, monkeypatch):
        from repro.network.kernels import numba_available

        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        if numba_available():
            pytest.skip("numba installed: explicit request succeeds")
        code = main(
            ["elect", "le-ring/lcr", "--topology", "cycle", "-n", "16",
             "--kernel", "numba"]
        )
        assert code == 2
        assert "numba is not installed" in capsys.readouterr().err

    def test_kernel_does_not_change_elect_output(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        argv = ["elect", "le-ring/lcr", "--topology", "cycle", "-n", "32",
                "--seed", "9"]
        assert main(argv + ["--kernel", "numpy"]) == 0
        numpy_out = capsys.readouterr().out
        assert main(argv + ["--kernel", "auto"]) == 0
        auto_out = capsys.readouterr().out
        strip = lambda s: s.replace("kernel numpy", "").replace(
            "kernel numba", ""
        ).replace("kernel auto", "")
        assert strip(numpy_out) == strip(auto_out)


class TestElectSingleProtocol:
    def test_single_protocol_run(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        code = main(
            ["elect", "le-ring/lcr", "--topology", "cycle", "-n", "24",
             "--seed", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "le-ring/lcr on cycle, n=24" in out
        assert "success=True" in out

    def test_single_protocol_default_topology(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        code = main(["elect", "le-diameter2/classical", "-n", "16", "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "le-diameter2/classical" in out

    def test_unknown_protocol_is_exit_2(self, capsys):
        assert main(["elect", "le-donut/lcr", "-n", "8"]) == 2
        assert "unknown protocol" in capsys.readouterr().err

    def test_paired_mode_rejects_unpaired_topology(self, capsys):
        assert main(["elect", "--topology", "cycle", "-n", "8"]) == 2
        err = capsys.readouterr().err
        assert "explicit protocol" in err


class TestProtocolsCommand:
    def test_table_lists_supports_column(self, capsys):
        assert main(["protocols"]) == 0
        out = capsys.readouterr().out
        assert "agreement/amp18-engine" in out
        assert "batch,faults" in out

    def test_json_dump_is_machine_readable(self, capsys):
        import json

        assert main(["protocols", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in payload}
        assert by_name["le-ring/lcr"]["supports"] == ["adaptive", "batch", "faults"]
        assert by_name["le-ring/hs"]["supports"] == ["adaptive", "batch", "faults"]
        assert by_name["mst/boruvka-engine"]["supports"] == ["adaptive", "batch", "faults"]
        assert by_name["le-ring/hs"]["batch"] is True
        assert by_name["le-general/classical"]["batch"] is False
        assert by_name["le-ring/hs"]["kernel"] in ("numpy", "numba")
        assert by_name["agreement/amp18-engine"]["defaults"] == {"fraction": 0.3}

    def test_scenarios_json_dump(self, capsys):
        import json

        assert main(["scenarios", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in payload}
        assert by_name["ring-le/lcr"]["resolved_node_api"] == "batch"
        assert by_name["ring-le/hs"]["resolved_node_api"] == "batch"
        assert by_name["ring-le/hs"]["kernel"] in ("numpy", "numba")
        assert by_name["ring-le-lossy/lcr"]["adversary"]["drop_rate"] == 0.02
        assert by_name["complete-le/quantum"]["sizes"] == [256, 1024, 4096]

    def test_scenarios_protocols_flag_still_works(self, capsys):
        assert main(["scenarios", "--protocols", "--json"]) == 0
        import json

        assert any(
            entry["name"] == "le-diameter2/quantum"
            for entry in json.loads(capsys.readouterr().out)
        )


class TestElectTopologies:
    def test_diameter2_uses_true_diameter2_graph(self, capsys):
        # regression: used to draw erdos_renyi(n, 0.5) with no diameter check
        code = main(["elect", "--topology", "diameter2", "--n", "24", "--seed", "2"])
        out = capsys.readouterr().out
        assert "leader election on diameter2" in out
        assert code in (0, 1)

    def test_hypercube_warns_on_rounding(self, capsys):
        code = main(["elect", "--topology", "hypercube", "--n", "20", "--seed", "1"])
        captured = capsys.readouterr()
        assert "power of two" in captured.err
        assert "n=32" in captured.out
        assert code in (0, 1)

    def test_hypercube_exact_power_no_warning(self, capsys):
        code = main(["elect", "--topology", "hypercube", "--n", "16", "--seed", "1"])
        captured = capsys.readouterr()
        assert "power of two" not in captured.err
        assert code in (0, 1)

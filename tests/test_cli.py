"""Tests for the ``python -m repro`` CLI and the report renderer."""

import pytest

from repro.__main__ import main
from repro.experiments.render_all import render_markdown
from repro.experiments.report import Report
from repro.sim import forget_worlds


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "nl-w2020" in out
        assert "root-2018" in out
        assert out.count("vantage=") == 9

    def test_dataset_runs_and_reports(self, capsys):
        assert main(["dataset", "nz-w2018", "--scale", "0.01", "--seed", "7"]) == 0
        captured = capsys.readouterr()
        out = captured.out
        assert "captured queries" in out
        assert "all 5 CPs" in out
        assert "Google" in out
        # Satellite: resolver-fleet totals surface in the CLI output.
        assert "fleet totals:" in out
        assert "auth queries" in out
        assert "tcp retries" in out
        assert "servfails" in out
        # Phase/counter summary lands on stderr.
        assert "phases" in captured.err
        assert "resolve" in captured.err

    def test_dataset_telemetry_out(self, capsys, tmp_path):
        import json

        path = tmp_path / "telemetry.json"
        # --workers 1 is the one value of the removed flag that still runs
        # (bench/workloads.py passes it and reads the gauge).
        assert main(
            ["dataset", "nz-w2018", "--scale", "0.01", "--workers", "1",
             "--telemetry-out", str(path)]
        ) == 0
        capsys.readouterr()
        data = json.loads(path.read_text())
        assert set(data) == {"counters", "gauges", "phases", "histograms"}
        assert data["gauges"]["runtime.workers"] == 1
        for phase in ("zone_build", "fleet_build", "workload", "resolve"):
            assert phase in data["phases"]
        provider_sum = sum(
            value for key, value in data["counters"].items()
            if key.startswith("sim.client_queries{")
        )
        assert provider_sum == sum(
            value for key, value in data["counters"].items()
            if key.startswith("resolver.client_queries{")
        )
        assert provider_sum > 0
        assert data["counters"]["capture.rows_appended"] > 0

    def test_simulating_commands_share_the_flag_surface(self, capsys):
        """``dataset`` and ``experiments`` expose the same
        observability/simulation flags with identical help text."""
        shared = [
            "--scale", "--seed", "--telemetry-out",
            "--workers", "--chaos", "--chaos-seed", "--spool-dir",
        ]
        helps = {}
        for command in ("dataset", "experiments"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            helps[command] = capsys.readouterr().out
        for flag in shared:
            for command, text in helps.items():
                assert flag in text, f"{command} missing {flag}"

        def entry(text, flag):
            """The whitespace-normalised help entry for one option."""
            lines = text.splitlines()
            start = next(
                i for i, line in enumerate(lines)
                if line.strip().startswith(flag + " ")
                or line.strip() == flag
            )
            block = [lines[start]]
            for line in lines[start + 1:]:
                if not line.strip() or line.lstrip().startswith("--"):
                    break
                block.append(line)
            return " ".join(" ".join(block).split())

        # Identical wording for flags whose semantics match exactly.
        for flag in ("--telemetry-out", "--workers", "--chaos", "--spool-dir"):
            entries = {entry(text, flag) for text in helps.values()}
            assert len(entries) == 1, f"help text drifted for {flag}: {entries}"

    def test_experiments_workers_plumbed(self, capsys, monkeypatch):
        """``--workers 1``, the one value of the removed flag that runs,
        reaches the matrix as the one-process config."""
        from repro.config import RunConfig
        from repro.experiments import render_all

        seen = {}

        def fake_run_and_render(ctx):
            seen["ctx"] = ctx
            return "# stub report"

        monkeypatch.setattr(render_all, "run_and_render", fake_run_and_render)
        assert main(["experiments", "--scale", "0.05", "--workers", "1"]) == 0
        capsys.readouterr()
        assert seen["ctx"].config == RunConfig()

    def test_experiments_seed_and_scale_plumbed(self, capsys, monkeypatch):
        from repro.experiments import render_all

        seen = {}

        def fake_run_and_render(ctx):
            seen["ctx"] = ctx
            return "# stub report"

        monkeypatch.setattr(render_all, "run_and_render", fake_run_and_render)
        assert main(["experiments", "--scale", "0.05", "--seed", "42"]) == 0
        capsys.readouterr()
        assert seen["ctx"].seed == 42
        assert seen["ctx"].scale == 0.05

    def test_experiments_closes_on_the_worlds_line(self, capsys, monkeypatch):
        import re

        from repro.experiments import render_all

        def two_cuts_of_one_world(ctx):
            ctx.run("nz-w2020")
            ctx.monthly("nz", 2020, 1)
            return "# stub report"

        monkeypatch.setattr(render_all, "run_and_render", two_cuts_of_one_world)
        forget_worlds()
        assert main(["experiments", "--scale", "0.002"]) == 0
        last = capsys.readouterr().err.rstrip("\n").split("\n")[-1]
        assert re.fullmatch(
            r"worlds: \d+ fleets built, \d+ borrowed; \d+ zones built", last
        ), last
        assert last == "worlds: 1 fleets built, 1 borrowed; 2 zones built"

    def test_dataset_writes_csv(self, capsys, tmp_path):
        path = tmp_path / "capture.csv"
        assert main(
            ["dataset", "nz-w2018", "--scale", "0.01", "--out", str(path)]
        ) == 0
        content = path.read_text()
        assert content.startswith("timestamp,")
        assert len(content.splitlines()) > 1

    def test_unknown_dataset_errors(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["dataset", "nl-w2099", "--scale", "0.01"])
        assert excinfo.value.code == 2

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_removed_vector_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["dataset", "nz-w2018", "--vector"])
        assert excinfo.value.code == 2
        assert "--vector" in capsys.readouterr().err

    def test_removed_stream_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["dataset", "nz-w2018", "--stream"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --stream" in capsys.readouterr().err

    def test_spool_dir_alone_spills(self, capsys, tmp_path):
        """``--spool-dir`` needs no other flag: the chunks land under
        ``DIR/<dataset_id>/`` and the run prints what a resident one does."""
        target = tmp_path / "spool"
        argv = ["dataset", "nz-w2018", "--scale", "0.01"]
        assert main(argv + ["--spool-dir", str(target)]) == 0
        spilled = capsys.readouterr().out
        assert list((target / "nz-w2018").glob("chunk*.chunk"))
        assert main(argv) == 0
        assert capsys.readouterr().out == spilled


class TestValidatesBeforeSimulating:
    """A flag value that cannot run is a usage error — exit 2, one line
    naming it — not a traceback (or, for a negative scale, an all-zero
    report and exit 0) after the world was built."""

    @pytest.mark.parametrize("argv, named", [
        (["dataset", "nz-w2018", "--workers", "0"], "workers must be >= 1"),
        (["dataset", "nz-w2018", "--out", "."], "--out .: is a directory"),
        (["dataset", "nz-w2018", "--scale", "-1"], "scale must be positive"),
        (["experiments", "--workers", "0"], "workers must be >= 1"),
        (["experiments", "--scale", "0"], "scale must be positive"),
        (["dataset", "nope"], "unknown dataset 'nope'"),
        (["experiments", "--scale", "0.005", "--write", "/nonexistent/d/x.md"],
         "--write /nonexistent/d/x.md: its directory does not exist"),
        (["dataset", "nz-w2018", "--scale", "0.01", "--out", "/nonexistent/x.csv"],
         "--out /nonexistent/x.csv: its directory does not exist"),
        (["dataset", "nz-w2018", "--scale", "0.01",
          "--telemetry-out", "/nonexistent/t.json"],
         "--telemetry-out /nonexistent/t.json: its directory does not exist"),
        (["dataset", "nz-w2018", "--scale", "0.01", "--spool-dir", "/proc/x"],
         "--spool-dir /proc/x:"),
        # --chaos-seed places the faults of a --chaos scenario: alone it
        # would be dropped without a word.
        (["dataset", "nz-w2018", "--scale", "0.01", "--chaos-seed", "3"],
         "--chaos-seed 3 needs --chaos SCENARIO"),
        (["experiments", "--scale", "0.005", "--chaos-seed", "3"],
         "--chaos-seed 3 needs --chaos SCENARIO"),
        # An unknown scenario is caught before any world is built.
        (["dataset", "nl-w2020", "--chaos", "nope"],
         "unknown chaos scenario 'nope' (see 'repro chaos')"),
        (["experiments", "--chaos", "nope"],
         "unknown chaos scenario 'nope' (see 'repro chaos')"),
        # A scale with no finite volume, or one past int64.
        (["dataset", "nl-w2020", "--scale", "inf"],
         "scale must be positive and finite, got inf"),
        (["experiments", "--scale", "inf"],
         "scale must be positive and finite, got inf"),
        (["dataset", "nl-w2020", "--scale", "1e300"],
         "1.85e+305 client queries do not fit int64"),
        # Shard parallelism was removed: of the positive counts only
        # --workers 1 runs.
        (["dataset", "nz-w2018", "--workers", "2"],
         "--workers 2: shard parallelism was removed"),
        (["experiments", "--workers", "2"],
         "--workers 2: shard parallelism was removed"),
    ])
    def test_bad_flag_is_a_usage_error(self, capsys, argv, named):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"repro: error: {named}" in err and err.count("repro: error:") == 1
        assert "simulating" not in err and "Traceback" not in err


class TestChaosCLI:
    def test_chaos_command_lists_scenarios(self, capsys):
        assert main(["chaos"]) == 0
        out = capsys.readouterr().out
        for name in ("default-loss", "heavy-loss", "partial-outage",
                     "total-outage", "v6-blackout", "latency-storm",
                     "rrl-pressure", "flaky-server"):
            assert name in out

    def test_dataset_chaos_flag(self, capsys, tmp_path):
        import json

        path = tmp_path / "telemetry.json"
        assert main(
            ["dataset", "nz-w2018", "--scale", "0.01",
             "--chaos", "default-loss", "--telemetry-out", str(path)]
        ) == 0
        captured = capsys.readouterr()
        assert "chaos scenario 'default-loss' active" in captured.err
        assert "fault drops" in captured.out
        data = json.loads(path.read_text())
        assert data["counters"]["faults.checks"] > 0

    def test_chaos_seed_flag_accepted(self, capsys):
        assert main(
            ["dataset", "nz-w2018", "--scale", "0.01",
             "--chaos", "default-loss", "--chaos-seed", "5"]
        ) == 0
        capsys.readouterr()

    def test_unknown_chaos_scenario_errors(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["dataset", "nz-w2018", "--scale", "0.01", "--chaos", "nope"])
        assert excinfo.value.code == 2
        assert "unknown chaos scenario 'nope'" in capsys.readouterr().err

    def test_experiments_chaos_plumbed(self, capsys, monkeypatch):
        from repro.experiments import render_all

        seen = {}

        def fake_run_and_render(ctx):
            seen["ctx"] = ctx
            return "# stub report"

        monkeypatch.setattr(render_all, "run_and_render", fake_run_and_render)
        assert main(
            ["experiments", "--scale", "0.05", "--chaos", "heavy-loss"]
        ) == 0
        capsys.readouterr()
        assert seen["ctx"].fault_plan is not None
        assert seen["ctx"].fault_plan.name == "heavy-loss"


class TestPartialExit:
    """No run is partial: a dataset runs in one process, so a failure
    raises out of it instead of leaving a capture with holes."""

    def test_clean_run_exits_zero(self, capsys):
        assert main(["dataset", "nz-w2018", "--scale", "0.01"]) == 0
        err = capsys.readouterr().err
        assert "capture is incomplete" not in err
        assert not [line for line in err.splitlines() if line.startswith("ERROR")]


#: Commands that were removed: naming one is argparse's invalid choice.
REMOVED_COMMANDS = ("serve", "loadgen", "soak", "trace")


class TestSoakCLI:
    """The soak is gone, and so are the ``trace``, ``serve`` and
    ``loadgen`` commands with every flag of theirs, and ``--metrics-out``:
    each is a usage error (exit 2, one error line, no traceback), not a
    silently ignored setting."""

    @pytest.mark.parametrize("argv", [
        ["serve", "--shed-policy", "drop"],
        ["serve", "--deadline-ms", "800"],
        ["serve", "--no-breakers"],
        ["serve", "--admission-qps", "10"],
        ["soak"],
        ["trace"],
        ["loadgen", "--concurrency", "8"],
        ["loadgen", "--timeout", "0.2"],
        ["loadgen", "--streams", "4"],
        ["loadgen", "--junk-fraction", "0.1"],
        ["loadgen", "--rate", "100"],
        ["serve"],
        ["loadgen"],
        ["dataset", "nl-w2020", "--metrics-out", "m.prom"],
    ], ids=lambda argv: "".join(argv[:2]))
    def test_removed_flag_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        named = (
            f"invalid choice: {argv[0]!r}" if argv[0] in REMOVED_COMMANDS
            else f"unrecognized arguments: {' '.join(argv[2:])}"
        )
        err = capsys.readouterr().err
        assert named in err
        assert err.count("repro: error:") == 1 and "Traceback" not in err


class TestRenderMarkdown:
    def test_render_contains_reports_and_meta(self):
        report = Report("figure1a", "Test report")
        report.add("metric", 1.0, 0.99)
        text = render_markdown([report], scale=0.5, elapsed=12.0)
        assert "# EXPERIMENTS" in text
        assert "simulation scale: 0.5" in text
        assert "figure1a" in text
        assert "0.99" in text
        assert text.count("```") == 2

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
        assert main(
            ["dataset", "nz-w2018", "--scale", "0.01",
             "--telemetry-out", str(path)]
        ) == 0
        capsys.readouterr()
        data = json.loads(path.read_text())
        assert set(data) == {"counters", "gauges", "phases", "histograms"}
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

    def test_dataset_workers_flag_shards_the_run(self, capsys, tmp_path):
        import json

        path = tmp_path / "telemetry.json"
        assert main(
            ["dataset", "nz-w2018", "--scale", "0.01", "--workers", "2",
             "--telemetry-out", str(path)]
        ) == 0
        captured = capsys.readouterr()
        assert "runtime: process-pool: 2 shards on 2 workers" in captured.err
        data = json.loads(path.read_text())
        assert data["counters"]["runtime.shards_total"] == 2
        assert "runtime.shard.0" in data["phases"]
        assert "runtime.shard.1" in data["phases"]
        assert data["gauges"]["runtime.workers"] == 2.0

    def test_dataset_workers_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert main(["dataset", "nz-w2018", "--scale", "0.01"]) == 0
        captured = capsys.readouterr()
        assert "runtime: process-pool: 2 shards on 2 workers" in captured.err

    def test_experiments_workers_plumbed(self, capsys, monkeypatch):
        from repro.experiments import render_all

        seen = {}

        def fake_run_and_render(scale=None, dataset_filter=None,
                                seed=20201027, ctx=None):
            seen["ctx"] = ctx
            return "# stub report"

        monkeypatch.setattr(render_all, "run_and_render", fake_run_and_render)
        assert main(["experiments", "--scale", "0.05", "--workers", "3"]) == 0
        capsys.readouterr()
        assert seen["ctx"].config.workers == 3

    def test_dataset_scale_honors_repro_scale_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.01")
        assert main(["dataset", "nz-w2018"]) == 0
        captured = capsys.readouterr()
        assert "simulating nz-w2018 (750 client queries)" in captured.err

    def test_experiments_seed_and_scale_plumbed(self, capsys, monkeypatch):
        from repro.experiments import render_all

        seen = {}

        def fake_run_and_render(scale=None, dataset_filter=None,
                                seed=20201027, ctx=None):
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

        def two_cuts_of_one_world(scale=None, dataset_filter=None,
                                  seed=20201027, ctx=None):
            ctx.run("nz-w2020")
            ctx.monthly("nz", 2020, 1)
            return "# stub report"

        monkeypatch.delenv("REPRO_ENV_CACHE", raising=False)
        monkeypatch.setattr(render_all, "run_and_render", two_cuts_of_one_world)
        forget_worlds()
        # --workers 1: a pooled run books one more borrow per shard.
        assert main(["experiments", "--scale", "0.002", "--workers", "1"]) == 0
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
        assert list((target / "nz-w2018").glob("shard*.chunk"))
        assert main(argv) == 0
        assert capsys.readouterr().out == spilled


class TestValidatesBeforeSimulating:
    """A flag or ``REPRO_*`` value that cannot run is a usage error — exit
    2, one line naming it — not a traceback (or, for a negative scale, an
    all-zero report and exit 0) after the world was built."""

    @pytest.mark.parametrize("argv, named", [
        (["dataset", "nz-w2018", "--workers", "0"], "workers must be >= 1"),
        (["dataset", "nz-w2018", "--trace-sample", "2"], "trace sample must be in [0, 1]"),
        (["dataset", "nz-w2018", "--scale", "-1"], "scale must be positive"),
        (["experiments", "--workers", "0"], "workers must be >= 1"),
        (["experiments", "--scale", "0"], "scale must be positive"),
        (["dataset", "nope"], "unknown dataset 'nope'"),
        (["serve", "nope"], "unknown dataset 'nope'"),
        (["loadgen", "nope"], "unknown dataset 'nope'"),
        (["soak", "nope"], "unknown dataset 'nope'"),
        (["experiments", "--scale", "0.005", "--write", "/nonexistent/d/x.md"],
         "--write /nonexistent/d/x.md: its directory does not exist"),
        (["dataset", "nz-w2018", "--scale", "0.01", "--out", "/nonexistent/x.csv"],
         "--out /nonexistent/x.csv: its directory does not exist"),
        (["dataset", "nz-w2018", "--scale", "0.01",
          "--telemetry-out", "/nonexistent/t.json"],
         "--telemetry-out /nonexistent/t.json: its directory does not exist"),
        (["dataset", "nz-w2018", "--scale", "0.01",
          "--metrics-out", "/nonexistent/m.prom"],
         "--metrics-out /nonexistent/m.prom: its directory does not exist"),
        (["dataset", "nz-w2018", "--scale", "0.01", "--spool-dir", "/proc/x"],
         "--spool-dir /proc/x:"),
        (["loadgen", "--tcp-fraction", "-0.2", "--queries", "1000"],
         "tcp_fraction must be in [0, 1], got -0.2"),
        (["loadgen", "--queries", "0"], "queries must be >= 1, got 0"),
        (["soak", "--duration", "0"], "duration_s must be positive"),
    ])
    def test_bad_flag_is_a_usage_error(self, capsys, argv, named):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"repro: error: {named}" in err
        assert "simulating" not in err and "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ["dataset", "nz-w2018"], ["experiments"],
    ])
    def test_bad_environment_is_a_usage_error(self, capsys, monkeypatch, command):
        monkeypatch.setenv("REPRO_WORKERS", "abc")
        with pytest.raises(SystemExit) as excinfo:
            main(command)
        assert excinfo.value.code == 2
        assert "REPRO_WORKERS='abc': expected an integer >= 1" in capsys.readouterr().err

    def test_serve_takes_its_chaos_default_from_the_same_resolver(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "nope")
        with pytest.raises(KeyError, match="default-loss"):
            main(["serve", "nl-w2020", "--udp-port", "0", "--duration", "0.1"])


class TestChaosCLI:
    def test_chaos_command_lists_scenarios(self, capsys):
        assert main(["chaos"]) == 0
        out = capsys.readouterr().out
        for name in ("default-loss", "heavy-loss", "partial-outage",
                     "total-outage", "v6-blackout", "latency-storm",
                     "rrl-pressure", "flaky-server"):
            assert name in out

    def test_dataset_chaos_flag(self, capsys, tmp_path, monkeypatch):
        import json

        monkeypatch.delenv("REPRO_CHAOS", raising=False)
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

    def test_chaos_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "default-loss")
        assert main(["dataset", "nz-w2018", "--scale", "0.01"]) == 0
        captured = capsys.readouterr()
        assert "chaos scenario 'default-loss' active" in captured.err

    def test_chaos_seed_flag_accepted(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert main(
            ["dataset", "nz-w2018", "--scale", "0.01",
             "--chaos", "default-loss", "--chaos-seed", "5"]
        ) == 0
        capsys.readouterr()

    def test_unknown_chaos_scenario_errors(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        with pytest.raises(KeyError, match="default-loss"):
            main(["dataset", "nz-w2018", "--scale", "0.01", "--chaos", "nope"])

    def test_experiments_chaos_plumbed(self, capsys, monkeypatch):
        from repro.experiments import render_all

        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        seen = {}

        def fake_run_and_render(scale=None, dataset_filter=None,
                                seed=20201027, ctx=None):
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
    @staticmethod
    def _break_runtime_report(monkeypatch):
        """Wrap run_dataset so the returned report claims a failed shard."""
        import repro.sim as sim_module
        from repro.runtime import ShardOutcome

        real = sim_module.run_dataset

        def failing(descriptor, **kwargs):
            run = real(descriptor, **kwargs)
            run.runtime_report.failures = 1
            run.runtime_report.outcomes.append(
                ShardOutcome(index=7, start=0, stop=None, error="boom")
            )
            return run

        monkeypatch.setattr(sim_module, "run_dataset", failing)

    def test_failed_shards_exit_nonzero(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        self._break_runtime_report(monkeypatch)
        assert main(["dataset", "nz-w2018", "--scale", "0.01"]) == 3
        err = capsys.readouterr().err
        assert "capture is incomplete" in err
        assert "#7 (boom)" in err

    def test_allow_partial_exits_zero(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        self._break_runtime_report(monkeypatch)
        assert main(
            ["dataset", "nz-w2018", "--scale", "0.01", "--allow-partial"]
        ) == 0
        err = capsys.readouterr().err
        assert "continuing anyway (--allow-partial)" in err

    def test_clean_run_exits_zero(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert main(["dataset", "nz-w2018", "--scale", "0.01"]) == 0
        err = capsys.readouterr().err
        assert "capture is incomplete" not in err


class TestServeCLI:
    def test_serve_and_loadgen_round_trip(self, capsys, tmp_path, monkeypatch):
        """The full CLI path: serve on ephemeral ports, loadgen against it,
        SIGTERM → graceful shutdown writing the final snapshot artefacts.

        ``serve`` installs its signal handlers on the main thread's event
        loop, so it runs here in the main thread while a worker thread
        waits for the port file, fires the loadgen, and raises SIGTERM.
        """
        import json
        import os
        import signal
        import threading
        import time

        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        port_file = tmp_path / "ports.json"
        metrics_out = tmp_path / "metrics.prom"
        report_path = tmp_path / "loadgen.json"
        loadgen_rc = {}

        def client():
            deadline = time.time() + 30.0
            while not port_file.exists() and time.time() < deadline:
                time.sleep(0.05)
            try:
                ports = json.loads(port_file.read_text())
                loadgen_rc["rc"] = main(
                    ["loadgen", "nl-w2020",
                     "--port", str(ports["udp"]),
                     "--queries", "40",
                     "--min-answered", "0.99",
                     "--json", str(report_path)]
                )
            finally:
                os.kill(os.getpid(), signal.SIGTERM)

        thread = threading.Thread(target=client)
        thread.start()
        try:
            rc = main(
                ["serve", "nl-w2020", "--udp-port", "0",
                 "--duration", "60",  # backstop; SIGTERM ends it sooner
                 "--port-file", str(port_file),
                 "--metrics-out", str(metrics_out)]
            )
        finally:
            thread.join(timeout=30.0)
        capsys.readouterr()
        assert rc == 0
        assert loadgen_rc.get("rc") == 0
        report = json.loads(report_path.read_text())
        assert report["sent"] == 40
        assert report["answered_fraction"] >= 0.99
        text = metrics_out.read_text()
        assert "repro_service_shutdowns_total 1" in text
        assert "repro_service_queries_total" in text

    def test_loadgen_gate_fails_without_server(self, capsys, tmp_path):
        # Nothing listens on this port: every query times out and the
        # --min-answered gate must exit non-zero.
        rc = main(
            ["loadgen", "nl-w2020", "--port", "1",
             "--queries", "3", "--min-answered", "0.99"]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "below" in captured.err


class TestSoakCLI:
    """The soak's plumbing against a stubbed run; the one real soak is
    ``test_resilience::TestSoakEndToEnd`` (and the CI ``soak-smoke`` lane
    runs this command end to end)."""

    @staticmethod
    def _run(monkeypatch, argv, failures=()):
        """``repro soak argv`` on a stub: the config it ran, its exit code."""
        import repro.service
        from repro.service import SoakReport

        seen = []

        def run_soak_sync(config):
            seen.append(config)
            return SoakReport(admitted=7, failures=list(failures))

        monkeypatch.setattr(repro.service, "run_soak_sync", run_soak_sync)
        rc = main(["soak", *argv])
        (config,) = seen
        return config, rc

    def test_soak_passes_and_writes_json(self, capsys, tmp_path, monkeypatch):
        import json

        report_path = tmp_path / "soak.json"
        config, rc = self._run(monkeypatch, [
            "nz-w2020", "--duration", "5", "--seed", "9", "--offered-qps", "120",
            "--admission-qps", "60", "--json", str(report_path),
        ])
        assert rc == 0
        assert "soak PASS" in capsys.readouterr().out
        assert (config.dataset_id, config.seed, config.duration_s) == ("nz-w2020", 9, 5.0)
        assert (config.offered_qps, config.admission_qps) == (120.0, 60.0)
        report = json.loads(report_path.read_text())
        assert report["admitted"] == 7 and report["passed"] is True

    def test_soak_failure_exits_one(self, capsys, monkeypatch):
        _, rc = self._run(monkeypatch, [], failures=("breaker_cycle",))
        assert rc == 1
        captured = capsys.readouterr()
        assert "soak FAIL" in captured.out
        assert "soak SLOs failed: breaker_cycle" in captured.err

    @pytest.mark.parametrize("argv", [
        ["serve", "--shed-policy", "drop"],
        ["serve", "--deadline-ms", "800"],
        ["serve", "--no-breakers"],
        ["soak", "--shed-policy", "drop"],
        ["soak", "--deadline-ms", "800"],
        ["soak", "--blackout-start", "0.1"],
        ["soak", "--blackout-end", "0.9"],
        ["soak", "--slo-answered", "0.5"],
        ["loadgen", "--concurrency", "8"],
        ["loadgen", "--timeout", "0.2"],
        ["loadgen", "--streams", "4"],
        ["loadgen", "--junk-fraction", "0.1"],
        ["loadgen", "--rate", "100"],
    ], ids=lambda argv: f"{argv[0]}{argv[1]}")
    def test_removed_flag_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


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

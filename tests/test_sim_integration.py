"""Integration tests: the full dataset driver and experiment runners at
small scale.  These exercise every layer together; the benchmark suite
repeats the same pipeline at full volume with the paper's shape assertions.
"""

import numpy as np
import pytest

from repro.analysis import Attributor
from repro.capture import Transport
from repro.clouds import PROVIDERS
from repro.dnscore import RCode, RRType
from repro.experiments import ExperimentContext, table2
from repro.sim import run_dataset
from repro.workload import dataset, monthly_google_descriptor


@pytest.fixture(scope="module")
def nl_run():
    return run_dataset(dataset("nl-w2020"), client_queries=6000, seed=5)


@pytest.fixture(scope="module")
def nl_attribution(nl_run):
    return Attributor(nl_run.registry, PROVIDERS).attribute(nl_run.capture.view())


class TestDriver:
    def test_captures_only_captured_servers(self, nl_run):
        view = nl_run.capture.view()
        assert set(np.unique(view.server_id)) <= set(nl_run.vantage_server_ids)

    def test_timestamps_inside_window(self, nl_run):
        view = nl_run.capture.view()
        descriptor = nl_run.descriptor
        assert view.timestamp.min() >= descriptor.start
        # Resolution chains extend a few seconds past the window at most.
        assert view.timestamp.max() <= descriptor.start + descriptor.duration + 60.0

    def test_all_providers_present(self, nl_run, nl_attribution):
        labels = set(np.unique(nl_attribution.providers.astype(str)))
        assert set(PROVIDERS) <= labels
        assert "Other" in labels

    def test_no_unknown_sources(self, nl_attribution):
        # Every simulated source address is covered by a registered prefix.
        assert "Unknown" not in set(np.unique(nl_attribution.providers.astype(str)))

    def test_rcodes_mix(self, nl_run):
        view = nl_run.capture.view()
        rcodes = set(np.unique(view.rcode))
        assert int(RCode.NOERROR) in rcodes
        assert int(RCode.NXDOMAIN) in rcodes

    def test_both_transports_and_families(self, nl_run):
        view = nl_run.capture.view()
        assert int(Transport.TCP) in set(np.unique(view.transport))
        assert {4, 6} <= set(np.unique(view.family))

    def test_deterministic_given_seed(self):
        a = run_dataset(dataset("nz-w2018"), client_queries=800, seed=9)
        b = run_dataset(dataset("nz-w2018"), client_queries=800, seed=9)
        va, vb = a.capture.view(), b.capture.view()
        assert len(va) == len(vb)
        assert (va.qtype == vb.qtype).all()
        assert (va.src_lo == vb.src_lo).all()

    def test_root_dataset_captures_root(self):
        run = run_dataset(dataset("root-2020"), client_queries=2500, seed=6)
        view = run.capture.view()
        assert set(np.unique(view.server_id)) == {"b-root"}
        # Root sees majority junk (Chromium probes et al.).
        junk = float((view.rcode != 0).mean())
        assert junk > 0.4

    def test_monthly_google_only(self):
        run = run_dataset(
            monthly_google_descriptor("nl", 2020, 1), client_queries=1500, seed=7
        )
        attribution = Attributor(run.registry, PROVIDERS).attribute(run.capture.view())
        labels = set(np.unique(attribution.providers.astype(str)))
        assert labels == {"Google"}

    def test_cyclic_event_floods_tld(self):
        quiet = run_dataset(
            monthly_google_descriptor("nz", 2020, 1), client_queries=1200, seed=8
        )
        stormy = run_dataset(
            monthly_google_descriptor("nz", 2020, 2), client_queries=1200, seed=8
        )
        quiet_view, stormy_view = quiet.capture.view(), stormy.capture.view()
        # The cyclic chase inflates captured queries and the A/AAAA share.
        def a_share(view):
            qtypes = view.qtype
            return float(
                ((qtypes == int(RRType.A)) | (qtypes == int(RRType.AAAA))).mean()
            )
        assert len(stormy_view) > len(quiet_view)
        assert a_share(stormy_view) > a_share(quiet_view)

    def test_facebook_ptr_table_built(self, nl_run):
        named = [
            m for m in nl_run.fleet if nl_run.ptr_table.lookup(m.resolver.v4) is not None
        ]
        assert len(named) > 50


class TestExperimentContext:
    def test_runs_cached(self):
        """A dataset is simulated once: asked again, the context hands back
        the same facade and simulates nothing."""
        ctx = ExperimentContext(scale=0.02)
        first = ctx.analytics("nz-w2020")
        simulated = ctx.telemetry.snapshot().total("sim.client_queries")
        assert simulated > 0
        assert ctx.analytics("nz-w2020") is first
        assert ctx.telemetry.snapshot().total("sim.client_queries") == simulated

    def test_a_session_holds_no_finished_run(self, monkeypatch):
        """The context keeps what its reports read, the folded state: once
        a dataset is folded, its run — capture, servers and their plan
        caches — is garbage."""
        import gc
        import weakref

        from repro.experiments import context

        dropped = []

        def watched_run_dataset(*args, **kwargs):
            run = run_dataset(*args, **kwargs)
            server = run.server_sets[run.descriptor.vantage].servers[0]
            dropped.extend([weakref.ref(run), weakref.ref(server)])
            return run

        monkeypatch.setattr(context, "run_dataset", watched_run_dataset)
        ctx = ExperimentContext(scale=0.02)
        analytics = ctx.analytics("nz-w2020")
        gc.collect()
        assert len(dropped) == 2
        assert [ref() is None for ref in dropped] == [True, True]
        assert analytics.dataset_summary().queries_total > 0

    def test_bad_scale_rejected(self):
        for scale in (-1, 0):
            with pytest.raises(ValueError, match="scale must be positive"):
                ExperimentContext(scale=scale)

    def test_table2_needs_no_simulation(self):
        ctx = ExperimentContext(scale=0.02)
        report = table2.run(ctx)
        assert report.measured("nl-w2020 NSSet") == "3A"

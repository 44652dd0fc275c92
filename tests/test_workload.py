"""Unit tests for dataset descriptors and workload generation."""

import numpy as np
import pytest

from repro.dnscore import Name, RRType
from repro.workload import (
    CLIENT_QTYPE_MIX,
    DiurnalPattern,
    PAPER_DATASETS,
    SUBNAME_CHOICES,
    WorkloadGenerator,
    dataset,
    datasets_for_vantage,
    monthly_google_descriptor,
)
from repro.zones import ZoneSpec, build_registry_zone, domains_of


@pytest.fixture(scope="module")
def nl_domains():
    return domains_of(build_registry_zone(ZoneSpec("nl", 50, seed=1)))


class TestDescriptors:
    def test_nine_paper_datasets(self):
        assert len(PAPER_DATASETS) == 9
        assert {d.vantage for d in PAPER_DATASETS.values()} == {"nl", "nz", "root"}

    def test_datasets_for_vantage_sorted(self):
        years = [d.year for d in datasets_for_vantage("nl")]
        assert years == [2018, 2019, 2020]

    def test_nl_server_evolution(self):
        # 4 servers in 2018/2019, 3 in 2020; always 2 captured.
        assert len(dataset("nl-w2018").servers) == 4
        assert len(dataset("nl-w2020").servers) == 3
        for dataset_id in ("nl-w2018", "nl-w2020"):
            captured = [s for s in dataset(dataset_id).servers if s.captured]
            assert len(captured) == 2

    def test_nz_servers(self):
        servers = dataset("nz-w2020").servers
        assert len(servers) == 7
        assert sum(1 for s in servers if not s.anycast) == 1
        assert sum(1 for s in servers if s.captured) == 6

    def test_root_anycast_growth(self):
        assert len(dataset("root-2018").servers[0].site_codes) < len(
            dataset("root-2020").servers[0].site_codes
        )

    def test_query_volume_growth(self):
        for vantage in ("nl", "nz", "root"):
            volumes = [d.client_queries for d in datasets_for_vantage(vantage)]
            assert volumes == sorted(volumes)
            assert volumes[-1] > volumes[0]

    def test_monthly_descriptor_qmin_toggle(self):
        before = monthly_google_descriptor("nl", 2019, 11)
        after = monthly_google_descriptor("nl", 2019, 12)
        assert before.qmin_override is False
        assert after.qmin_override is True
        assert before.providers_only == ("Google",)

    def test_monthly_descriptor_cyclic_event_only_feb_nz(self):
        assert monthly_google_descriptor("nz", 2020, 2).cyclic_event
        assert not monthly_google_descriptor("nz", 2020, 1).cyclic_event
        assert not monthly_google_descriptor("nl", 2020, 2).cyclic_event

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            dataset("nl-w2021")


class TestDiurnalPattern:
    def test_timestamps_sorted_and_in_window(self):
        pattern = DiurnalPattern(1000.0, 7 * 86400.0)
        rng = np.random.default_rng(1)
        stamps = pattern.sample(rng, 500)
        assert (np.diff(stamps) >= 0).all()
        assert stamps.min() >= 1000.0
        assert stamps.max() <= 1000.0 + 7 * 86400.0

    def test_peak_hours_busier(self):
        pattern = DiurnalPattern(0.0, 86400.0, peak_ratio=3.0)
        rng = np.random.default_rng(2)
        stamps = pattern.sample(rng, 20_000)
        hours = (stamps % 86400.0 // 3600).astype(int)
        counts = np.bincount(hours, minlength=24)
        assert counts.max() > 1.5 * counts.min()

    def test_bad_duration_rejected(self):
        with pytest.raises(ValueError):
            DiurnalPattern(0.0, 0.0)


class TestWorkloadGenerator:
    def test_cctld_queries_target_zone(self, nl_domains):
        generator = WorkloadGenerator("nl", nl_domains, seed=1)
        pattern = DiurnalPattern(0.0, 86400.0)
        queries = list(generator.generate(0, 200, pattern, junk_fraction=0.0))
        assert len(queries) == 200
        nl = Name.from_text("nl")
        assert all(q.qname.is_subdomain_of(nl) for q in queries)

    def test_junk_fraction_respected(self, nl_domains):
        generator = WorkloadGenerator("nl", nl_domains, seed=2)
        pattern = DiurnalPattern(0.0, 86400.0)
        registered = set(nl_domains)
        junk = 0
        for query in generator.generate(0, 1000, pattern, junk_fraction=0.5):
            cut = query.qname.ancestor_with_labels(2)
            if cut not in registered:
                junk += 1
        assert 350 < junk < 650

    def test_qtype_mix_within_tolerance(self, nl_domains):
        generator = WorkloadGenerator("nl", nl_domains, seed=3)
        pattern = DiurnalPattern(0.0, 86400.0)
        queries = list(generator.generate(0, 5000, pattern, junk_fraction=0.0))
        a_fraction = sum(1 for q in queries if q.qtype is RRType.A) / len(queries)
        expected = dict((t, p) for t, p in CLIENT_QTYPE_MIX)[RRType.A]
        assert abs(a_fraction - expected) < 0.05

    def test_root_junk_is_single_label(self):
        generator = WorkloadGenerator("root", [], tld_names=["com", "net"], seed=4)
        pattern = DiurnalPattern(0.0, 86400.0)
        for query in generator.generate(0, 50, pattern, junk_fraction=1.0):
            assert query.qname.label_count == 1

    def test_root_legit_targets_known_tlds(self):
        generator = WorkloadGenerator("root", [], tld_names=["com", "net"], seed=5)
        pattern = DiurnalPattern(0.0, 86400.0)
        for query in generator.generate(0, 50, pattern, junk_fraction=0.0):
            assert query.qname.labels[-1] in (b"com", b"net")

    def test_storm_routing(self, nl_domains):
        generator = WorkloadGenerator("nl", nl_domains, seed=6)
        pattern = DiurnalPattern(0.0, 86400.0)
        storm = nl_domains[:2]
        hits = sum(
            1
            for q in generator.generate(
                0, 500, pattern, junk_fraction=0.0,
                storm_domains=storm, storm_fraction=0.5,
            )
            if q.qname in storm
        )
        assert hits > 150

    def test_deterministic_given_seed(self, nl_domains):
        pattern = DiurnalPattern(0.0, 86400.0)
        a = list(WorkloadGenerator("nl", nl_domains, seed=7).generate(3, 50, pattern, 0.2))
        b = list(WorkloadGenerator("nl", nl_domains, seed=7).generate(3, 50, pattern, 0.2))
        assert [(q.timestamp, q.qname, q.qtype) for q in a] == [
            (q.timestamp, q.qname, q.qtype) for q in b
        ]

    def test_legit_name_draws_what_rng_choice_draws(self, nl_domains):
        """A legitimate name reads two doubles, one searched in the Zipf
        CDF and one in the subname CDF.  ``np.searchsorted`` and
        ``rng.choice(n, p=p)`` read the same doubles and return the same
        indices, so the stream and the generator's state are theirs."""
        generator = WorkloadGenerator("nl", nl_domains, seed=1)
        subnames = [s for s, __ in SUBNAME_CHOICES]
        p = np.array([p for __, p in SUBNAME_CHOICES])
        p /= p.sum()
        zipf_cdf = generator._domain_sampler._cdf
        seen = set()
        for seed in range(200):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(25):
                rank = int(np.searchsorted(zipf_cdf, theirs.random(), side="right"))
                sub = subnames[int(theirs.choice(len(subnames), p=p))]
                domain = nl_domains[rank]
                expected = domain.prepend(sub.encode()) if sub else domain
                assert generator._cctld_legit_name(ours).labels == expected.labels
                seen.add(sub)
            assert ours.bit_generator.state == theirs.bit_generator.state
        assert seen == set(subnames)

    def test_hours_draw_what_rng_choice_draws(self):
        """``DiurnalPattern.sample`` searches a CDF built once; the
        reference is ``rng.choice(24, p=p)``: the same stamps, and the
        generator's state after them."""
        pattern = DiurnalPattern(1000.0, 7 * 86400.0)
        hours = np.arange(24)
        weights = 1.0 + 0.5 * (1.0 + np.sin((hours - 9.0) / 24.0 * 2.0 * np.pi))
        p = weights / weights.sum()
        for seed in range(200):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            count = 1 + seed % 37
            got = pattern.sample(ours, count)
            days = theirs.integers(0, 7, size=count)
            drawn = theirs.choice(24, size=count, p=p)
            expected = 1000.0 + days * 86400.0 + drawn * 3600.0 + theirs.random(count) * 3600.0
            expected.sort()
            assert np.array_equal(got, expected)
            assert ours.bit_generator.state == theirs.bit_generator.state

    def test_qtypes_draw_what_rng_choice_draws(self, nl_domains):
        """``generate``'s qtype column against the draws it replaced —
        ``rng.choice(n, p=p)`` over the mix — and the member stream's state
        after its last name against a replay of every draw."""
        generator = WorkloadGenerator("nl", nl_domains, seed=3)
        pattern = DiurnalPattern(0.0, 7 * 86400.0)
        qtypes = [t for t, __ in CLIENT_QTYPE_MIX]
        p = np.array([p for __, p in CLIENT_QTYPE_MIX])
        p /= p.sum()
        legit_name = generator._cctld_legit_name
        streams = []
        generator._cctld_legit_name = lambda rng: streams.append(rng) or legit_name(rng)
        for index in range(200):
            count = 1 + index % 23
            got = [q.qtype for q in generator.generate(index, count, pattern, 0.0)]
            theirs = np.random.default_rng(3 * 1_000_003 + index)
            pattern.sample(theirs, count)
            theirs.random(count)
            theirs.random(count)
            drawn = theirs.choice(len(qtypes), size=count, p=p)
            assert got == [qtypes[i] for i in drawn]
            for _ in range(count):
                legit_name(theirs)
            assert streams[-1].bit_generator.state == theirs.bit_generator.state

    def test_pcg64_is_what_default_rng_builds(self):
        for seed in [*range(200), 20201027 * 1_000_003 + 2241]:
            built = np.random.Generator(np.random.PCG64(seed))
            assert built.bit_generator.state == np.random.default_rng(seed).bit_generator.state

    def test_requires_domains_for_cctld(self):
        with pytest.raises(ValueError):
            WorkloadGenerator("nl", [])

    def test_requires_tlds_for_root(self):
        with pytest.raises(ValueError):
            WorkloadGenerator("root", [], tld_names=[])

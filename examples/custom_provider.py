#!/usr/bin/env python3
"""Define a brand-new cloud provider and measure it with the same pipeline.

The library's measurement side is provider-agnostic: anything with
registered ASes and announced prefixes can be attributed and audited.
This example invents "ExampleCloud" — a Q-min-from-day-one, v6-preferring,
validating provider — runs it alongside a background population against a
small `.nl`-like TLD, and prints its behavioural fingerprint.

It demonstrates the lower-level public API (zones, servers, resolvers,
capture, analysis) without the prebuilt paper fleets.
"""

import numpy as np

from repro.analysis import Attributor, DatasetAnalytics
from repro.capture import CaptureStore
from repro.netsim import ASInfo, ASRegistry, GAZETTEER, LatencyModel, Prefix
from repro.resolver import AuthorityNetwork, ResolverBehavior, SimResolver
from repro.server import AuthoritativeServer, ServerSet
from repro.workload import DiurnalPattern, WorkloadGenerator
from repro.zones import ZoneSpec, build_registry_zone, build_root_zone, domains_of


def build_example_cloud(registry: ASRegistry):
    """Register ExampleCloud's AS and build its resolver pool."""
    registry.register(ASInfo(64512, "EXAMPLECLOUD", "ExampleCloud", "NL"))
    v4 = Prefix.parse("198.18.0.0/16")
    v6 = Prefix.parse("2001:db8:ec::/48")
    registry.announce(64512, v4)
    registry.announce(64512, v6)

    behavior = ResolverBehavior(
        qname_minimization=True,       # privacy-first from day one
        validates_dnssec=True,
        set_do=True,
        explicit_ds_probability=0.3,
        edns_bufsize=1232,             # flag-day recommended size
        family_policy="fixed",
        fixed_v6_ratio=0.8,            # v6-preferring
        aggressive_nsec=True,
    )
    sites = ("AMS", "FRA", "IAD", "SIN")
    return [
        SimResolver(
            f"examplecloud-{i}",
            GAZETTEER[sites[i % len(sites)]],
            v4.host(10 + i),
            v6.host(10 + i),
            behavior,
            seed=1000 + i,
        )
        for i in range(12)
    ]


def build_background(registry: ASRegistry):
    """A plain ISP population for contrast."""
    resolvers = []
    for i in range(40):
        asn = 65000 + i
        v4 = Prefix(4, (198 << 24) | (51 << 16) | (i << 8), 24)
        registry.register(ASInfo(asn, f"ISP-{asn}", f"ISP-{asn}", "EU"))
        registry.announce(asn, v4)
        resolvers.append(
            SimResolver(
                f"isp-{i}",
                GAZETTEER["LHR"],
                v4.host(10),
                None,
                ResolverBehavior(),  # defaults: no Q-min, no validation
                seed=2000 + i,
            )
        )
    return resolvers


def main() -> None:
    latency = LatencyModel()
    capture = CaptureStore()
    tld_zone = build_registry_zone(ZoneSpec(origin="nl", second_level_count=400, seed=9))
    tld_set = ServerSet(
        [
            AuthoritativeServer(
                "nl-a", tld_zone, [GAZETTEER["AMS"], GAZETTEER["IAD"]], capture=capture
            )
        ],
        latency,
    )
    root_set = ServerSet(
        [AuthoritativeServer("root", build_root_zone(), [GAZETTEER["LAX"]])], latency
    )
    network = AuthorityNetwork(root=root_set, tlds={tld_zone.origin: tld_set})

    registry = ASRegistry()
    cloud = build_example_cloud(registry)
    background = build_background(registry)

    generator = WorkloadGenerator("nl", domains_of(tld_zone), seed=4)
    pattern = DiurnalPattern(0.0, 7 * 86400.0)
    rng = np.random.default_rng(7)
    for index, resolver in enumerate(cloud + background):
        count = int(rng.integers(200, 400)) if resolver in cloud else int(rng.integers(50, 150))
        for query in generator.generate(index, count, pattern, junk_fraction=0.1):
            resolver.resolve(network, query.timestamp, query.qname, query.qtype)

    view = capture.view()
    providers = ("ExampleCloud",)
    analytics = DatasetAnalytics.over(
        view, Attributor(registry, providers).attribute(view), providers
    )

    print(f"captured {len(view)} queries")
    share = analytics.provider_shares()["ExampleCloud"]
    print(f"ExampleCloud share of TLD traffic: {share:.1%}")

    mix = analytics.rrtype_mix("ExampleCloud")
    print("query mix:", {k: round(v, 3) for k, v in mix.items() if v > 0})
    print("  (high NS = Q-min; DS/DNSKEY = validating)")

    row = analytics.transport_matrix()[0]
    print(f"IPv6 share: {row.ipv6:.1%} (configured 80% v6-preferring)")


if __name__ == "__main__":
    main()

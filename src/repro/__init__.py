"""repro — reproduction of "Clouding up the Internet: how centralized is
DNS traffic becoming?" (Moura et al., IMC 2020).

The package pairs a from-scratch DNS traffic simulator (authoritative
servers, behaviour-faithful recursive resolvers, cloud-provider fleets,
network/AS/latency substrate) with an ENTRADA-like analysis layer that
regenerates every table and figure of the paper from raw per-query capture
records.

Quick start::

    from repro.experiments import ExperimentContext, figure1
    ctx = ExperimentContext(scale=0.2)
    print(figure1.run_vantage(ctx, "nl").to_text())

Subpackages
-----------
``repro.dnscore``
    DNS names, records, messages, EDNS(0) — full wire codec.
``repro.netsim``
    Addresses/prefixes, prefix trie, AS registry, geography/latency, time.
``repro.zones``
    Zone model, synthetic root/.nl/.nz builders, popularity sampling.
``repro.server``
    Authoritative servers: referrals, truncation, anycast, capture taps.
``repro.resolver``
    Recursive resolvers: caching, Q-min, DNSSEC validation, transports.
``repro.clouds``
    The five providers' fleets, parameterised from the paper's measurements.
``repro.workload``
    Dataset descriptors (Table 2/3) and client query generation.
``repro.capture``
    Capture schema, columnar store, persistence.
``repro.analysis``
    Attribution and every metric behind the paper's tables/figures.
``repro.experiments``
    One runner per table/figure, producing paper-vs-measured reports.
``repro.sim``
    The end-to-end dataset simulation driver.
``repro.telemetry``
    Metrics registry, phase timers, logging, JSON telemetry snapshots.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]

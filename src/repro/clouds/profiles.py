"""Cloud-provider profiles: the paper's measured behaviour as configuration.

The reproduction inverts the paper's direction: the paper *measured* each
provider's resolver behaviour; we *parameterise* simulated fleets with those
measurements and verify that the full pipeline (resolvers → authoritative
captures → ENTRADA-like analysis) regenerates every table and figure.

Everything here traces to a specific paper artifact:

* AS numbers — Table 1;
* per-year IPv4/IPv6 and UDP/TCP behaviour — Table 5;
* resolver counts and address-family splits — Tables 4 and 6;
* Q-min adoption timing — section 4.2.1 / Figure 3 (Google: Dec 2019);
* DNSSEC validation ("all except one") — section 4.2.2;
* EDNS0 buffer-size distributions — section 4.4 / Figure 6;
* Facebook's 13 PTR-visible sites and their RTT-driven family choice —
  section 4.3 / Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..netsim import ASInfo, Prefix
from ..resolver import ResolverBehavior

PROVIDERS = ("Google", "Amazon", "Microsoft", "Facebook", "Cloudflare")

#: Table 1 — the 20 cloud/content-provider ASes.
PROVIDER_ASES: Dict[str, Tuple[int, ...]] = {
    "Google": (15169,),
    "Amazon": (7224, 8987, 9059, 14168, 16509),
    "Microsoft": (3598, 6584, 8068, 8069, 8070, 8071, 8072, 8073, 8074, 8075, 12076, 23468),
    "Facebook": (32934,),
    "Cloudflare": (13335,),
}

#: Whether the provider runs a public DNS service (Table 1).
RUNS_PUBLIC_DNS: Dict[str, bool] = {
    "Google": True,
    "Amazon": False,
    "Microsoft": False,
    "Facebook": False,
    "Cloudflare": True,
}

#: Synthetic-but-plausible announced prefixes per AS.  One v4 and one v6
#: prefix per AS keeps attribution unambiguous; the Google public-DNS
#: ranges are the real ones so the Table 4 split logic is exercised as the
#: paper describes (advertised-range membership).
AS_PREFIXES: Dict[int, Tuple[str, ...]] = {
    15169: ("8.8.8.0/24", "8.8.4.0/24", "74.125.0.0/16", "172.217.0.0/16",
            "2001:4860::/32"),
    7224: ("43.250.192.0/24", "2406:da00::/32"),
    8987: ("52.93.0.0/16", "2600:9000::/32"),
    9059: ("52.94.0.0/16", "2600:9001::/32"),
    14168: ("52.95.0.0/16", "2600:9002::/32"),
    16509: ("52.0.0.0/13", "54.160.0.0/12", "2600:1f00::/24"),
    3598: ("131.107.0.0/16", "2a01:110::/31"),
    6584: ("157.54.0.0/16", "2a01:112::/32"),
    8068: ("40.76.0.0/16", "2603:1000::/32"),
    8069: ("40.77.0.0/16", "2603:1010::/32"),
    8070: ("40.78.0.0/16", "2603:1020::/32"),
    8071: ("40.79.0.0/16", "2603:1030::/32"),
    8072: ("40.80.0.0/16", "2603:1040::/32"),
    8073: ("40.81.0.0/16", "2603:1050::/32"),
    8074: ("40.82.0.0/16", "2603:1060::/32"),
    8075: ("40.83.0.0/16", "2603:1070::/32"),
    12076: ("40.84.0.0/16", "2603:1080::/32"),
    23468: ("40.85.0.0/16", "2603:1090::/32"),
    32934: ("31.13.24.0/21", "66.220.144.0/20", "157.240.0.0/16",
            "2a03:2880::/32"),
    13335: ("1.1.1.0/24", "1.0.0.0/24", "104.16.0.0/13", "172.64.0.0/13",
            "162.158.0.0/15", "2606:4700::/32", "2400:cb00::/32"),
}

#: Google Public DNS egress ranges (the FAQ-advertised list the paper uses
#: to split Table 4).  Subset of AS15169's announcements above.
GOOGLE_PUBLIC_DNS_PREFIXES: Tuple[str, ...] = (
    "8.8.8.0/24",
    "8.8.4.0/24",
    "2001:4860:4860::/48",
)

#: Facebook's PTR-visible resolver sites (13; section 4.3).  Location 1
#: dominates query volume and sends no TCP.  ``v6_penalty_ms`` injects the
#: one-way IPv6 path penalty that makes sites 8-10 prefer IPv4.
@dataclass(frozen=True)
class FacebookSite:
    index: int            #: paper's anonymised location number (1-13)
    code: str             #: IATA code embedded in PTR records
    weight: float         #: share of Facebook's client workload
    v6_penalty_ms: float  #: extra one-way latency on the IPv6 path
    bufsize: int          #: EDNS0 size this site's resolvers advertise


FACEBOOK_SITES: Tuple[FacebookSite, ...] = (
    FacebookSite(1, "FRA", 0.40, 0.0, 4096),
    FacebookSite(2, "AMS", 0.09, 2.0, 1432),
    FacebookSite(3, "LHR", 0.08, 0.0, 1432),
    FacebookSite(4, "CDG", 0.07, 3.0, 1432),
    FacebookSite(5, "IAD", 0.07, 0.0, 1432),
    FacebookSite(6, "ORD", 0.06, 2.0, 512),
    FacebookSite(7, "DFW", 0.05, 0.0, 512),
    FacebookSite(8, "SJC", 0.05, 25.0, 512),
    FacebookSite(9, "SEA", 0.04, 30.0, 512),
    FacebookSite(10, "LAX", 0.04, 35.0, 512),
    FacebookSite(11, "SIN", 0.02, 1.0, 512),
    FacebookSite(12, "NRT", 0.02, 0.0, 512),
    FacebookSite(13, "GRU", 0.01, 4.0, 512),
)


@dataclass
class PoolSpec:
    """One homogeneous resolver pool inside a provider's fleet.

    ``bufsize_choices`` is a discrete (size, probability) distribution
    sampled per resolver — the population whose query-weighted CDF is
    Figure 6.
    """

    name: str
    resolver_count: int
    site_codes: Tuple[str, ...]
    behavior: ResolverBehavior
    dual_stack_fraction: float = 1.0
    v6_only_fraction: float = 0.0
    traffic_weight: float = 1.0
    bufsize_choices: Tuple[Tuple[int, float], ...] = ((4096, 1.0),)
    junk_fraction: float = 0.08
    is_public_dns: bool = False
    site_weights: Optional[Tuple[float, ...]] = None


@dataclass
class ProviderProfile:
    """A provider's full fleet configuration for one measurement year."""

    name: str
    year: int
    pools: List[PoolSpec] = field(default_factory=list)

    @property
    def total_resolvers(self) -> int:
        return sum(pool.resolver_count for pool in self.pools)


#: Per-year Q-min status (section 4.2.1: by w2020, NS queries jumped for
#: Google, Cloudflare, and Facebook at both ccTLDs; Amazon only at .nz).
QMIN_BY_YEAR: Dict[str, Dict[int, bool]] = {
    "Google": {2018: False, 2019: False, 2020: True},      # deployed Dec 2019
    "Cloudflare": {2018: False, 2019: False, 2020: True},
    "Facebook": {2018: False, 2019: False, 2020: True},
    "Amazon": {2018: False, 2019: False, 2020: False},     # .nz-only; see below
    "Microsoft": {2018: False, 2019: False, 2020: False},
}

#: Amazon deployed Q-min only where the paper saw it: at .nz, by w2020.
AMAZON_QMIN_NZ_2020 = True

#: Section 4.2.2: all CPs validate except one.  Microsoft is the laggard on
#: every axis the paper measures (no IPv6, no TCP), so it is the
#: non-validator in this reproduction.
VALIDATES: Dict[str, bool] = {
    "Google": True,
    "Amazon": True,
    "Microsoft": False,
    "Facebook": True,
    "Cloudflare": True,
}

#: Table 5 — fraction of queries over IPv6, per provider/vantage/year.
#: Facebook is absent: its family split *emerges* from per-site RTTs.
V6_QUERY_RATIO: Dict[Tuple[str, str, int], float] = {
    ("Google", "nl", 2018): 0.34, ("Google", "nl", 2019): 0.51, ("Google", "nl", 2020): 0.48,
    ("Google", "nz", 2018): 0.39, ("Google", "nz", 2019): 0.46, ("Google", "nz", 2020): 0.46,
    ("Amazon", "nl", 2018): 0.00, ("Amazon", "nl", 2019): 0.02, ("Amazon", "nl", 2020): 0.03,
    ("Amazon", "nz", 2018): 0.00, ("Amazon", "nz", 2019): 0.03, ("Amazon", "nz", 2020): 0.04,
    ("Microsoft", "nl", 2018): 0.0, ("Microsoft", "nl", 2019): 0.0, ("Microsoft", "nl", 2020): 0.0,
    ("Microsoft", "nz", 2018): 0.0, ("Microsoft", "nz", 2019): 0.0, ("Microsoft", "nz", 2020): 0.0,
    ("Cloudflare", "nl", 2018): 0.46, ("Cloudflare", "nl", 2019): 0.43, ("Cloudflare", "nl", 2020): 0.49,
    ("Cloudflare", "nz", 2018): 0.46, ("Cloudflare", "nz", 2019): 0.44, ("Cloudflare", "nz", 2020): 0.51,
}

#: Table 6 / Table 4 — resolver populations per vantage (scaled 1:100).
#: Values: (total_resolvers, ipv6_fraction_of_resolvers).
RESOLVER_POPULATION: Dict[Tuple[str, str, int], Tuple[int, float]] = {
    ("Google", "nl", 2020): (239, 0.30), ("Google", "nz", 2020): (212, 0.30),
    ("Amazon", "nl", 2020): (383, 0.018), ("Amazon", "nz", 2020): (346, 0.021),
    ("Microsoft", "nl", 2020): (145, 0.030), ("Microsoft", "nz", 2020): (102, 0.046),
    ("Cloudflare", "nl", 2020): (150, 0.45), ("Cloudflare", "nz", 2020): (140, 0.45),
    ("Facebook", "nl", 2020): (65, 0.90), ("Facebook", "nz", 2020): (60, 0.90),
}

#: Fraction of Google queries from the Public DNS pool (Tables 4 and 7).
GOOGLE_PUBLIC_SHARE: Dict[Tuple[str, int], float] = {
    ("nl", 2019): 0.893, ("nz", 2019): 0.844,
    ("nl", 2020): 0.865, ("nz", 2020): 0.884,
    ("nl", 2018): 0.87, ("nz", 2018): 0.86,
}

#: Fraction of Google *machines* that are Public DNS egresses.  Tuned below
#: the paper's address fractions (15.6% .nl / 18.7% .nz, Table 4) because
#: public egresses are dual-stack and therefore contribute two addresses
#: each to the capture's distinct-address count.
GOOGLE_PUBLIC_RESOLVER_FRACTION: Dict[str, float] = {"nl": 0.10, "nz": 0.12, "root": 0.10}

#: Capture amplification per provider: how many authoritative cache-miss
#: queries one client query generates, relative to Google (validation,
#: explicit DS revalidation, and Q-min all add queries).  Workload weights
#: are divided by this so that the *captured* shares land on Figure 1.
CAPTURE_AMPLIFICATION: Dict[str, float] = {
    "Google": 1.0,
    "Amazon": 1.4,
    "Microsoft": 1.0,
    "Facebook": 1.25,
    "Cloudflare": 1.8,
}

#: Year-level amplification correction: pre-2020 CP fleets lack aggressive
#: NSEC caching, so a larger fraction of their junk reaches the
#: authoritatives; without this their captured shares overshoot Figure 1's
#: 2018/2019 levels.
YEAR_AMPLIFICATION: Dict[int, float] = {2018: 1.16, 2019: 1.16, 2020: 1.0}

#: Figure 1 — share of all captured queries originating from each provider.
#: These drive workload volume allocation; the analysis re-derives them
#: from the capture via AS attribution.
TRAFFIC_SHARE: Dict[Tuple[str, int], Dict[str, float]] = {
    ("nl", 2018): {"Google": 0.125, "Amazon": 0.065, "Microsoft": 0.055, "Facebook": 0.035, "Cloudflare": 0.040},
    ("nl", 2019): {"Google": 0.135, "Amazon": 0.070, "Microsoft": 0.055, "Facebook": 0.035, "Cloudflare": 0.045},
    ("nl", 2020): {"Google": 0.132, "Amazon": 0.070, "Microsoft": 0.055, "Facebook": 0.033, "Cloudflare": 0.045},
    ("nz", 2018): {"Google": 0.065, "Amazon": 0.080, "Microsoft": 0.050, "Facebook": 0.030, "Cloudflare": 0.045},
    ("nz", 2019): {"Google": 0.070, "Amazon": 0.085, "Microsoft": 0.050, "Facebook": 0.030, "Cloudflare": 0.050},
    ("nz", 2020): {"Google": 0.072, "Amazon": 0.090, "Microsoft": 0.050, "Facebook": 0.030, "Cloudflare": 0.055},
    ("root", 2018): {"Google": 0.020, "Amazon": 0.015, "Microsoft": 0.010, "Facebook": 0.005, "Cloudflare": 0.010},
    ("root", 2019): {"Google": 0.024, "Amazon": 0.018, "Microsoft": 0.012, "Facebook": 0.006, "Cloudflare": 0.014},
    ("root", 2020): {"Google": 0.027, "Amazon": 0.020, "Microsoft": 0.015, "Facebook": 0.008, "Cloudflare": 0.017},
}

#: Per-provider junk fraction of the client workload (Figure 4: ccTLD junk
#: rates are similar across .nl/.nz; CPs show proportionally less junk at
#: the root than the 80% background).  2020 sees a drop attributed to
#: aggressive NSEC caching.
JUNK_FRACTION: Dict[Tuple[str, int], float] = {
    ("Google", 2018): 0.12, ("Google", 2019): 0.12, ("Google", 2020): 0.08,
    ("Amazon", 2018): 0.10, ("Amazon", 2019): 0.10, ("Amazon", 2020): 0.08,
    ("Microsoft", 2018): 0.14, ("Microsoft", 2019): 0.14, ("Microsoft", 2020): 0.13,
    ("Facebook", 2018): 0.06, ("Facebook", 2019): 0.06, ("Facebook", 2020): 0.05,
    ("Cloudflare", 2018): 0.12, ("Cloudflare", 2019): 0.20, ("Cloudflare", 2020): 0.09,
}

#: EDNS0 buffer-size populations (Figure 6).  Facebook: ~30% of queries at
#: 512; Google/Microsoft: ~24% at or below 1232, the rest 4096.
BUFSIZE_CHOICES: Dict[str, Tuple[Tuple[int, float], ...]] = {
    "Google": ((1232, 0.24), (4096, 0.76)),
    "Amazon": ((4096, 0.90), (1232, 0.10)),
    "Microsoft": ((1232, 0.24), (4096, 0.76)),
    "Facebook": ((512, 0.30), (1432, 0.30), (4096, 0.40)),
    "Cloudflare": ((512, 0.02), (1452, 0.78), (4096, 0.20)),
}

#: Where each provider's (non-Facebook) resolver fleets sit.
PROVIDER_SITES: Dict[str, Tuple[str, ...]] = {
    "Google": ("AMS", "FRA", "LHR", "IAD", "SJC", "SIN", "SYD", "GRU", "BOM"),
    "Amazon": ("IAD", "DUB", "FRA", "SIN", "NRT", "SYD", "ORD", "GRU"),
    "Microsoft": ("IAD", "AMS", "DUB", "SIN", "SJC", "SYD"),
    "Cloudflare": ("AMS", "LHR", "FRA", "IAD", "SJC", "SIN", "SYD", "AKL", "WLG"),
}


def registered_as_infos() -> List[ASInfo]:
    """All Table 1 ASes as registrable :class:`ASInfo` rows."""
    infos = []
    for provider, asns in PROVIDER_ASES.items():
        for asn in asns:
            infos.append(ASInfo(asn, f"{provider.upper()}-{asn}", provider, "US"))
    return infos


def provider_prefixes(provider: str) -> List[Prefix]:
    """Every announced prefix of every AS belonging to ``provider``."""
    prefixes: List[Prefix] = []
    for asn in PROVIDER_ASES[provider]:
        prefixes.extend(Prefix.parse(text) for text in AS_PREFIXES[asn])
    return prefixes


def qmin_enabled(provider: str, vantage: str, year: int) -> bool:
    """Is QNAME minimisation active for this provider/vantage/year?"""
    if provider == "Amazon" and vantage == "nz" and year >= 2020:
        return AMAZON_QMIN_NZ_2020
    return QMIN_BY_YEAR[provider][year]


def google_qmin_by_month(year: int, month: int) -> bool:
    """Google's Q-min rollout switch for the monthly Figure 3 runs:
    confirmed deployed in Dec 2019."""
    return (year, month) >= (2019, 12)

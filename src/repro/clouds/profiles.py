"""Cloud-provider profiles: the paper's measured behaviour as configuration.

The reproduction inverts the paper's direction: the paper *measured* each
provider's resolver behaviour; we *parameterise* simulated fleets with those
measurements and verify that the full pipeline (resolvers → authoritative
captures → ENTRADA-like analysis) regenerates every table and figure.

Inputs that *are* a published cell read it from :mod:`repro.paper`, so the
reports' paper column and the simulator share one copy:

* each provider's query share — Figure 1 (``paper.FIGURE1``);
* the fixed IPv6 query share of a fleet — Table 5's IPv6 column (read in
  :mod:`repro.clouds.fleets`);
* Google Public DNS's query share in 2019/2020 — Tables 4 and 7;
* Amazon's and Microsoft's fleet sizes (1:100) and most of their IPv6
  address fractions — Table 6;
* the Facebook-512 and Google-1232 EDNS0 shares — Figure 6.

Google's Q-min rollout month (Figure 3) is read where the monthly
descriptors are built, :func:`repro.workload.monthly_google_descriptor`.

The rest is tuned to land the captured outputs on the paper, or read from
its prose: AS numbers (Table 1), Q-min adoption
(section 4.2.1), DNSSEC validation ("all except one", section 4.2.2), the
remaining fleet sizes, address fractions and EDNS0 sizes, junk fractions,
capture amplification, and Facebook's 13 PTR-visible sites with their
RTT-driven family choice (section 4.3 / Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..netsim import ASInfo, Prefix
from ..paper import FIGURE6_CDF, TABLE4, TABLE6

PROVIDERS = ("Google", "Amazon", "Microsoft", "Facebook", "Cloudflare")

#: Table 1 — the 20 cloud/content-provider ASes.
PROVIDER_ASES: Dict[str, Tuple[int, ...]] = {
    "Google": (15169,),
    "Amazon": (7224, 8987, 9059, 14168, 16509),
    "Microsoft": (3598, 6584, 8068, 8069, 8070, 8071, 8072, 8073, 8074, 8075, 12076, 23468),
    "Facebook": (32934,),
    "Cloudflare": (13335,),
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


def _table6_population(provider: str, vantage: str) -> Tuple[int, float]:
    """Table 6 at 1:100: (resolvers, IPv6 fraction of the addresses)."""
    total, __, v6 = TABLE6[provider][vantage]
    return round(total / 100), round(v6 / total, 3)


#: Resolver populations per vantage (scaled 1:100), w2020.
#: Values: (total_resolvers, ipv6_fraction_of_resolvers).  Amazon and
#: Microsoft are Table 6; the other three are tuned.
RESOLVER_POPULATION: Dict[Tuple[str, str, int], Tuple[int, float]] = {
    ("Google", "nl", 2020): (239, 0.30), ("Google", "nz", 2020): (212, 0.30),
    ("Amazon", "nl", 2020): _table6_population("Amazon", "nl"),
    ("Amazon", "nz", 2020): _table6_population("Amazon", "nz"),
    # Table 6 rounds to 0.029; the input stays 0.030 until the outputs are
    # re-recorded (ROADMAP item 3).
    ("Microsoft", "nl", 2020): (_table6_population("Microsoft", "nl")[0], 0.030),
    ("Microsoft", "nz", 2020): _table6_population("Microsoft", "nz"),
    ("Cloudflare", "nl", 2020): (150, 0.45), ("Cloudflare", "nz", 2020): (140, 0.45),
    ("Facebook", "nl", 2020): (65, 0.90), ("Facebook", "nz", 2020): (60, 0.90),
}

#: Fraction of Google queries from the Public DNS pool: Tables 4 and 7 for
#: 2019/2020; the paper has no 2018 split, so those two are tuned.
GOOGLE_PUBLIC_SHARE: Dict[Tuple[str, int], float] = {
    **{key: queries for key, (queries, __) in TABLE4.items()},
    ("nl", 2018): 0.87, ("nz", 2018): 0.86,
}

#: Fraction of Google *machines* that are Public DNS egresses.  Tuned below
#: the paper's address fractions (Table 4's resolver ratios) because
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

#: EDNS0 buffer-size populations (Figure 6).  Facebook's 512 and Google's
#: 1232 shares are the figure's anchors; Microsoft's mirrors Google's
#: ("similar"), and the other sizes and shares are tuned.
BUFSIZE_CHOICES: Dict[str, Tuple[Tuple[int, float], ...]] = {
    "Google": ((1232, FIGURE6_CDF[("Google", 1232)]), (4096, 0.76)),
    "Amazon": ((4096, 0.90), (1232, 0.10)),
    "Microsoft": ((1232, 0.24), (4096, 0.76)),
    "Facebook": ((512, FIGURE6_CDF[("Facebook", 512)]), (1432, 0.30), (4096, 0.40)),
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

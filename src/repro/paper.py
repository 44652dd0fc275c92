"""The paper's published numbers, each stated once.

Keyed by artefact and cell.  Two kinds of reader use them: the fleet
profiles (:mod:`repro.clouds.profiles`, :mod:`repro.clouds.fleets`) where a
simulator input *is* a published cell, and the experiment reports, whose
``paper`` column prints them beside what the simulation produced.  A cell
read by both is an input the simulator was told, not a result it
reproduced.

The paper's findings sit beside its numbers: :data:`CLAIMS` states each
ordering, sign, threshold and detected month as a predicate over a run's
reports, and :mod:`repro.experiments.claims` checks them.

Pure data: nothing here imports from the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

#: Table 2 — per ccTLD dataset: (NS set, analysed NSes, zone size).
TABLE2: Dict[str, Tuple[str, str, str]] = {
    "nl-w2018": ("4A", "2A", "5.8M"),
    "nl-w2019": ("4A", "2A", "5.8M"),
    "nl-w2020": ("3A", "2A", "5.9M"),
    "nz-w2018": ("6A,1U", "5A,1U", "720K"),
    "nz-w2019": ("6A,1U", "5A,1U", "710K"),
    "nz-w2020": ("6A,1U", "5A,1U", "710K"),
}

#: Table 3 — per dataset: (queries in billions, valid queries in billions,
#: resolvers in millions, ASes).
TABLE3: Dict[str, Tuple[float, float, float, int]] = {
    "nl-w2018": (7.29, 6.53, 2.09, 41276),
    "nl-w2019": (10.16, 9.05, 2.18, 42727),
    "nl-w2020": (13.75, 11.88, 1.99, 41716),
    "nz-w2018": (2.95, 2.00, 1.28, 37623),
    "nz-w2019": (3.48, 2.81, 1.42, 39601),
    "nz-w2020": (4.57, 3.03, 1.31, 38505),
    "root-2018": (2.68, 0.93, 4.23, 45210),
    "root-2019": (4.13, 1.43, 4.13, 48154),
    "root-2020": (6.70, 1.34, 6.01, 51820),
}

#: Tables 4 (w2020) and 7 (w2019) — Google Public DNS's share of Google's
#: queries and of its resolver addresses: (vantage, year) → (queries,
#: resolvers).
TABLE4: Dict[Tuple[str, int], Tuple[float, float]] = {
    ("nl", 2020): (0.865, 0.156),
    ("nz", 2020): (0.884, 0.187),
    ("nl", 2019): (0.893, 0.154),
    ("nz", 2019): (0.844, 0.177),
}

#: Table 5 — (provider, vantage, year) → query shares (IPv4, IPv6, UDP, TCP).
TABLE5: Dict[Tuple[str, str, int], Tuple[float, float, float, float]] = {
    ("Google", "nl", 2018): (0.66, 0.34, 1.0, 0.0),
    ("Google", "nl", 2019): (0.49, 0.51, 1.0, 0.0),
    ("Google", "nl", 2020): (0.52, 0.48, 1.0, 0.0),
    ("Google", "nz", 2018): (0.61, 0.39, 1.0, 0.0),
    ("Google", "nz", 2019): (0.54, 0.46, 1.0, 0.0),
    ("Google", "nz", 2020): (0.54, 0.46, 1.0, 0.0),
    ("Amazon", "nl", 2018): (1.0, 0.0, 1.0, 0.0),
    ("Amazon", "nl", 2019): (0.98, 0.02, 0.98, 0.02),
    ("Amazon", "nl", 2020): (0.97, 0.03, 0.95, 0.05),
    ("Amazon", "nz", 2018): (1.0, 0.0, 0.98, 0.02),
    ("Amazon", "nz", 2019): (0.97, 0.03, 0.96, 0.04),
    ("Amazon", "nz", 2020): (0.96, 0.04, 0.95, 0.05),
    ("Microsoft", "nl", 2018): (1.0, 0.0, 1.0, 0.0),
    ("Microsoft", "nl", 2019): (1.0, 0.0, 1.0, 0.0),
    ("Microsoft", "nl", 2020): (1.0, 0.0, 1.0, 0.0),
    ("Microsoft", "nz", 2018): (1.0, 0.0, 1.0, 0.0),
    ("Microsoft", "nz", 2019): (1.0, 0.0, 1.0, 0.0),
    ("Microsoft", "nz", 2020): (1.0, 0.0, 1.0, 0.0),
    ("Facebook", "nl", 2018): (0.52, 0.48, 0.79, 0.21),
    ("Facebook", "nl", 2019): (0.24, 0.76, 0.85, 0.15),
    ("Facebook", "nl", 2020): (0.24, 0.76, 0.86, 0.14),
    ("Facebook", "nz", 2018): (0.51, 0.49, 0.52, 0.48),
    ("Facebook", "nz", 2019): (0.19, 0.81, 0.83, 0.17),
    ("Facebook", "nz", 2020): (0.17, 0.83, 0.85, 0.15),
    ("Cloudflare", "nl", 2018): (0.54, 0.46, 1.0, 0.0),
    ("Cloudflare", "nl", 2019): (0.57, 0.43, 0.99, 0.01),
    ("Cloudflare", "nl", 2020): (0.51, 0.49, 0.98, 0.02),
    ("Cloudflare", "nz", 2018): (0.54, 0.46, 1.0, 0.0),
    ("Cloudflare", "nz", 2019): (0.56, 0.44, 1.0, 0.0),
    ("Cloudflare", "nz", 2020): (0.49, 0.51, 0.99, 0.01),
}

#: Table 6 (w2020) — distinct resolver addresses: provider → vantage →
#: (total, IPv4, IPv6).
TABLE6: Dict[str, Dict[str, Tuple[int, int, int]]] = {
    "Amazon": {"nl": (38317, 37640, 677), "nz": (34645, 33908, 737)},
    "Microsoft": {"nl": (14494, 14069, 425), "nz": (10206, 9738, 468)},
}

#: Figure 1 — each provider's share of all queries at a vantage and year.
#: The simulator sums each row in this order, so the order is part of its
#: output.
FIGURE1: Dict[Tuple[str, int], Dict[str, float]] = {
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

#: Figure 1 / section 4.1 — the five providers' headline total share.
FIGURE1_TOTAL: Dict[Tuple[str, int], float] = {
    ("nl", 2018): 0.32, ("nl", 2019): 0.34, ("nl", 2020): 0.335,
    ("nz", 2018): 0.27, ("nz", 2019): 0.285, ("nz", 2020): 0.297,
    ("root", 2018): 0.060, ("root", 2019): 0.075, ("root", 2020): 0.087,
}

#: Figure 3 / section 4.2.1 — (year, month) Google's Q-min rollout was
#: confirmed in (by Google's operators).
FIGURE3_ROLLOUT: Tuple[int, int] = (2019, 12)

#: Figure 4 / section 3 — vantage-wide junk ratio.
FIGURE4: Dict[Tuple[str, int], float] = {
    ("nl", 2018): 0.104, ("nl", 2019): 0.109, ("nl", 2020): 0.136,
    ("nz", 2018): 0.322, ("nz", 2019): 0.193, ("nz", 2020): 0.337,
    ("root", 2018): 0.653, ("root", 2019): 0.654, ("root", 2020): 0.800,
}

#: Figure 5 / section 4.3 (w2020, .nl) — Facebook's PTR-visible sites.
FIGURE5 = {
    "dominant_site": 1,          # location 1 dominates query volume
    "no_tcp_site": 1,            # and sends no TCP at all
    "v4_preferring_sites": (8, 9, 10),  # big v6 RTT gap → prefer IPv4
    "sites_total": 13,
}

#: Figure 6 / section 4.4 (w2020, .nl) — CDF anchors: (provider, EDNS0
#: size) → share of the provider's UDP queries at or below that size.
FIGURE6_CDF: Dict[Tuple[str, int], float] = {
    ("Facebook", 512): 0.30,
    ("Google", 1232): 0.24,
}

#: Figure 6 / section 4.4 — share of each provider's UDP answers truncated.
FIGURE6_TRUNCATION: Dict[str, float] = {
    "Facebook": 0.1716,
    "Google": 0.0004,
    "Microsoft": 0.0001,
}


# -- the paper's findings ------------------------------------------------------

#: The scales a claim is gated at, smallest first.
SCALE_LADDER: Tuple[float, ...] = (0.005, 0.03, 0.2, 1.0)


@dataclass(frozen=True)
class Claim:
    """One finding of the paper, as a predicate over a run's reports.

    ``holds`` reads a lookup of the experiment matrix:
    ``r.measured(experiment_id, label)`` is a row's measured value and
    ``r.series(experiment_id, key)`` one of a report's series.  ``scale``
    is the smallest rung of :data:`SCALE_LADDER` from which the claim held
    for five seeds at that rung and every larger one; ``None`` declares a
    claim the reproduction does not keep even at full scale.
    """

    name: str
    source: str
    scale: Optional[float]
    holds: Callable[[Any], bool]


_PROVIDERS = tuple(FIGURE1["nl", 2020])
_YEARS = (2018, 2019, 2020)
_ROLLOUT = f"{FIGURE3_ROLLOUT[0]}-{FIGURE3_ROLLOUT[1]:02d}"


def _dataset_id(vantage: str, year: int) -> str:
    return f"root-{year}" if vantage == "root" else f"{vantage}-w{year}"


def _growth(r, vantage: str) -> float:
    """Table 3's query growth 2018 → 2020 at one vantage."""
    first, last = (
        r.measured("table3", f"{_dataset_id(vantage, year)} queries")
        for year in (2018, 2020)
    )
    return last / first - 1.0


def _pooled_v6_ratio(r, sites) -> Tuple[Optional[float], int]:
    """Figure 5's IPv6 share of the given sites' pooled queries, and how
    many queries the pool holds."""
    v4 = dict(zip(r.series("figure5", "sites"), r.series("figure5", "queries_v4")))
    v6 = dict(zip(r.series("figure5", "sites"), r.series("figure5", "queries_v6")))
    pooled_v6 = sum(v6.get(site, 0) for site in sites)
    total = sum(v4.get(site, 0) for site in sites) + pooled_v6
    return (pooled_v6 / total if total else None), total


_PENALISED = FIGURE5["v4_preferring_sites"]
_UNPENALISED = (1, 2, 3, 4, 5, 12)


def _pool_prefers(r, sites, v6: bool) -> bool:
    """At least 10 pooled queries, and an IPv6 share on ``v6``'s side of 45%."""
    ratio, total = _pooled_v6_ratio(r, sites)
    return total >= 10 and (ratio > 0.45 if v6 else ratio < 0.45)


def _rtt_preference_gap(r) -> bool:
    penalised, __ = _pooled_v6_ratio(r, _PENALISED)
    unpenalised, __ = _pooled_v6_ratio(r, _UNPENALISED)
    return None not in (penalised, unpenalised) and unpenalised > penalised + 0.2


def _figure8_penalised_prefer_v4(r) -> bool:
    ratios = dict(zip(r.series("figure8", "sites"), r.series("figure8", "v6_ratio")))
    penalised = [ratios[site] for site in _PENALISED if site in ratios]
    return not penalised or max(penalised) < 0.5


def _top_lookup_type(mix) -> str:
    return max((rrtype for rrtype in mix if rrtype != "other"), key=lambda k: mix[k])


def _mix(r, panel: str, provider: str, rrtype: str) -> float:
    return r.series(panel, provider)[rrtype]


def _on_2020_cctld_panels(check) -> Callable[[Any], bool]:
    """``check(r, panel)`` holds on both 2020 ccTLD panels of Figure 2."""
    return lambda r: all(check(r, panel) for panel in ("figure2d", "figure2e"))


def _month(r, figure: str, series: str, month: str) -> float:
    return dict(zip(r.series(figure, "months"), r.series(figure, series)))[month]


def _outage(r, series: str) -> Dict[int, float]:
    return dict(zip(r.series("ext-outage", "offline"), r.series("ext-outage", series)))


#: Every finding the reproduction is checked against: the paper's, in
#: paper order, then the extensions'.
CLAIMS: Tuple[Claim, ...] = (
    # Table 2 — server deployments.
    Claim(".nl ran 4 anycast NSes in w2018", "Table 2", 0.005,
          lambda r: r.measured("table2", "nl-w2018 NSSet") == TABLE2["nl-w2018"][0]),
    Claim(".nl ran 3 anycast NSes in w2020", "Table 2", 0.005,
          lambda r: r.measured("table2", "nl-w2020 NSSet") == TABLE2["nl-w2020"][0]),
    Claim("2 .nl NSes are analysed in w2020", "Table 2", 0.005,
          lambda r: r.measured("table2", "nl-w2020 analysed") == TABLE2["nl-w2020"][1]),
    Claim(".nz ran 6 anycast + 1 unicast NSes in w2020", "Table 2", 0.005,
          lambda r: r.measured("table2", "nz-w2020 NSSet") == TABLE2["nz-w2020"][0]),
    Claim("5 anycast + 1 unicast .nz NSes are analysed in w2020", "Table 2", 0.005,
          lambda r: r.measured("table2", "nz-w2020 analysed") == TABLE2["nz-w2020"][1]),
    # Table 3 — datasets.
    Claim(".nl w2020 queries are > 75% valid", "Table 3", 0.005,
          lambda r: r.measured("table3", "nl-w2020 valid fraction") > 0.75),
    Claim(".nz w2020 queries are > 55% valid", "Table 3", 0.005,
          lambda r: r.measured("table3", "nz-w2020 valid fraction") > 0.55),
    Claim("B-Root 2020 queries are < 45% valid", "Table 3", 0.005,
          lambda r: r.measured("table3", "root-2020 valid fraction") < 0.45),
    Claim("queries grow > 25% from 2018 to 2020 at every vantage", "Table 3", 0.03,
          lambda r: all(_growth(r, v) > 0.25 for v in ("nl", "nz", "root"))),
    Claim("B-Root's query growth outpaces .nz's", "Table 3", 0.005,
          lambda r: _growth(r, "root") > _growth(r, "nz")),
    Claim("every 2020 dataset sees > 200 ASes", "Table 3", 0.03,
          lambda r: all(r.measured("table3", f"{d} ASes") > 200
                        for d in ("nl-w2020", "nz-w2020", "root-2020"))),
    # Figure 1 — the five CPs' query share (section 4.1).
    Claim("the five CPs send > 25% of .nl queries every year", "Figure 1a, §4.1", 0.005,
          lambda r: all(r.measured("figure1a", f"{y} all 5 CPs") > 0.25 for y in _YEARS)),
    Claim("Google is the largest CP at .nl in 2020", "Figure 1a, §4.1", 0.005,
          lambda r: max(_PROVIDERS, key=lambda p: r.series("figure1a", p)[-1]) == "Google"),
    Claim("the five CPs send 18-42% of .nz queries every year", "Figure 1b, §4.1", 0.005,
          lambda r: all(0.18 < r.measured("figure1b", f"{y} all 5 CPs") < 0.42 for y in _YEARS)),
    Claim("Google's 2020 share is larger at .nl than at .nz", "Figure 1, §4.1", 0.005,
          lambda r: r.series("figure1a", "Google")[-1] > r.series("figure1b", "Google")[-1]),
    Claim("the five CPs send < 18% of B-Root's 2020 queries", "Figure 1c, §4.1", 0.005,
          lambda r: r.measured("figure1c", "2020 all 5 CPs") < 0.18),
    Claim("B-Root's 2020 CP share is under half of .nl's", "Figure 1, §4.1", 0.005,
          lambda r: r.measured("figure1c", "2020 all 5 CPs")
          < r.measured("figure1a", "2020 all 5 CPs") / 2),
    Claim("B-Root's CP share grows from 2018 to 2020", "Figure 1c, §4.1", 0.005,
          lambda r: r.measured("figure1c", "2020 all 5 CPs")
          > r.measured("figure1c", "2018 all 5 CPs")),
    # Figures 2 and 7 — query types per CP (section 4.2).
    Claim("A is every CP's top query type at the ccTLDs in 2018", "Figure 2a-b, §4.2", 0.2,
          lambda r: all(_top_lookup_type(r.series(panel, p)) == "A"
                        for panel in ("figure2a", "figure2b") for p in _PROVIDERS)),
    Claim("every CP sends more A than NS to B-Root in 2018", "Figure 2c, §4.2", 0.03,
          lambda r: all(_mix(r, "figure2c", p, "A") > _mix(r, "figure2c", p, "NS") for p in _PROVIDERS)),
    Claim("every CP sends more A than DS to B-Root in 2018", "Figure 2c, §4.2", 0.2,
          lambda r: all(_mix(r, "figure2c", p, "A") > _mix(r, "figure2c", p, "DS") for p in _PROVIDERS)),
    Claim("every CP sends more A than AAAA to B-Root in 2018", "Figure 2c, §4.2", 0.2,
          lambda r: all(_mix(r, "figure2c", p, "A") > _mix(r, "figure2c", p, "AAAA") for p in _PROVIDERS)),
    Claim("Q-min adopters send > 15% NS to the ccTLDs in 2020", "Figure 2d-e, §4.2.1", 0.005,
          _on_2020_cctld_panels(lambda r, f: all(_mix(r, f, p, "NS") > 0.15
                                       for p in ("Google", "Cloudflare", "Facebook")))),
    Claim("Microsoft sends < 10% NS to the ccTLDs in 2020", "Figure 2d-e, §4.2.1", 0.005,
          _on_2020_cctld_panels(lambda r, f: _mix(r, f, "Microsoft", "NS") < 0.10)),
    Claim("Microsoft sends more A than NS to the ccTLDs in 2020", "Figure 2d-e, §4.2.1", 0.005,
          _on_2020_cctld_panels(lambda r, f: _mix(r, f, "Microsoft", "A") > _mix(r, f, "Microsoft", "NS"))),
    Claim("Microsoft sends < 1% DS to the ccTLDs in 2020", "Figure 2d-e, §4.2.2", 0.005,
          _on_2020_cctld_panels(lambda r, f: _mix(r, f, "Microsoft", "DS") < 0.01)),
    Claim("Microsoft sends < 1% DNSKEY to the ccTLDs in 2020", "Figure 2d-e, §4.2.2", 0.005,
          _on_2020_cctld_panels(lambda r, f: _mix(r, f, "Microsoft", "DNSKEY") < 0.01)),
    Claim("Cloudflare sends > 2% DS to the ccTLDs in 2020", "Figure 2d-e, §4.2.2", 0.005,
          _on_2020_cctld_panels(lambda r, f: _mix(r, f, "Cloudflare", "DS") > 0.02)),
    Claim("Cloudflare sends more DS than DNSKEY to the ccTLDs in 2020", "Figure 2d-e, §4.2.2", 0.2,
          _on_2020_cctld_panels(lambda r, f: _mix(r, f, "Cloudflare", "DS") > _mix(r, f, "Cloudflare", "DNSKEY"))),
    Claim("Google's DS share is below Cloudflare's at the ccTLDs in 2020", "Figure 2d-e, §4.2.2", 0.005,
          _on_2020_cctld_panels(lambda r, f: _mix(r, f, "Google", "DS") < _mix(r, f, "Cloudflare", "DS"))),
    Claim("Amazon's 2020 NS share at .nz exceeds .nl's by > 10 points", "Figure 2d-e, §4.2.1", 0.005,
          lambda r: _mix(r, "figure2e", "Amazon", "NS") > _mix(r, "figure2d", "Amazon", "NS") + 0.10),
    Claim("Google sends < 15% NS to .nl in 2019", "Figure 7a, §4.2.1", 0.005,
          lambda r: _mix(r, "figure7a", "Google", "NS") < 0.15),
    Claim("Google sends more A than NS to .nl in 2019", "Figure 7a, §4.2.1", 0.005,
          lambda r: _mix(r, "figure7a", "Google", "A") > _mix(r, "figure7a", "Google", "NS")),
    # Figure 3 — Google's monthly mix and the Q-min rollout (section 4.2.1).
    Claim("the Q-min rollout is detected at .nl in 2019-12", "Figure 3a, §4.2.1", 0.005,
          lambda r: r.measured("figure3a", "detected Q-min rollout") == _ROLLOUT),
    Claim("Google sends < 15% NS to .nl in 2019-11", "Figure 3a, §4.2.1", 0.005,
          lambda r: _month(r, "figure3a", "ns_share", "2019-11") < 0.15),
    Claim("Google sends > 25% NS to .nl in 2020-01", "Figure 3a, §4.2.1", 0.005,
          lambda r: _month(r, "figure3a", "ns_share", "2020-01") > 0.25),
    Claim("> 90% of Google's 2020-01 NS qnames at .nl are minimised", "Figure 3a, §4.2.1", 0.005,
          lambda r: r.measured("figure3a", "minimised NS qnames (2020-01)") > 0.9),
    Claim("the Q-min rollout is detected at .nz in 2019-12", "Figure 3b, §4.2.1", 0.005,
          lambda r: r.measured("figure3b", "detected Q-min rollout") == _ROLLOUT),
    Claim("the Feb-2020 .nz A/AAAA spike is > 5 points", "Figure 3b, §4.2.1", 0.005,
          lambda r: r.measured("figure3b", "Feb-2020 A/AAAA spike (cyclic dep)") > 0.05),
    Claim("Google's .nz A share rises from 2020-01 to 2020-02", "Figure 3b, §4.2.1", 0.005,
          lambda r: _month(r, "figure3b", "a_share", "2020-02")
          > _month(r, "figure3b", "a_share", "2020-01")),
    Claim("Google's .nz NS share falls from 2020-01 to 2020-02", "Figure 3b, §4.2.1", 0.005,
          lambda r: _month(r, "figure3b", "ns_share", "2020-02")
          < _month(r, "figure3b", "ns_share", "2020-01")),
    Claim("Google's .nz NS share recovers in 2020-03", "Figure 3b, §4.2.1", 0.005,
          lambda r: _month(r, "figure3b", "ns_share", "2020-03")
          > _month(r, "figure3b", "ns_share", "2020-02")),
    # Figure 4 — junk (section 4.2.3).
    Claim(".nz carries more junk than .nl in 2020", "Figure 4a-b, §4.2.3", 0.005,
          lambda r: r.measured("figure4b", "2020 overall") > r.measured("figure4a", "2020 overall")),
    Claim("Facebook's 2020 .nl junk is < 15%", "Figure 4a, §4.2.3", 0.005,
          lambda r: r.measured("figure4a", "2020 Facebook") < 0.15),
    Claim("each CP's 2020 junk at .nl and .nz is within 12 points", "Figure 4a-b, §4.2.3", 0.005,
          lambda r: all(abs(r.measured("figure4a", f"2020 {p}") - r.measured("figure4b", f"2020 {p}"))
                        < 0.12 for p in _PROVIDERS)),
    Claim("B-Root's 2020 queries are > 55% junk", "Figure 4c, §4.2.3", 0.005,
          lambda r: r.measured("figure4c", "2020 overall") > 0.55),
    Claim("every CP sends less junk to B-Root than its 2020 overall", "Figure 4c, §4.2.3", 0.005,
          lambda r: all(r.measured("figure4c", f"2020 {p}") < r.measured("figure4c", "2020 overall")
                        for p in _PROVIDERS)),
    Claim("Google's B-Root junk does not grow from 2019 to 2020", "Figure 4c, §4.2.3", 0.03,
          lambda r: r.measured("figure4c", "2020 Google") <= r.measured("figure4c", "2019 Google") + 0.02),
    # Tables 4 and 7 — Google Public DNS.
    Claim("Public DNS sends 75-97% of Google's w2020 ccTLD queries", "Table 4", 0.005,
          lambda r: all(0.75 < r.measured("table4", f".{v} ratio public (queries)") < 0.97
                        for v in ("nl", "nz"))),
    Claim("Public DNS holds < 40% of Google's w2020 ccTLD resolvers", "Table 4", 0.2,
          lambda r: all(r.measured("table4", f".{v} ratio public (resolvers)") < 0.40
                        for v in ("nl", "nz"))),
    Claim("Public DNS's query share is > 1.8x its resolver share", "Table 4", 0.2,
          lambda r: all(r.measured("table4", f".{v} ratio public (queries)")
                        > 1.8 * r.measured("table4", f".{v} ratio public (resolvers)")
                        for v in ("nl", "nz"))),
    Claim("Public DNS's w2020 query share at .nl and .nz is within 10 points", "Table 4", 0.005,
          lambda r: abs(r.measured("table4", ".nl ratio public (queries)")
                        - r.measured("table4", ".nz ratio public (queries)")) < 0.10),
    Claim("Public DNS sends 70-97% of Google's w2019 ccTLD queries", "Table 7", 0.005,
          lambda r: all(0.70 < r.measured("table7", f".{v} ratio public (queries)") < 0.97
                        for v in ("nl", "nz"))),
    # Table 5 — IP family and transport (section 4.3).
    Claim("Microsoft's w2020 .nl queries are >= 99% IPv4", "Table 5, §4.3", 0.005,
          lambda r: r.measured("table5-nl-2020", "Microsoft IPv4") >= 0.99),
    Claim("Microsoft's w2020 .nl queries are <= 1% TCP", "Table 5, §4.3", 0.005,
          lambda r: r.measured("table5-nl-2020", "Microsoft TCP") <= 0.01),
    Claim("Amazon's w2020 .nl queries are > 90% IPv4", "Table 5, §4.3", 0.005,
          lambda r: r.measured("table5-nl-2020", "Amazon IPv4") > 0.9),
    Claim("Google and Cloudflare split w2020 .nl queries 30-65% IPv6", "Table 5, §4.3", 0.005,
          lambda r: all(0.3 < r.measured("table5-nl-2020", f"{p} IPv6") < 0.65
                        for p in ("Google", "Cloudflare"))),
    Claim("Google and Cloudflare send < 5% of w2020 .nl queries over TCP", "Table 5, §4.3", 0.005,
          lambda r: all(r.measured("table5-nl-2020", f"{p} TCP") < 0.05
                        for p in ("Google", "Cloudflare"))),
    Claim("Facebook's w2020 .nl queries are majority IPv6", "Table 5, §4.3", 0.005,
          lambda r: r.measured("table5-nl-2020", "Facebook IPv6") > 0.5),
    Claim("Facebook sends > 5% of w2020 .nl queries over TCP", "Table 5, §4.3", 0.005,
          lambda r: r.measured("table5-nl-2020", "Facebook TCP") > 0.05),
    Claim("Facebook's .nl IPv6 share grows > 10 points from 2018 to 2019", "Table 5, §4.3", 0.005,
          lambda r: r.measured("table5-nl-2019", "Facebook IPv6")
          > r.measured("table5-nl-2018", "Facebook IPv6") + 0.1),
    Claim("Amazon's w2018 .nl queries are <= 1% IPv6", "Table 5, §4.3", 0.005,
          lambda r: r.measured("table5-nl-2018", "Amazon IPv6") <= 0.01),
    Claim("Amazon's .nl IPv6 share does not fall from 2018 to 2020", "Table 5, §4.3", 0.005,
          lambda r: r.measured("table5-nl-2020", "Amazon IPv6")
          >= r.measured("table5-nl-2018", "Amazon IPv6")),
    Claim("Microsoft's .nl queries are <= 1% IPv6 every year", "Table 5, §4.3", 0.005,
          lambda r: all(r.measured(f"table5-nl-{y}", "Microsoft IPv6") <= 0.01 for y in _YEARS)),
    Claim("Microsoft's w2020 .nz queries are >= 99% IPv4", "Table 5, §4.3", 0.005,
          lambda r: r.measured("table5-nz-2020", "Microsoft IPv4") >= 0.99),
    Claim("Facebook's w2020 .nz queries are majority IPv6", "Table 5, §4.3", 0.005,
          lambda r: r.measured("table5-nz-2020", "Facebook IPv6") > 0.5),
    Claim("Facebook sends > 5% of w2020 .nz queries over TCP", "Table 5, §4.3", 0.005,
          lambda r: r.measured("table5-nz-2020", "Facebook TCP") > 0.05),
    # Table 6 — resolver inventories (section 4.3).
    Claim("Amazon and Microsoft each show > 50 resolvers per ccTLD", "Table 6, §4.3", 0.03,
          lambda r: all(r.measured("table6", f"{p} .{v} total") > 50
                        for p in TABLE6 for v in ("nl", "nz"))),
    Claim("< 12% of Amazon's and Microsoft's resolvers are IPv6", "Table 6, §4.3", 0.005,
          lambda r: all(r.measured("table6", f"{p} .{v} IPv6 fraction") < 0.12
                        for p in TABLE6 for v in ("nl", "nz"))),
    Claim("Amazon's .nl IPv6 address share is within 6 points of its IPv6 traffic share",
          "Tables 5-6, §4.3", 0.005,
          lambda r: abs(r.measured("table6", "Amazon .nl IPv6 fraction")
                        - r.measured("table5-nl-2020", "Amazon IPv6")) < 0.06),
    # Figures 5 and 8 — Facebook's sites and RTT (section 4.3).
    Claim("all 13 Facebook sites are identified by reverse DNS", "Figure 5, §4.3", 0.2,
          lambda r: r.measured("figure5", "sites identified") == FIGURE5["sites_total"]),
    Claim("Facebook's site 1 dominates Server A's volume", "Figure 5, §4.3", 0.005,
          lambda r: r.measured("figure5", "dominant site") == FIGURE5["dominant_site"]),
    Claim("Facebook's site 1 sends no TCP", "Figure 5, §4.3", 0.005,
          lambda r: r.measured("figure5", "site 1 sends TCP") == "no"),
    Claim("sites with an IPv6 RTT penalty send < 45% IPv6 (>= 10 queries)", "Figure 5, §4.3", 0.2,
          lambda r: _pool_prefers(r, _PENALISED, v6=False)),
    Claim("sites without an IPv6 RTT penalty send > 45% IPv6 (>= 10 queries)", "Figure 5, §4.3", 0.005,
          lambda r: _pool_prefers(r, _UNPENALISED, v6=True)),
    Claim("unpenalised sites' IPv6 share exceeds penalised sites' by > 20 points",
          "Figure 5, §4.3", 0.2, _rtt_preference_gap),
    Claim("> 10 dual-stack Facebook hosts are joined by PTR", "Figure 5, §4.3", 0.2,
          lambda r: r.measured("figure5", "dual-stack hosts (PTR join)") > 10),
    Claim("penalised sites send < 50% IPv6 to Server B", "Figure 8, appendix B", 0.03,
          _figure8_penalised_prefer_v4),
    # Figure 6 — EDNS0 sizes and truncation (section 4.4).
    Claim("15-55% of Facebook's UDP queries advertise <= 512 octets", "Figure 6, §4.4", 0.005,
          lambda r: 0.15 < r.measured("figure6", "Facebook CDF @512") < 0.55),
    Claim("< 2% of Google's UDP queries advertise <= 512 octets", "Figure 6, §4.4", 0.005,
          lambda r: dict(r.series("figure6", "google_cdf")).get(512, 0.0) < 0.02),
    Claim("Google's and Microsoft's CDFs at 1232 octets are within 20 points", "Figure 6, §4.4", 0.005,
          lambda r: abs(r.measured("figure6", "Google CDF @1232")
                        - r.measured("figure6", "Microsoft CDF @1232")) < 0.20),
    Claim("> 5% of Facebook's UDP answers are truncated", "Figure 6, §4.4", 0.005,
          lambda r: r.measured("figure6", "Facebook truncated UDP answers") > 0.05),
    Claim("< 1% of Google's UDP answers are truncated", "Figure 6, §4.4", 0.005,
          lambda r: r.measured("figure6", "Google truncated UDP answers") < 0.01),
    Claim("< 1% of Microsoft's UDP answers are truncated", "Figure 6, §4.4", 0.005,
          lambda r: r.measured("figure6", "Microsoft truncated UDP answers") < 0.01),
    Claim("Facebook's truncation is > 10x Google's", "Figure 6, §4.4", 0.005,
          lambda r: r.measured("figure6", "Facebook truncated UDP answers")
          > 10 * max(r.measured("figure6", "Google truncated UDP answers"), 1e-4)),
    Claim("Facebook sends > 5% of its .nl queries over TCP", "Figure 6, §4.4", 0.005,
          lambda r: r.measured("figure6", "Facebook TCP share (consequence)") > 0.05),
    # Extension: concentration indices.
    Claim("the five providers carry > 25% of .nl in 2020", "extension: concentration", 0.005,
          lambda r: r.measured("ext-concentration-nl", "2020 5-provider group share") > 0.25),
    Claim("the five providers carry < 18% of B-Root in 2020", "extension: concentration", 0.005,
          lambda r: r.measured("ext-concentration-root", "2020 5-provider group share") < 0.18),
    Claim("the five providers' .nl share is > 2x B-Root's in 2020", "extension: concentration", 0.005,
          lambda r: r.measured("ext-concentration-nl", "2020 5-provider group share")
          > 2 * r.measured("ext-concentration-root", "2020 5-provider group share")),
    Claim("per-AS traffic has a 2020 Gini > 0.5 at every vantage", "extension: concentration", 0.005,
          lambda r: all(r.measured(f"ext-concentration-{v}", "2020 Gini") > 0.5
                        for v in ("nl", "nz", "root"))),
    Claim("CR-20 exceeds CR-5 in 2020 at every vantage", "extension: concentration", 0.005,
          lambda r: all(r.measured(f"ext-concentration-{v}", "2020 CR-20 (ASes)")
                        > r.measured(f"ext-concentration-{v}", "2020 CR-5 (ASes)")
                        for v in ("nl", "nz", "root"))),
    Claim("the top 20 ASes send > 30% of .nl queries in 2020", "extension: concentration", 0.005,
          lambda r: r.measured("ext-concentration-nl", "2020 CR-20 (ASes)") > 0.3),
    Claim("the five providers' .nl share falls < 3 points from 2018 to 2020",
          "extension: concentration", None,
          lambda r: r.series("ext-concentration-nl", "group")[-1]
          >= r.series("ext-concentration-nl", "group")[0] - 0.03),
    Claim("the five providers' B-Root share does not fall from 2018 to 2020",
          "extension: concentration", 0.005,
          lambda r: r.series("ext-concentration-root", "group")[-1]
          >= r.series("ext-concentration-root", "group")[0]),
    # Extension: B-Root's RSSAC002-style report.
    Claim("B-Root's 2020 queries are > 50% NXDOMAIN", "extension: RSSAC002", 0.005,
          lambda r: r.measured("ext-rssac", "2020 NXDOMAIN share") > 0.5),
    Claim("B-Root's NXDOMAIN share falls < 2 points from 2018 to 2020", "extension: RSSAC002", 0.005,
          lambda r: r.measured("ext-rssac", "2020 NXDOMAIN share")
          > r.measured("ext-rssac", "2018 NXDOMAIN share") - 0.02),
    Claim("B-Root's queries are > 97% UDP every year", "extension: RSSAC002", None,
          lambda r: all(r.measured("ext-rssac", f"{y} UDP share") > 0.97 for y in _YEARS)),
    Claim("B-Root's query volume grows from 2018 to 2020", "extension: RSSAC002", 0.005,
          lambda r: r.measured("ext-rssac", "2020 total queries")
          > r.measured("ext-rssac", "2018 total queries")),
    Claim("B-Root's peak unique sources grow from 2018 to 2020", "extension: RSSAC002", 0.005,
          lambda r: r.measured("ext-rssac", "2020 peak unique sources")
          > r.measured("ext-rssac", "2018 peak unique sources")),
    # Extension: outages of the .nl NS set.
    Claim("with every .nl NS up, < 1% of lookups SERVFAIL", "extension: outage", 0.005,
          lambda r: _outage(r, "servfail")[0] < 0.01),
    Claim("with one .nl NS down, < 1% of lookups SERVFAIL", "extension: outage", 0.005,
          lambda r: _outage(r, "servfail")[1] < 0.01),
    Claim("with every .nl NS down, > 50% of lookups SERVFAIL", "extension: outage", 0.005,
          lambda r: _outage(r, "servfail")[max(_outage(r, "servfail"))] > 0.5),
    Claim("a full .nl outage SERVFAILs more than none", "extension: outage", 0.005,
          lambda r: _outage(r, "servfail")[max(_outage(r, "servfail"))] > _outage(r, "servfail")[0]),
    Claim("retry load grows as .nl NSes go dark", "extension: outage", 0.005,
          lambda r: _outage(r, "retry_load")[max(_outage(r, "retry_load")) - 1]
          > _outage(r, "retry_load")[0]),
)

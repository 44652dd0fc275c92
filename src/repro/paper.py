"""The paper's published numbers, each stated once.

Keyed by artefact and cell.  Two kinds of reader use them: the fleet
profiles (:mod:`repro.clouds.profiles`, :mod:`repro.clouds.fleets`) where a
simulator input *is* a published cell, and the experiment reports, whose
``paper`` column prints them beside what the simulation produced.  A cell
read by both is an input the simulator was told, not a result it
reproduced.

Pure data: nothing here imports from the package.
"""

from __future__ import annotations

from typing import Dict, Tuple

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

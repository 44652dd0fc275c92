"""Geographic site and latency model.

The paper's Figure 5 correlates Facebook's per-site IPv6/IPv4 preference with
the median TCP-handshake RTT each site observes toward the `.nl`
authoritatives.  To reproduce that mechanism we need a latency substrate:
sites placed on the globe and propagation delay from great-circle distance,
stretched by :data:`DEFAULT_PATH_STRETCH` and padded by
:data:`PER_PATH_OVERHEAD_MS`.  Real networks routinely have asymmetric
v4/v6 paths, the root cause of the paper's observation; the model keeps
that asymmetry in one place, the resolver's ``v6_extra_rtt_ms``.

Sites are identified by IATA airport codes — the convention Facebook's PTR
records embed and that the paper's reverse-DNS analysis extracts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

#: Effective propagation speed in fibre, as fraction of c (~200 km/ms).
FIBRE_KM_PER_MS = 200.0

#: Path-stretch factor: real routes are not great circles.
DEFAULT_PATH_STRETCH = 1.6

#: Fixed per-hop processing overhead added to every one-way path (ms).
PER_PATH_OVERHEAD_MS = 2.0


@dataclass(frozen=True)
class Site:
    """A physical location, named by its IATA airport code."""

    code: str
    latitude: float
    longitude: float
    country: str = "ZZ"

    def __post_init__(self):
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude out of range for {self.code}")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError(f"longitude out of range for {self.code}")


#: A small gazetteer of sites used by the built-in scenarios.  Codes and
#: coordinates are real airports; the set covers the regions the paper's
#: vantage points and cloud sites live in.
GAZETTEER: Dict[str, Site] = {
    s.code: s
    for s in [
        Site("AMS", 52.31, 4.76, "NL"),
        Site("LHR", 51.47, -0.45, "GB"),
        Site("FRA", 50.03, 8.57, "DE"),
        Site("CDG", 49.01, 2.55, "FR"),
        Site("ARN", 59.65, 17.92, "SE"),
        Site("MAD", 40.47, -3.56, "ES"),
        Site("MXP", 45.63, 8.72, "IT"),
        Site("IAD", 38.94, -77.46, "US"),
        Site("ORD", 41.97, -87.91, "US"),
        Site("DFW", 32.90, -97.04, "US"),
        Site("SJC", 37.36, -121.93, "US"),
        Site("SEA", 47.45, -122.31, "US"),
        Site("ATL", 33.64, -84.43, "US"),
        Site("MIA", 25.79, -80.29, "US"),
        Site("LAX", 33.94, -118.41, "US"),
        Site("GRU", -23.44, -46.47, "BR"),
        Site("SCL", -33.39, -70.79, "CL"),
        Site("JNB", -26.14, 28.25, "ZA"),
        Site("BOM", 19.09, 72.87, "IN"),
        Site("DEL", 28.57, 77.10, "IN"),
        Site("SIN", 1.36, 103.99, "SG"),
        Site("HKG", 22.31, 113.91, "HK"),
        Site("NRT", 35.76, 140.39, "JP"),
        Site("ICN", 37.46, 126.44, "KR"),
        Site("SYD", -33.95, 151.18, "AU"),
        Site("MEL", -37.67, 144.84, "AU"),
        Site("AKL", -37.01, 174.79, "NZ"),
        Site("WLG", -41.33, 174.81, "NZ"),
        Site("CHC", -43.49, 172.53, "NZ"),
        Site("DUB", 53.42, -6.27, "IE"),
        Site("WAW", 52.17, 20.97, "PL"),
        Site("VIE", 48.11, 16.57, "AT"),
        Site("JKT", -6.13, 106.66, "ID"),
    ]
}


def great_circle_km(a: Site, b: Site) -> float:
    """Great-circle distance between two sites (haversine, km)."""
    lat1, lon1 = math.radians(a.latitude), math.radians(a.longitude)
    lat2, lon2 = math.radians(b.latitude), math.radians(b.longitude)
    dlat, dlon = lat2 - lat1, lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2 * 6371.0 * math.asin(min(1.0, math.sqrt(h)))


class LatencyModel:
    """Computes round-trip times between sites.

    RTT = 2 × (distance × :data:`DEFAULT_PATH_STRETCH` / fibre speed
    + :data:`PER_PATH_OVERHEAD_MS`), the same for both address families.
    The one IPv6 path delay in the model is the resolver's own
    ``ResolverBehavior.v6_extra_rtt_ms`` (paper section 4.3: Facebook
    locations 8–10 see much larger IPv6 RTTs and therefore prefer IPv4).
    """

    def __init__(self):
        self._rtt_cache: Dict[Tuple[str, str], float] = {}

    def rtt_ms(self, src: Site, dst: Site) -> float:
        """Round-trip time in milliseconds (memoised by site codes)."""
        key = (src.code, dst.code)
        rtt = self._rtt_cache.get(key)
        if rtt is None:
            one_way = great_circle_km(src, dst) * DEFAULT_PATH_STRETCH / FIBRE_KM_PER_MS
            rtt = self._rtt_cache[key] = 2.0 * (one_way + PER_PATH_OVERHEAD_MS)
        return rtt


def nearest_site(client: Site, candidates: Sequence[Site]) -> Site:
    """Anycast catchment approximation: the geographically closest site wins.

    BGP catchments are not strictly geographic, but distance is the
    first-order effect and suffices for the RTT-shape experiments.
    """
    if not candidates:
        raise ValueError("no candidate sites")
    return min(candidates, key=lambda site: great_circle_km(client, site))

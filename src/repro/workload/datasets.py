"""Dataset descriptors: the paper's nine collection snapshots (Table 2/3)
plus the monthly Google runs behind Figure 3.

Every descriptor pins the simulation's shape for one capture: the vantage
zone and its authoritative-server deployment (how many servers, which are
anycast, which support capture), the collection window, the client-side
query volume (scaled), and the declared scale factors that relate simulated
counts back to the paper's absolute numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..faults import FaultPlan
from ..netsim import utc_timestamp

WEEK_SECONDS = 7 * 86400.0
DAY_SECONDS = 86400.0


@dataclass(frozen=True)
class ServerSpec:
    """One authoritative server in a vantage's NS set."""

    server_id: str
    site_codes: Tuple[str, ...]
    captured: bool
    anycast: bool = True


@dataclass(frozen=True)
class DatasetDescriptor:
    """One capture snapshot (a row of the paper's Table 3)."""

    dataset_id: str            #: e.g. "nl-w2020"
    vantage: str               #: "nl" | "nz" | "root"
    year: int
    start: float               #: epoch seconds, UTC
    duration: float            #: seconds of capture
    servers: Tuple[ServerSpec, ...]
    client_queries: int        #: simulated client-side query volume
    zone_second_level: int     #: synthetic zone size (second-level)
    zone_third_level: int = 0
    #: paper-reported values for side-by-side reporting:
    paper_queries_total: float = 0.0      # billions
    paper_queries_valid: float = 0.0      # billions
    paper_resolvers: float = 0.0          # millions
    paper_ases: int = 0
    paper_zone_size: str = ""
    cyclic_event: bool = False            #: Feb-2020 .nz misconfiguration
    providers_only: Optional[Tuple[str, ...]] = None  #: restrict fleets
    qmin_override: Optional[bool] = None  #: force Q-min (monthly runs)
    #: Optional chaos schedule (see :mod:`repro.faults`); ``None`` — and a
    #: disabled plan — keep the loss-free, always-up network of the seed.
    fault_plan: Optional[FaultPlan] = None

    @property
    def zone_total(self) -> int:
        return self.zone_second_level + self.zone_third_level


# -- .nl: servers per Table 2 (4 anycast servers in 2018/19, 3 in 2020; two
#    captured throughout).  Site lists approximate "a dozen global sites".

_NL_SITES_A = ("AMS", "FRA", "IAD", "SIN", "GRU")
_NL_SITES_B = ("LHR", "ORD", "NRT", "SYD", "JNB", "MAD")
_NL_SITES_C = ("CDG", "MIA", "HKG")
_NL_SITES_D = ("ARN", "DFW", "ICN")

def _nl_servers(year: int) -> Tuple[ServerSpec, ...]:
    servers = [
        ServerSpec("nl-a", _NL_SITES_A, captured=True),
        ServerSpec("nl-b", _NL_SITES_B, captured=True),
        ServerSpec("nl-c", _NL_SITES_C, captured=False),
    ]
    if year < 2020:
        servers.append(ServerSpec("nl-d", _NL_SITES_D, captured=False))
    return tuple(servers)


# -- .nz: 6 anycast + 1 unicast; one anycast server not captured.

def _nz_servers() -> Tuple[ServerSpec, ...]:
    anycast_sites = (
        ("AKL", "SYD", "LAX"),
        ("WLG", "MEL", "LHR"),
        ("AKL", "SIN", "IAD"),
        ("CHC", "SYD", "AMS"),
        ("AKL", "NRT", "FRA"),
        ("WLG", "SJC", "HKG"),
    )
    servers = [
        ServerSpec(f"nz-{chr(ord('a') + i)}", sites, captured=(i != 5))
        for i, sites in enumerate(anycast_sites)
    ]
    servers.append(ServerSpec("nz-u", ("WLG",), captured=True, anycast=False))
    return tuple(servers)


# -- B-Root: one server identity, growing anycast footprint.

_BROOT_SITES = {
    2018: ("LAX", "MIA"),
    2019: ("LAX", "MIA", "AMS"),
    2020: ("LAX", "MIA", "AMS", "SIN", "NRT", "IAD"),
}


def _broot_servers(year: int) -> Tuple[ServerSpec, ...]:
    return (ServerSpec("b-root", _BROOT_SITES[year], captured=True),)


#: Scale declarations (documented in EXPERIMENTS.md): one simulated client
#: query stands for ~40k real queries; one simulated zone entry for ~1.5k
#: real domains; one simulated resolver for ~500 real resolver addresses.
QUERY_SCALE = 40_000
ZONE_SCALE = 1_500
RESOLVER_SCALE = 500

PAPER_DATASETS: Dict[str, DatasetDescriptor] = {}


def _add(descriptor: DatasetDescriptor) -> None:
    PAPER_DATASETS[descriptor.dataset_id] = descriptor


_add(DatasetDescriptor(
    "nl-w2018", "nl", 2018, utc_timestamp(2018, 11, 4), WEEK_SECONDS,
    _nl_servers(2018), client_queries=110_000, zone_second_level=3900,
    paper_queries_total=7.29, paper_queries_valid=6.53,
    paper_resolvers=2.09, paper_ases=41276, paper_zone_size="5.8M",
))
_add(DatasetDescriptor(
    "nl-w2019", "nl", 2019, utc_timestamp(2019, 11, 3), WEEK_SECONDS,
    _nl_servers(2019), client_queries=150_000, zone_second_level=3900,
    paper_queries_total=10.16, paper_queries_valid=9.05,
    paper_resolvers=2.18, paper_ases=42727, paper_zone_size="5.8M",
))
_add(DatasetDescriptor(
    "nl-w2020", "nl", 2020, utc_timestamp(2020, 4, 5), WEEK_SECONDS,
    _nl_servers(2020), client_queries=185_000, zone_second_level=3950,
    paper_queries_total=13.75, paper_queries_valid=11.88,
    paper_resolvers=1.99, paper_ases=41716, paper_zone_size="5.9M",
))
_add(DatasetDescriptor(
    "nz-w2018", "nz", 2018, utc_timestamp(2018, 11, 4), WEEK_SECONDS,
    _nz_servers(), client_queries=75_000, zone_second_level=95, zone_third_level=385,
    paper_queries_total=2.95, paper_queries_valid=2.00,
    paper_resolvers=1.28, paper_ases=37623, paper_zone_size="720K",
))
_add(DatasetDescriptor(
    "nz-w2019", "nz", 2019, utc_timestamp(2019, 11, 3), WEEK_SECONDS,
    _nz_servers(), client_queries=88_000, zone_second_level=94, zone_third_level=380,
    paper_queries_total=3.48, paper_queries_valid=2.81,
    paper_resolvers=1.42, paper_ases=39601, paper_zone_size="710K",
))
_add(DatasetDescriptor(
    "nz-w2020", "nz", 2020, utc_timestamp(2020, 4, 5), WEEK_SECONDS,
    _nz_servers(), client_queries=115_000, zone_second_level=94, zone_third_level=380,
    paper_queries_total=4.57, paper_queries_valid=3.03,
    paper_resolvers=1.31, paper_ases=38505, paper_zone_size="710K",
))
_add(DatasetDescriptor(
    "root-2018", "root", 2018, utc_timestamp(2018, 4, 10), DAY_SECONDS,
    _broot_servers(2018), client_queries=90_000, zone_second_level=0,
    paper_queries_total=2.68, paper_queries_valid=0.93,
    paper_resolvers=4.23, paper_ases=45210, paper_zone_size="~1.5K TLDs",
))
_add(DatasetDescriptor(
    "root-2019", "root", 2019, utc_timestamp(2019, 4, 9), DAY_SECONDS,
    _broot_servers(2019), client_queries=125_000, zone_second_level=0,
    paper_queries_total=4.13, paper_queries_valid=1.43,
    paper_resolvers=4.13, paper_ases=48154, paper_zone_size="~1.5K TLDs",
))
_add(DatasetDescriptor(
    "root-2020", "root", 2020, utc_timestamp(2020, 5, 6), DAY_SECONDS,
    _broot_servers(2020), client_queries=190_000, zone_second_level=0,
    paper_queries_total=6.70, paper_queries_valid=1.34,
    paper_resolvers=6.01, paper_ases=51820, paper_zone_size="~1.5K TLDs",
))


def dataset(dataset_id: str) -> DatasetDescriptor:
    """Look up a paper dataset by id (e.g. ``"nl-w2020"``)."""
    return PAPER_DATASETS[dataset_id]


def datasets_for_vantage(vantage: str) -> List[DatasetDescriptor]:
    """The three yearly snapshots of one vantage, oldest first."""
    return sorted(
        (d for d in PAPER_DATASETS.values() if d.vantage == vantage),
        key=lambda d: d.year,
    )


#: Months of the Figure 3 longitudinal study (Google only), spanning the
#: Q-min rollout (Dec 2019) and the .nz cyclic-dependency event (Feb 2020).
FIGURE3_MONTHS: Tuple[Tuple[int, int], ...] = (
    (2019, 7), (2019, 8), (2019, 9), (2019, 10), (2019, 11), (2019, 12),
    (2020, 1), (2020, 2), (2020, 3), (2020, 4),
)


def monthly_google_descriptor(vantage: str, year: int, month: int) -> DatasetDescriptor:
    """A one-week Google-only sample standing in for one month of Figure 3.

    Q-min follows :func:`repro.clouds.profiles.google_qmin_by_month`; the
    Feb-2020 `.nz` run carries the cyclic-dependency misconfiguration.
    """
    from ..clouds.profiles import google_qmin_by_month

    base = dataset(f"{vantage}-w2020")
    return DatasetDescriptor(
        dataset_id=f"{vantage}-google-{year}-{month:02d}",
        vantage=vantage,
        year=2020 if (year, month) >= (2019, 12) else 2019,
        start=utc_timestamp(year, month, 3),
        duration=WEEK_SECONDS,
        servers=base.servers if vantage == "nz" else _nl_servers(2020 if year == 2020 else 2019),
        client_queries=22_000,
        zone_second_level=base.zone_second_level,
        zone_third_level=base.zone_third_level,
        cyclic_event=(vantage == "nz" and (year, month) == (2020, 2)),
        providers_only=("Google",),
        qmin_override=google_qmin_by_month(year, month),
    )

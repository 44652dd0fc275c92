"""Fleet construction: turning provider profiles into resolver populations.

Builds, for one (vantage, year) scenario:

* the five cloud-provider fleets (pools of :class:`SimResolver` with
  addresses drawn from the providers' announced prefixes),
* a heavy-tailed background population of ISP/hoster resolvers spread over
  thousands of synthetic ASes, and
* the :class:`~repro.netsim.asregistry.ASRegistry` that the analysis side
  uses to attribute captured source addresses back to operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..netsim import ASInfo, ASRegistry, GAZETTEER, IPAddress, Prefix
from ..paper import FIGURE1, TABLE5
from ..resolver import ResolverBehavior, SimResolver
from .profiles import (
    AS_PREFIXES,
    CAPTURE_AMPLIFICATION,
    YEAR_AMPLIFICATION,
    BUFSIZE_CHOICES,
    FACEBOOK_SITES,
    GOOGLE_PUBLIC_DNS_PREFIXES,
    GOOGLE_PUBLIC_RESOLVER_FRACTION,
    GOOGLE_PUBLIC_SHARE,
    JUNK_FRACTION,
    PROVIDER_SITES,
    PROVIDERS,
    RESOLVER_POPULATION,
    provider_prefixes,
    qmin_enabled,
    registered_as_infos,
)


@dataclass
class FleetResolver:
    """One resolver plus the workload metadata the driver needs."""

    resolver: SimResolver
    provider: str          #: "Google" … "Cloudflare", or "Background".
    pool: str
    weight: float          #: relative share of client queries.
    junk_fraction: float   #: fraction of its client queries that are junk.
    is_public_dns: bool = False
    site_index: int = 0    #: Facebook location number (0 = n/a).


#: The host index :class:`AddressAllocator` starts each prefix at.
FIRST_HOST = 10


class AddressAllocator:
    """Hands out sequential host addresses from a list of prefixes,
    round-robin across prefixes so every announced range appears in the
    capture."""

    def __init__(self, prefixes: Sequence[Prefix]):
        if not prefixes:
            raise ValueError("no prefixes to allocate from")
        self._prefixes = list(prefixes)
        self._next = [FIRST_HOST] * len(self._prefixes)
        self._cursor = 0

    @staticmethod
    def capacity(prefix: Prefix) -> int:
        """How many addresses :meth:`allocate` hands out of one prefix."""
        return prefix.num_hosts() - 1 - FIRST_HOST

    def allocate(self) -> IPAddress:
        for __ in range(len(self._prefixes)):
            index = self._cursor
            self._cursor = (self._cursor + 1) % len(self._prefixes)
            prefix = self._prefixes[index]
            if self._next[index] < prefix.num_hosts() - 1:
                address = prefix.host(self._next[index])
                self._next[index] += 1
                return address
        raise RuntimeError("address pool exhausted")


def _family_split(prefixes: Sequence[Prefix]) -> Tuple[List[Prefix], List[Prefix]]:
    v4 = [p for p in prefixes if p.family == 4]
    v6 = [p for p in prefixes if p.family == 6]
    return v4, v6


def build_registry(background_ases: Sequence[Tuple[ASInfo, List[Prefix]]] = ()) -> ASRegistry:
    """Registry with the 20 Table 1 ASes plus any background ASes."""
    registry = ASRegistry()
    for info in registered_as_infos():
        registry.register(info)
        for text in AS_PREFIXES[info.asn]:
            registry.announce(info.asn, Prefix.parse(text))
    for info, prefixes in background_ases:
        registry.register(info)
        for prefix in prefixes:
            registry.announce(info.asn, prefix)
    return registry


def _resolver_count(provider: str, vantage: str, year: int) -> Tuple[int, float]:
    """(machine count, ipv6 address fraction) for a provider fleet.

    Table 4/6 pins w2020; earlier years are scaled back (fleets grow), and
    the root vantage sees a slightly smaller slice of each fleet.
    """
    key = (provider, "nl" if vantage == "root" else vantage, 2020)
    base_count, v6_fraction = RESOLVER_POPULATION[key]
    year_scale = {2018: 0.75, 2019: 0.9, 2020: 1.0}[year]
    # Root captures are one day, not one week: only a slice of each fleet
    # shows up, and keeping that slice small also keeps per-resolver fixed
    # costs (DNSKEY refreshes) from dominating the small CP samples.
    vantage_scale = 0.35 if vantage == "root" else 1.0
    if year < 2019:
        # IPv6 adoption inside fleets also grew (Table 5 year trend).
        v6_fraction *= 0.5
    return max(4, int(base_count * year_scale * vantage_scale)), v6_fraction


#: How often each validating fleet issues *explicit* DS queries per
#: referral (revalidation); Cloudflare's DS-heavy profile is Figure 2d.
EXPLICIT_DS_PROBABILITY: Dict[str, float] = {
    "Google": 0.12,
    "Amazon": 0.10,
    "Microsoft": 0.0,
    "Facebook": 0.15,
    "Cloudflare": 0.60,
}


def _v6_query_ratio(provider: str, vantage: str, year: int) -> float:
    """Table 5's IPv6 query share of a provider (the root reads .nl's).
    Facebook's fleet never asks: its family split emerges from per-site
    RTTs."""
    return TABLE5[(provider, "nl" if vantage == "root" else vantage, year)][1]


def _behavior_for(
    provider: str, vantage: str, year: int, bufsize: int, validating: bool
) -> ResolverBehavior:
    """Base behaviour for a provider's pool members."""
    v6_ratio = _v6_query_ratio(provider, vantage, year)
    return ResolverBehavior(
        qname_minimization=qmin_enabled(provider, vantage, year),
        validates_dnssec=validating,
        explicit_ds_probability=EXPLICIT_DS_PROBABILITY[provider],
        set_do=validating,
        edns_bufsize=bufsize,
        family_policy="fixed",
        fixed_v6_ratio=v6_ratio,
        aggressive_nsec=validating and year >= 2020,
    )


def _sample_bufsize(rng: np.random.Generator, provider: str) -> int:
    choices = BUFSIZE_CHOICES[provider]
    sizes = [size for size, __ in choices]
    probs = np.array([p for __, p in choices], dtype=float)
    return int(sizes[int(rng.choice(len(sizes), p=probs / probs.sum()))])


def _lognormal_weights(rng: np.random.Generator, count: int, sigma: float = 1.0) -> np.ndarray:
    """Per-resolver busyness skew (some resolver egresses are far busier)."""
    weights = rng.lognormal(mean=0.0, sigma=sigma, size=count)
    return weights / weights.sum()


def build_provider_fleet(
    provider: str, vantage: str, year: int, seed: int
) -> List[FleetResolver]:
    """Build one provider's resolver fleet for a (vantage, year) scenario."""
    if provider == "Facebook":
        return _build_facebook_fleet(vantage, year, seed)
    if provider == "Google":
        return _build_google_fleet(vantage, year, seed)
    return _build_generic_fleet(provider, vantage, year, seed)


def _build_generic_fleet(
    provider: str, vantage: str, year: int, seed: int
) -> List[FleetResolver]:
    """Amazon / Microsoft / Cloudflare: one pool spread over the provider's
    cloud regions, with a dual-stack sub-population sized from Table 6."""
    rng = np.random.default_rng(seed)
    count, v6_fraction = _resolver_count(provider, vantage, year)
    v4_alloc = AddressAllocator(_family_split(provider_prefixes(provider))[0])
    v6_prefixes = _family_split(provider_prefixes(provider))[1]
    v6_alloc = AddressAllocator(v6_prefixes) if v6_prefixes else None
    sites = PROVIDER_SITES[provider]
    validating = _validates(provider)
    junk = JUNK_FRACTION[(provider, year)]
    weights = _lognormal_weights(rng, count)
    total_share = FIGURE1[(vantage, year)][provider] / (
        CAPTURE_AMPLIFICATION[provider] * YEAR_AMPLIFICATION[year]
    )

    fleet: List[FleetResolver] = []
    dual_count = int(round(count * v6_fraction))
    for index in range(count):
        dual = index < dual_count and v6_alloc is not None
        bufsize = _sample_bufsize(rng, provider)
        behavior = _behavior_for(provider, vantage, year, bufsize, validating)
        if not dual:
            behavior = ResolverBehavior(
                **{**behavior.__dict__, "family_policy": "v4only"}
            )
        else:
            # Dual-stack machines carry the provider's whole v6 query share.
            ratio = _v6_query_ratio(provider, vantage, year)
            # Floor keeps rarely-v6 fleets (Microsoft) visible in the
            # resolver inventory while their v6 *traffic* rounds to zero.
            pooled = max(0.05, min(0.95, ratio * count / max(dual_count, 1)))
            behavior = ResolverBehavior(
                **{**behavior.__dict__, "fixed_v6_ratio": pooled}
            )
        resolver = SimResolver(
            resolver_id=f"{provider.lower()}-{vantage}-{index}",
            site=GAZETTEER[sites[index % len(sites)]],
            v4=v4_alloc.allocate(),
            v6=v6_alloc.allocate() if dual else None,
            behavior=behavior,
            seed=seed * 100003 + index,
        )
        fleet.append(
            FleetResolver(
                resolver=resolver,
                provider=provider,
                pool="cloud",
                weight=total_share * float(weights[index]),
                junk_fraction=junk,
            )
        )
    return fleet


def _build_google_fleet(vantage: str, year: int, seed: int) -> List[FleetResolver]:
    """Google: a Public DNS pool (advertised egress ranges, ~86-88% of the
    query volume from ~16% of the addresses — Table 4) plus the rest of the
    cloud/corporate infrastructure."""
    rng = np.random.default_rng(seed)
    count, v6_fraction = _resolver_count("Google", vantage, year)
    vkey = "nl" if vantage == "root" else vantage
    public_fraction = GOOGLE_PUBLIC_RESOLVER_FRACTION.get(vantage, 0.16)
    public_count = max(2, int(round(count * public_fraction)))
    rest_count = count - public_count
    public_share = GOOGLE_PUBLIC_SHARE[(vkey, year)]
    total_share = FIGURE1[(vantage, year)]["Google"] / (
        CAPTURE_AMPLIFICATION["Google"] * YEAR_AMPLIFICATION[year]
    )
    junk = JUNK_FRACTION[("Google", year)]

    public_prefixes = [Prefix.parse(p) for p in GOOGLE_PUBLIC_DNS_PREFIXES]
    pub_v4, pub_v6 = _family_split(public_prefixes)
    rest_prefixes = [
        p for p in provider_prefixes("Google")
        if p.to_text() not in GOOGLE_PUBLIC_DNS_PREFIXES
    ]
    rest_v4, rest_v6 = _family_split(rest_prefixes)

    sites = PROVIDER_SITES["Google"]
    fleet: List[FleetResolver] = []

    pub_weights = _lognormal_weights(rng, public_count, sigma=0.6)
    pub_v4_alloc, pub_v6_alloc = AddressAllocator(pub_v4), AddressAllocator(pub_v6)
    for index in range(public_count):
        bufsize = _sample_bufsize(rng, "Google")
        behavior = _behavior_for("Google", vantage, year, bufsize, validating=True)
        fleet.append(
            FleetResolver(
                resolver=SimResolver(
                    resolver_id=f"google-pub-{vantage}-{index}",
                    site=GAZETTEER[sites[index % len(sites)]],
                    v4=pub_v4_alloc.allocate(),
                    v6=pub_v6_alloc.allocate(),
                    behavior=behavior,
                    seed=seed * 100003 + index,
                ),
                provider="Google",
                pool="public-dns",
                weight=total_share * public_share * float(pub_weights[index]),
                junk_fraction=junk,
                is_public_dns=True,
            )
        )

    rest_weights = _lognormal_weights(rng, rest_count, sigma=0.9)
    rest_v4_alloc, rest_v6_alloc = AddressAllocator(rest_v4), AddressAllocator(rest_v6)
    dual_count = int(round(rest_count * 0.6))
    for index in range(rest_count):
        bufsize = _sample_bufsize(rng, "Google")
        # The non-public infrastructure does not validate aggressively —
        # its bulk is what dilutes Google's DS share (section 4.2.2).
        behavior = _behavior_for("Google", vantage, year, bufsize, validating=False)
        dual = index < dual_count
        if not dual:
            behavior = ResolverBehavior(
                **{**behavior.__dict__, "family_policy": "v4only"}
            )
        fleet.append(
            FleetResolver(
                resolver=SimResolver(
                    resolver_id=f"google-rest-{vantage}-{index}",
                    site=GAZETTEER[sites[(index + 3) % len(sites)]],
                    v4=rest_v4_alloc.allocate(),
                    v6=rest_v6_alloc.allocate() if dual else None,
                    behavior=behavior,
                    seed=seed * 200003 + index,
                ),
                provider="Google",
                pool="cloud",
                weight=total_share * (1.0 - public_share) * float(rest_weights[index]),
                junk_fraction=junk,
            )
        )
    return fleet


def _build_facebook_fleet(vantage: str, year: int, seed: int) -> List[FleetResolver]:
    """Facebook: 13 PTR-identifiable sites (Figure 5).  Every resolver is
    dual-stack with RTT-driven family choice; sites 8-10 carry an IPv6 path
    penalty, and location 1 advertises a large EDNS0 buffer (so it never
    needs TCP — the paper's 'no TCP from location 1' observation)."""
    rng = np.random.default_rng(seed)
    count, __ = _resolver_count("Facebook", vantage, year)
    v4_alloc = AddressAllocator(_family_split(provider_prefixes("Facebook"))[0])
    v6_alloc = AddressAllocator(_family_split(provider_prefixes("Facebook"))[1])
    total_share = FIGURE1[(vantage, year)]["Facebook"] / (
        CAPTURE_AMPLIFICATION["Facebook"] * YEAR_AMPLIFICATION[year]
    )
    junk = JUNK_FRACTION[("Facebook", year)]
    # RTT sensitivity sharpened over the years as Facebook shifted to v6
    # (Table 5: 48% v6 in 2018 → ~80% by 2019/2020).  The bias models the
    # happy-eyeballs-style preference margin given to IPv6.
    v6_bias_ms = {2018: 0.0, 2019: 32.0, 2020: 32.0}[year]

    fleet: List[FleetResolver] = []
    per_site = max(2, count // len(FACEBOOK_SITES))
    for site_spec in FACEBOOK_SITES:
        for index in range(per_site):
            behavior = ResolverBehavior(
                qname_minimization=qmin_enabled("Facebook", vantage, year),
                validates_dnssec=True,
                explicit_ds_probability=EXPLICIT_DS_PROBABILITY["Facebook"],
                set_do=True,
                edns_bufsize=site_spec.bufsize,
                family_policy="rtt",
                rtt_sharpness_ms=18.0,
                v6_extra_rtt_ms=2.0 * site_spec.v6_penalty_ms - v6_bias_ms,
                aggressive_nsec=year >= 2020,
            )
            fleet.append(
                FleetResolver(
                    resolver=SimResolver(
                        resolver_id=f"facebook-{vantage}-loc{site_spec.index}-{index}",
                        site=GAZETTEER[site_spec.code],
                        v4=v4_alloc.allocate(),
                        v6=v6_alloc.allocate(),
                        behavior=behavior,
                        seed=seed * 300007 + site_spec.index * 1009 + index,
                    ),
                    provider="Facebook",
                    pool=f"loc{site_spec.index}",
                    weight=total_share * site_spec.weight / per_site,
                    junk_fraction=junk,
                    site_index=site_spec.index,
                )
            )
    return fleet


def _validates(provider: str) -> bool:
    from .profiles import VALIDATES

    return VALIDATES[provider]


# ---------------------------------------------------------------- background --

#: Background population size per vantage (resolvers, ASes), scaled from
#: Table 3 (≈2M resolvers / 41k ASes at .nl; 6M / 52k at B-Root).
BACKGROUND_POPULATION: Dict[str, Tuple[int, int]] = {
    "nl": (2400, 420),
    "nz": (1600, 380),
    "root": (4200, 520),
}

_BACKGROUND_SITES = (
    "AMS", "LHR", "FRA", "CDG", "ARN", "MAD", "MXP", "WAW", "VIE", "DUB",
    "IAD", "ORD", "DFW", "SJC", "SEA", "ATL", "MIA", "LAX",
    "GRU", "SCL", "JNB", "BOM", "DEL", "SIN", "HKG", "NRT", "ICN",
    "SYD", "MEL", "AKL", "WLG", "CHC", "JKT",
)


def build_background_fleet(
    vantage: str, year: int, seed: int
) -> Tuple[List[FleetResolver], List[Tuple[ASInfo, List[Prefix]]]]:
    """The non-cloud Internet: ISP/hoster resolvers across many ASes.

    Returns the fleet plus the AS registrations (to feed
    :func:`build_registry`).  AS sizes are heavy-tailed; per-year counts
    grow following Table 3's resolver/AS growth.
    """
    rng = np.random.default_rng(seed)
    base_resolvers, base_ases = BACKGROUND_POPULATION[vantage]
    year_scale = {2018: 0.85, 2019: 0.95, 2020: 1.0}[year]
    n_resolvers = int(base_resolvers * year_scale)
    n_ases = int(base_ases * year_scale)

    cp_share = sum(FIGURE1[(vantage, year)].values())
    background_share = 1.0 - cp_share

    # Resolvers per AS: heavy-tailed allocation.
    raw = rng.pareto(1.2, size=n_ases) + 1.0
    per_as = np.maximum(1, (raw / raw.sum() * n_resolvers).astype(int))

    # Behaviour adoption rates by year (Q-min per de Vries et al. 2019;
    # validation and IPv6 adoption trend upward).
    qmin_rate = {2018: 0.05, 2019: 0.15, 2020: 0.35}[year]
    validate_rate = {2018: 0.25, 2019: 0.28, 2020: 0.33}[year]
    dual_rate = {2018: 0.25, 2019: 0.30, 2020: 0.35}[year]
    # Root junk grows over the years: Chromium-based browsers started
    # probing random TLDs (paper section 3 — valid fraction fell from 35%
    # to 20% by the 2020 collection).
    junk = {
        "nl": {2018: 0.14, 2019: 0.15, 2020: 0.16},
        "nz": {2018: 0.33, 2019: 0.30, 2020: 0.34},
        "root": {2018: 0.74, 2019: 0.76, 2020: 0.88},
    }[vantage][year]

    registrations: List[Tuple[ASInfo, List[Prefix]]] = []
    fleet: List[FleetResolver] = []
    weights = _lognormal_weights(rng, int(per_as.sum()), sigma=1.5)
    # Resolvers one background /22 holds (1,013).
    slot_hosts = AddressAllocator.capacity(Prefix(4, 100 << 24, 22))
    cursor = 0
    for as_index in range(n_ases):
        asn = 60000 + as_index
        site_code = _BACKGROUND_SITES[as_index % len(_BACKGROUND_SITES)]
        site = GAZETTEER[site_code]
        info = ASInfo(asn, f"ISP-{asn}", f"ISP-{asn}", site.country)
        as_resolvers = int(per_as[as_index])
        # Each AS owns the /22 at slot ``as_index`` of block 0 of
        # 100.0.0.0/8 (a block is 2^20 addresses; AS indices stay below
        # 2^10).  The heavy tail can hand the largest AS more resolvers than
        # a /22 holds; such an AS also announces its slot in blocks 1, 2, …,
        # which nothing else uses.  An AS that fits announces only block 0.
        blocks = -(-as_resolvers // slot_hosts)
        v4 = [
            Prefix(4, 100 << 24 | block << 20 | as_index << 10, 22)
            for block in range(blocks)
        ]
        v6 = Prefix.parse(f"2a10:{as_index:x}::/32")
        registrations.append((info, v4 + [v6]))
        v4_alloc = AddressAllocator(v4)
        v6_alloc = AddressAllocator([v6])
        for r_index in range(as_resolvers):
            dual = rng.random() < dual_rate
            behavior = ResolverBehavior(
                qname_minimization=bool(rng.random() < qmin_rate),
                validates_dnssec=bool(rng.random() < validate_rate),
                explicit_ds_probability=0.08,
                set_do=bool(rng.random() < 0.7),
                edns_bufsize=int(
                    rng.choice([512, 1232, 1410, 4096], p=[0.05, 0.25, 0.2, 0.5])
                ),
                family_policy="fixed" if dual else "v4only",
                fixed_v6_ratio=0.4,
                aggressive_nsec=bool(year >= 2020 and rng.random() < 0.3),
            )
            fleet.append(
                FleetResolver(
                    resolver=SimResolver(
                        resolver_id=f"bg-{vantage}-{asn}-{r_index}",
                        site=site,
                        v4=v4_alloc.allocate(),
                        v6=v6_alloc.allocate() if dual else None,
                        behavior=behavior,
                        seed=seed * 7 + cursor,
                    ),
                    provider="Background",
                    pool=f"as{asn}",
                    weight=background_share * float(weights[cursor]),
                    junk_fraction=junk,
                )
            )
            cursor += 1
    return fleet, registrations


def build_all_fleets(
    vantage: str, year: int, seed: int = 20200405
) -> Tuple[List[FleetResolver], ASRegistry]:
    """Everything: five provider fleets + background, and the AS registry."""
    fleet: List[FleetResolver] = []
    for offset, provider in enumerate(PROVIDERS):
        fleet.extend(build_provider_fleet(provider, vantage, year, seed + offset))
    background, registrations = build_background_fleet(vantage, year, seed + 99)
    fleet.extend(background)
    registry = build_registry(registrations)
    return fleet, registry

"""Network substrate: addresses, prefixes, AS registry, geography, and time."""

from .addresses import (
    AddressError,
    IPAddress,
    Prefix,
    format_ipv4,
    format_ipv6,
    parse_ipv4,
    parse_ipv6,
)
from .asregistry import ASInfo, ASRegistry
from .clock import Clock, SimClock, WallClock, utc_timestamp
from .geo import GAZETTEER, LatencyModel, Site, great_circle_km, nearest_site
from .prefixtrie import PrefixTrie

__all__ = [
    "AddressError",
    "ASInfo",
    "ASRegistry",
    "Clock",
    "GAZETTEER",
    "IPAddress",
    "LatencyModel",
    "Prefix",
    "PrefixTrie",
    "SimClock",
    "Site",
    "WallClock",
    "format_ipv4",
    "format_ipv6",
    "great_circle_km",
    "nearest_site",
    "parse_ipv4",
    "parse_ipv6",
    "utc_timestamp",
]

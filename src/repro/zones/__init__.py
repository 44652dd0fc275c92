"""Zone model and synthetic zone builders for root, .nl, and .nz."""

from .builders import (
    DEFAULT_TLDS,
    NZ_SECOND_LEVEL_REGISTRIES,
    ZoneSpec,
    build_registry_zone,
    build_root_zone,
    domains_of,
    synthetic_labels,
)
from .popularity import ZipfSampler
from .zone import LookupOutcome, LookupResult, RRset, Zone

__all__ = [
    "DEFAULT_TLDS",
    "LookupOutcome",
    "LookupResult",
    "NZ_SECOND_LEVEL_REGISTRIES",
    "RRset",
    "Zone",
    "ZipfSampler",
    "ZoneSpec",
    "build_registry_zone",
    "build_root_zone",
    "domains_of",
    "synthetic_labels",
]

"""Dataset descriptors and client workload generation."""

from .datasets import (
    DatasetDescriptor,
    FIGURE3_MONTHS,
    PAPER_DATASETS,
    QUERY_SCALE,
    RESOLVER_SCALE,
    ServerSpec,
    WEEK_SECONDS,
    ZONE_SCALE,
    dataset,
    datasets_for_vantage,
    monthly_google_descriptor,
)
from .generators import (
    CLIENT_QTYPE_MIX,
    ClientQuery,
    DiurnalPattern,
    SUBNAME_CHOICES,
    WorkloadGenerator,
)

__all__ = [
    "CLIENT_QTYPE_MIX",
    "ClientQuery",
    "DatasetDescriptor",
    "DiurnalPattern",
    "FIGURE3_MONTHS",
    "PAPER_DATASETS",
    "QUERY_SCALE",
    "RESOLVER_SCALE",
    "SUBNAME_CHOICES",
    "ServerSpec",
    "WEEK_SECONDS",
    "WorkloadGenerator",
    "ZONE_SCALE",
    "dataset",
    "datasets_for_vantage",
    "monthly_google_descriptor",
]

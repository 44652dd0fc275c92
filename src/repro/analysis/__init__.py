"""The ENTRADA-like analysis layer: attribution and every paper metric.

The result types each metric returns live in their modules
(:mod:`~repro.analysis.metrics`, :mod:`~repro.analysis.sovereignty`, …);
this package exports what callers drive the layer with.
"""

from .analytics import DatasetAnalytics
from .attribution import AttributionResult, Attributor, OTHER, UNKNOWN
from .changepoint import jump_detector
from .composition import CATEGORIES
from .concentration import (
    ConcentrationAggregator,
    concentration,
    per_as_counts,
    provider_group_concentration,
)
from .facebook import (
    FacebookSiteAggregator,
    classify_addresses,
    rtt_preference_correlation,
)
from .qmin import MonthlyPoint, detect_rollout
from .rssac import RSSACAggregator, RSSACSummary
from .sketches import CountMinSketch, SpaceSavingSketch
from .sovereignty import JURISDICTION_BLOCS
from .streaming import AggregateSet

__all__ = [
    "AggregateSet",
    "AttributionResult",
    "Attributor",
    "CATEGORIES",
    "ConcentrationAggregator",
    "CountMinSketch",
    "DatasetAnalytics",
    "FacebookSiteAggregator",
    "JURISDICTION_BLOCS",
    "MonthlyPoint",
    "OTHER",
    "RSSACAggregator",
    "RSSACSummary",
    "SpaceSavingSketch",
    "UNKNOWN",
    "classify_addresses",
    "concentration",
    "detect_rollout",
    "jump_detector",
    "per_as_counts",
    "provider_group_concentration",
    "rtt_preference_correlation",
]

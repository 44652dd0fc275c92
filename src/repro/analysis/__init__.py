"""The ENTRADA-like analysis layer: attribution and every paper metric."""

from .analytics import DatasetAnalytics
from .attribution import (
    AttributionResult,
    Attributor,
    NO_COUNTRY,
    OTHER,
    UNKNOWN,
)
from .changepoint import cusum_detector, jump_detector
from .composition import (
    CATEGORIES,
    CompositionAggregator,
    CompositionReport,
    HeavyHitter,
    classify_queries,
)
from .sketches import CountMinSketch, SpaceSavingSketch
from .sovereignty import (
    JURISDICTION_BLOCS,
    JurisdictionRow,
    SovereigntyAggregator,
    SovereigntyReport,
    bloc_of,
)
from .concentration import (
    ConcentrationAggregator,
    ConcentrationReport,
    concentration,
    per_as_counts,
    provider_group_concentration,
)
from .edns import BufsizeCDF
from .facebook import (
    DualStackReport,
    FacebookSiteAggregator,
    SiteStats,
    classify_addresses,
    rtt_preference_correlation,
)
from .google_split import GoogleSplit, build_public_dns_trie
from .metrics import DatasetSummary, InventoryRow, TransportRow
from .rssac import RSSACAggregator, RSSACSummary
from .streaming import (
    AGGREGATOR_FACTORIES,
    AggregateSet,
    EDNSAggregator,
    GoogleSplitAggregator,
    InventoryAggregator,
    JunkAggregator,
    ProviderShareAggregator,
    QMinAggregator,
    RRTypeMixAggregator,
    StreamingAggregator,
    SummaryAggregator,
    TransportAggregator,
)
from .qmin import MonthlyPoint, detect_rollout

__all__ = [
    "AGGREGATOR_FACTORIES",
    "AggregateSet",
    "AttributionResult",
    "CATEGORIES",
    "CompositionAggregator",
    "CompositionReport",
    "CountMinSketch",
    "HeavyHitter",
    "JURISDICTION_BLOCS",
    "JurisdictionRow",
    "NO_COUNTRY",
    "SovereigntyAggregator",
    "SovereigntyReport",
    "SpaceSavingSketch",
    "bloc_of",
    "classify_queries",
    "DatasetAnalytics",
    "EDNSAggregator",
    "GoogleSplitAggregator",
    "InventoryAggregator",
    "JunkAggregator",
    "ProviderShareAggregator",
    "QMinAggregator",
    "RRTypeMixAggregator",
    "StreamingAggregator",
    "SummaryAggregator",
    "TransportAggregator",
    "Attributor",
    "BufsizeCDF",
    "ConcentrationAggregator",
    "ConcentrationReport",
    "FacebookSiteAggregator",
    "RSSACAggregator",
    "RSSACSummary",
    "concentration",
    "cusum_detector",
    "jump_detector",
    "per_as_counts",
    "provider_group_concentration",
    "DatasetSummary",
    "DualStackReport",
    "GoogleSplit",
    "InventoryRow",
    "MonthlyPoint",
    "OTHER",
    "SiteStats",
    "TransportRow",
    "UNKNOWN",
    "build_public_dns_trie",
    "classify_addresses",
    "detect_rollout",
    "rtt_preference_correlation",
]

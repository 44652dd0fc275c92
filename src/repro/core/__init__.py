"""The public API of the reproduction, re-exported in one place.

``repro.core`` bundles what a downstream user needs to (1) simulate DNS
traffic toward root/ccTLD vantage points with configurable resolver fleets
and (2) run the paper's centralization analytics over any capture:

>>> from repro.core import ExperimentContext, figure1
>>> ctx = ExperimentContext(scale=0.2)
>>> report = figure1.run_vantage(ctx, "nl")
>>> print(report.to_text())

Every metric is a method of :class:`DatasetAnalytics`
(``ctx.analytics("nl-w2020")``; for a run of your own, however it was
executed, ``DatasetAnalytics.of(run)``; or over any capture of your own):

>>> from repro.core import DatasetAnalytics, dataset, run_dataset
>>> DatasetAnalytics.of(run_dataset(dataset("nl-w2020"))).cloud_share()
>>> from repro.core import Attributor, PROVIDERS
>>> attribution = Attributor(registry, PROVIDERS).attribute(view)
>>> DatasetAnalytics.over(view, attribution).cloud_share()
"""

from ..analysis import (
    Attributor,
    DatasetAnalytics,
    detect_rollout,
    facebook_site_stats,
)
from ..capture import CaptureStore, QueryRecord, Transport
from ..clouds import (
    FleetResolver,
    PROVIDERS,
    build_all_fleets,
    build_provider_fleet,
    build_registry,
)
from ..experiments import (
    ExperimentContext,
    Report,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    table2,
    table3,
    table4,
    table5,
    table6,
)
from ..resolver import AuthorityNetwork, ResolverBehavior, SimResolver
from ..server import AuthoritativeServer, ServerSet
from ..sim import DatasetRun, run_dataset
from ..workload import PAPER_DATASETS, dataset, datasets_for_vantage
from ..zones import Zone, ZoneSpec, build_registry_zone, build_root_zone

__all__ = [
    "AuthoritativeServer",
    "AuthorityNetwork",
    "Attributor",
    "CaptureStore",
    "DatasetAnalytics",
    "DatasetRun",
    "ExperimentContext",
    "FleetResolver",
    "PAPER_DATASETS",
    "PROVIDERS",
    "QueryRecord",
    "Report",
    "ResolverBehavior",
    "ServerSet",
    "SimResolver",
    "Transport",
    "Zone",
    "ZoneSpec",
    "build_all_fleets",
    "build_provider_fleet",
    "build_registry",
    "build_registry_zone",
    "build_root_zone",
    "dataset",
    "datasets_for_vantage",
    "detect_rollout",
    "facebook_site_stats",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "run_dataset",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
]

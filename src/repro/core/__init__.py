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
executed, ``DatasetAnalytics.of(run)``; or over any capture of your own).
How a run executes has one front door, a
:class:`~repro.config.RunConfig`; a per-provider table answers the
providers the analytics were configured with (Table 1's by default):

>>> from repro.config import RunConfig
>>> from repro.core import DatasetAnalytics, dataset, run_dataset
>>> run = run_dataset(dataset("nl-w2020"), config=RunConfig(workers=2))
>>> DatasetAnalytics.of(run).cloud_share()
>>> from repro.core import Attributor, PROVIDERS
>>> attribution = Attributor(registry, PROVIDERS).attribute(view)
>>> DatasetAnalytics.over(view, attribution).provider_shares()
"""

from ..analysis import (
    Attributor,
    DatasetAnalytics,
    detect_rollout,
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

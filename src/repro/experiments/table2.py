"""Table 2 — authoritative server deployments and zone sizes."""

from __future__ import annotations

from ..paper import TABLE2
from ..workload import ZONE_SCALE, dataset
from .context import ExperimentContext
from .report import Report


def _format_nsset(descriptor, captured_only: bool) -> str:
    anycast = sum(
        1 for s in descriptor.servers if s.anycast and (s.captured or not captured_only)
    )
    unicast = sum(
        1 for s in descriptor.servers if not s.anycast and (s.captured or not captured_only)
    )
    parts = []
    if anycast:
        parts.append(f"{anycast}A")
    if unicast:
        parts.append(f"{unicast}U")
    return ",".join(parts)


def run(ctx: ExperimentContext) -> Report:
    """Compare the configured deployments against the paper's Table 2.

    This experiment is configuration-level (no simulation needed): it
    verifies the reproduced deployments mirror the paper's server counts
    and that zone sizes match under the declared scale factor.
    """
    report = Report("table2", ".nl and .nz authoritative servers (Table 2)")
    for dataset_id, (nsset, analysed, zone_size) in TABLE2.items():
        descriptor = dataset(dataset_id)
        report.add(f"{dataset_id} NSSet", nsset, _format_nsset(descriptor, False))
        report.add(f"{dataset_id} analysed", analysed, _format_nsset(descriptor, True))
        report.add(
            f"{dataset_id} zone size",
            zone_size,
            f"{descriptor.zone_total} (x{ZONE_SCALE} scale = "
            f"{descriptor.zone_total * ZONE_SCALE / 1e6:.1f}M)",
        )
    report.notes.append(
        f"zone sizes simulated at 1:{ZONE_SCALE}; structure (SLD-only for .nl, "
        "SLD+3LD for .nz) matches the paper"
    )
    return report

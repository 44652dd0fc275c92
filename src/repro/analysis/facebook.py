"""Facebook site analysis via reverse DNS (paper section 4.3, Figures 5/8).

The paper's pipeline, reproduced step by step:

1. reverse-look-up every source address that sent Facebook queries;
2. extract the site (airport code) from the PTR name;
3. pair v4/v6 addresses of the same host using the IPv4 embedded in the
   PTR names (12 of 13 sites embed it) — the *dual-stack* join;
4. per site: query volumes by family and the median TCP-handshake RTT per
   family, per authoritative server.

The output reproduces Figure 5a (per-site v4/v6 query distribution) and
Figure 5b (per-site IPv6 query ratio vs median RTTs, per server).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..capture import CaptureView, Transport, join_address
from ..clouds import PTRTable, parse_ptr_embedded_v4, parse_ptr_site
from ..netsim import IPAddress
from .attribution import AttributionResult


@dataclass
class SiteStats:
    """Per-site aggregates for one authoritative server."""

    site_index: int
    site_code: str
    queries_v4: int = 0
    queries_v6: int = 0
    median_tcp_rtt_v4: Optional[float] = None
    median_tcp_rtt_v6: Optional[float] = None

    @property
    def total_queries(self) -> int:
        return self.queries_v4 + self.queries_v6

    @property
    def v6_ratio(self) -> float:
        total = self.total_queries
        return self.queries_v6 / total if total else 0.0


@dataclass
class DualStackReport:
    """Outcome of the PTR-based resolver classification."""

    dual_stack_hosts: int
    v4_only_addresses: int
    v6_only_addresses: int
    addresses_without_ptr: int


def classify_addresses(
    addresses: Sequence[IPAddress], ptr_table: PTRTable
) -> Tuple[Dict[str, Tuple[str, int]], DualStackReport]:
    """Map each address (text) to its (site_code, site_index) and count
    dual-stack hosts by joining on the PTR-embedded IPv4."""
    site_of: Dict[str, Tuple[str, int]] = {}
    by_host: Dict[str, List[IPAddress]] = {}
    no_ptr = 0
    for address in addresses:
        target = ptr_table.lookup(address)
        if target is None:
            no_ptr += 1
            continue
        parsed = parse_ptr_site(target)
        if parsed is not None:
            site_of[address.to_text()] = parsed
        embedded = parse_ptr_embedded_v4(target)
        host_key = embedded.to_text() if embedded is not None else target
        by_host.setdefault(host_key, []).append(address)

    dual = v4_only = v6_only = 0
    for members in by_host.values():
        families = {a.family for a in members}
        if families == {4, 6}:
            dual += 1
        elif families == {4}:
            v4_only += len(members)
        else:
            v6_only += len(members)
    report = DualStackReport(
        dual_stack_hosts=dual,
        v4_only_addresses=v4_only,
        v6_only_addresses=v6_only,
        addresses_without_ptr=no_ptr,
    )
    return site_of, report


def facebook_site_stats(
    view: CaptureView,
    attribution: AttributionResult,
    ptr_table: PTRTable,
    server_id: str,
    provider: str = "Facebook",
) -> Tuple[List[SiteStats], DualStackReport]:
    """Per-site query/RTT aggregates toward one authoritative server."""
    mask = attribution.provider_mask(provider) & (view.server_id == server_id)
    addresses = view.unique_addresses(mask)
    site_of, report = classify_addresses(addresses, ptr_table)

    stats: Dict[int, SiteStats] = {}
    rtts: Dict[Tuple[int, int], List[float]] = {}
    indices = np.nonzero(mask)[0]
    for i in indices:
        address = join_address(
            int(view.family[i]), int(view.src_hi[i]), int(view.src_lo[i])
        )
        site = site_of.get(address.to_text())
        if site is None:
            continue
        code, number = site
        entry = stats.get(number)
        if entry is None:
            entry = stats[number] = SiteStats(site_index=number, site_code=code)
        family = int(view.family[i])
        if family == 4:
            entry.queries_v4 += 1
        else:
            entry.queries_v6 += 1
        if int(view.transport[i]) == int(Transport.TCP):
            rtt = float(view.tcp_rtt_ms[i])
            if not np.isnan(rtt):
                rtts.setdefault((number, family), []).append(rtt)

    for (number, family), values in rtts.items():
        median = float(np.median(values))
        if family == 4:
            stats[number].median_tcp_rtt_v4 = median
        else:
            stats[number].median_tcp_rtt_v6 = median

    ordered = [stats[k] for k in sorted(stats)]
    return ordered, report


def rtt_preference_correlation(stats: Sequence[SiteStats]) -> List[Tuple[int, float, Optional[float]]]:
    """For each site with both medians: (site, v6_ratio, rtt_gap_ms) where
    the gap is v6 − v4 RTT.  The paper's claim: sites with a large positive
    gap prefer IPv4 (low v6 ratio)."""
    out = []
    for site in stats:
        if site.median_tcp_rtt_v4 is not None and site.median_tcp_rtt_v6 is not None:
            gap = site.median_tcp_rtt_v6 - site.median_tcp_rtt_v4
            out.append((site.site_index, site.v6_ratio, gap))
        else:
            out.append((site.site_index, site.v6_ratio, None))
    return out

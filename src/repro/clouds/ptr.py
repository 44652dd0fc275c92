"""Reverse DNS (PTR) synthesis for Facebook's resolver fleet.

Paper section 4.3: Facebook's PTR records embed (a) an airport code naming
the site and (b) — for 12 of the 13 sites — the *IPv4 address of the host*,
even when the record belongs to an IPv6 address.  Reverse-looking-up every
source address therefore lets the analysis join a host's v4 and v6
addresses into one dual-stack resolver.

This module synthesises that PTR namespace for a simulated Facebook fleet,
reproducing the quirks the paper relies on:

* site 11's PTR names carry no embedded IPv4 (the "12 of 13" exception);
* a handful of addresses (1 IPv4, 2 IPv6 in the paper) have no PTR at all.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from ..netsim import IPAddress
from .fleets import FleetResolver

#: Facebook site index whose PTRs omit the embedded IPv4 address.
SITE_WITHOUT_V4_IN_PTR = 11

#: How many addresses per family get no PTR record (paper: 1 v4, 2 v6).
MISSING_PTR_V4 = 1
MISSING_PTR_V6 = 2


def _ptr_name(site_code: str, site_index: int, v4: IPAddress) -> str:
    """A Facebook-style PTR name: airport code + dash-separated IPv4."""
    dashed = v4.to_text().replace(".", "-")
    if site_index == SITE_WITHOUT_V4_IN_PTR:
        return f"edge-dns.{site_code.lower()}{site_index}.facebook.com."
    return f"edge-dns-{dashed}.{site_code.lower()}{site_index}.facebook.com."


class PTRTable:
    """A reverse-DNS view: address (textual) → PTR target name."""

    def __init__(self):
        self._table: Dict[str, str] = {}

    def add(self, address: IPAddress, target: str) -> None:
        self._table[address.to_text()] = target

    def lookup(self, address: IPAddress) -> Optional[str]:
        """The PTR target for ``address``, or None (no PTR record)."""
        return self._table.get(address.to_text())

    def __len__(self) -> int:
        return len(self._table)


def build_facebook_ptr_table(fleet: Iterable[FleetResolver]) -> PTRTable:
    """Synthesise the PTR namespace for a Facebook fleet.

    Both the v4 and the v6 address of each resolver point at the same PTR
    name (embedding the v4), which is exactly what lets the analysis
    classify the pair as one dual-stack host.
    """
    table = PTRTable()
    skipped_v4 = skipped_v6 = 0
    for member in fleet:
        if member.provider != "Facebook":
            continue
        resolver = member.resolver
        site_code = resolver.site.code
        assert resolver.v4 is not None, "Facebook resolvers are dual-stack"
        name = _ptr_name(site_code, member.site_index, resolver.v4)
        if skipped_v4 < MISSING_PTR_V4:
            skipped_v4 += 1
        else:
            table.add(resolver.v4, name)
        if resolver.v6 is not None:
            if skipped_v6 < MISSING_PTR_V6:
                skipped_v6 += 1
            else:
                table.add(resolver.v6, name)
    return table


def parse_ptr_site(target: str) -> Optional[Tuple[str, int]]:
    """Extract (airport_code, site_index) from a Facebook PTR name.

    Returns None for names that do not match the convention.
    """
    parts = target.rstrip(".").split(".")
    if len(parts) < 3 or parts[-2:] != ["facebook", "com"]:
        return None
    site_part = parts[-3]
    code = "".join(ch for ch in site_part if ch.isalpha()).upper()
    digits = "".join(ch for ch in site_part if ch.isdigit())
    if not code or not digits:
        return None
    return code, int(digits)


def parse_ptr_embedded_v4(target: str) -> Optional[IPAddress]:
    """Extract the embedded IPv4 address from a Facebook PTR name, if any."""
    head = target.split(".", 1)[0]
    if not head.startswith("edge-dns-"):
        return None
    candidate = head[len("edge-dns-") :].replace("-", ".")
    try:
        return IPAddress.parse(candidate)
    except ValueError:
        return None

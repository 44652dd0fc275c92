"""Declarative forwarding topology for the live service mode.

``repro serve`` fronts the simulated authoritative world with the same
shape a self-hosted DNS edge uses (the home-ops conditional-forwarding
exemplar): clients land in a *client group* by source prefix, the group
names a *forwarding tier*, and the tier routes each query — by qname
suffix or by default — down an ordered *upstream* chain with fallback.

Upstream specs are compact strings:

``auth:<key>``
    Every authoritative server in ``server_sets[<key>]``, tried in declared
    order (e.g. ``auth:nl`` = the vantage NS set, ``auth:root`` = the root).
``auth:<key>/<server_id>``
    One specific server out of a set.
``tier:<name>``
    Hop to another tier (conditional forwarding; a chain of hops is
    acyclic and shorter than :data:`MAX_TIER_HOPS`, and one query's route
    expands to at most :data:`MAX_ROUTE_UPSTREAMS` upstreams).
``resolver``
    The optional recursive-resolver frontend.
``refused`` / ``nxdomain``
    Local policy sinks answering immediately with that RCODE — the
    split-horizon/adblock idiom (internal names never leave the edge).

The whole topology is plain data: build it in code, or load it from JSON
via :meth:`ServiceTopology.from_dict` (``repro serve --topology file``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Tuple

from ..dnscore import Name
from ..netsim import IPAddress, Prefix

#: Upstreams answering locally instead of forwarding.
POLICY_SINKS = ("refused", "nxdomain")

#: A ``tier:`` chain takes fewer hops than this; :meth:`ServiceTopology.validate`
#: rejects a longer one (and every cycle) before a packet is served.
MAX_TIER_HOPS = 8

#: Upstreams one query's route may expand to, ``tier:`` hops followed in
#: place.  Hops that each list several ``tier:`` upstreams multiply, so depth
#: alone does not bound a route; :meth:`ServiceTopology.validate` rejects a
#: tier whose widest route is longer than this.
MAX_ROUTE_UPSTREAMS = 64


class TopologyError(ValueError):
    """Raised for malformed or dangling topology definitions."""


@dataclass(frozen=True)
class ForwardRule:
    """Route queries at/under ``suffix`` to ``upstream`` (first match wins)."""

    suffix: Name
    upstream: str


@dataclass(frozen=True)
class ForwardingTier:
    """One forwarding hop: suffix rules first, then the default chain."""

    name: str
    rules: Tuple[ForwardRule, ...] = ()
    upstreams: Tuple[str, ...] = ()

    def chain_for(self, qname: Name) -> Tuple[str, ...]:
        """The upstream chain this tier routes ``qname`` down."""
        for rule in self.rules:
            if qname.is_subdomain_of(rule.suffix):
                return (rule.upstream,)
        return self.upstreams

    def specs(self) -> Tuple[str, ...]:
        """Every upstream spec this tier names, rules first."""
        return tuple(rule.upstream for rule in self.rules) + self.upstreams


@dataclass(frozen=True)
class ClientGroup:
    """Clients sourced from any of ``prefixes`` enter at tier ``tier``."""

    name: str
    prefixes: Tuple[Prefix, ...]
    tier: str

    def contains(self, address: IPAddress) -> bool:
        return any(
            prefix.family == address.family and prefix.contains(address)
            for prefix in self.prefixes
        )


@dataclass(frozen=True)
class ServiceTopology:
    """The full client-group → tier → upstream routing table."""

    tiers: Tuple[ForwardingTier, ...]
    groups: Tuple[ClientGroup, ...] = ()
    default_tier: str = ""

    def tier(self, name: str) -> ForwardingTier:
        for tier in self.tiers:
            if tier.name == name:
                return tier
        raise TopologyError(f"unknown tier {name!r}")

    def tier_for(self, src: IPAddress) -> ForwardingTier:
        """Entry tier for a client address (first matching group wins)."""
        for group in self.groups:
            if group.contains(src):
                return self.tier(group.tier)
        return self.tier(self.default_tier)

    # -- validation --------------------------------------------------------

    def validate(
        self,
        server_ids: Mapping[str, Iterable[str]],
        resolver_available: bool = False,
    ) -> None:
        """Check every reference resolves before serving a single packet.

        ``server_ids`` maps each available ``server_sets`` key to the ids of
        its servers; ``resolver_available`` states whether a resolver
        frontend exists.  Raises :class:`TopologyError` on the first
        dangling reference (a tier, an authority set, or a server of one),
        malformed upstream spec, ``tier:`` cycle, ``tier:`` chain of
        :data:`MAX_TIER_HOPS` hops or more, or route of more than
        :data:`MAX_ROUTE_UPSTREAMS` upstreams.
        """
        if not self.tiers:
            raise TopologyError("topology has no tiers")
        names = [tier.name for tier in self.tiers]
        if len(set(names)) != len(names):
            raise TopologyError(f"duplicate tier names in {names}")
        known = set(names)
        if self.default_tier not in known:
            raise TopologyError(f"default tier {self.default_tier!r} undefined")
        for group in self.groups:
            if group.tier not in known:
                raise TopologyError(
                    f"client group {group.name!r} enters undefined tier "
                    f"{group.tier!r}"
                )
        auth = {key: set(ids) for key, ids in server_ids.items()}
        for tier in self.tiers:
            for spec in tier.specs():
                self._validate_upstream(spec, tier.name, known, auth, resolver_available)
        self._check_hops()
        self._check_widths()

    @staticmethod
    def _validate_upstream(
        spec: str, tier_name: str, tiers: set, auth: dict, resolver_available: bool
    ) -> None:
        if spec in POLICY_SINKS:
            return
        if spec == "resolver":
            if not resolver_available:
                raise TopologyError(
                    f"tier {tier_name!r} routes to 'resolver' but no "
                    "resolver frontend is configured"
                )
            return
        if spec.startswith("tier:"):
            target = spec[5:]
            if target not in tiers:
                raise TopologyError(
                    f"tier {tier_name!r} forwards to undefined tier {target!r}"
                )
            return
        if spec.startswith("auth:"):
            key, _, server_id = spec[5:].partition("/")
            if key not in auth:
                raise TopologyError(
                    f"tier {tier_name!r} forwards to unknown authority "
                    f"set {key!r} (have {sorted(auth)})"
                )
            if server_id and server_id not in auth[key]:
                raise TopologyError(
                    f"tier {tier_name!r} forwards to unknown server "
                    f"{server_id!r} of authority set {key!r} "
                    f"(have {sorted(auth[key])})"
                )
            return
        raise TopologyError(f"malformed upstream spec {spec!r} in tier {tier_name!r}")

    def _check_hops(self) -> None:
        """Reject ``tier:`` reference cycles, and chains of
        :data:`MAX_TIER_HOPS` hops or more."""
        edges: Dict[str, list] = {
            tier.name: [spec[5:] for spec in tier.specs() if spec.startswith("tier:")]
            for tier in self.tiers
        }
        #: The longest chain of tier names starting at each tier.
        longest: Dict[str, Tuple[str, ...]] = {}
        visiting: set = set()

        def visit(name: str, path: Tuple[str, ...]) -> Tuple[str, ...]:
            if name in longest:
                return longest[name]
            if name in visiting:
                raise TopologyError(
                    f"tier cycle: {' -> '.join(path + (name,))}"
                )
            visiting.add(name)
            chain = (name,) + max(
                (visit(target, path + (name,)) for target in edges[name]),
                key=len, default=(),
            )
            visiting.discard(name)
            if len(chain) > MAX_TIER_HOPS:
                raise TopologyError(
                    f"tier chain {' -> '.join(chain)} takes {len(chain) - 1} "
                    f"tier: hops (at most {MAX_TIER_HOPS - 1})"
                )
            longest[name] = chain
            return chain

        for name in edges:
            visit(name, ())

    def _check_widths(self) -> None:
        """Reject a tier whose widest route — one rule's upstream, or the
        default chain, ``tier:`` hops expanded — has more than
        :data:`MAX_ROUTE_UPSTREAMS` upstreams.  Runs on an acyclic topology
        of bounded depth, so the recursion ends."""
        tiers = {tier.name: tier for tier in self.tiers}
        widths: Dict[str, int] = {}

        def width(spec: str) -> int:
            if not spec.startswith("tier:"):
                return 1
            name = spec[5:]
            if name not in widths:
                tier = tiers[name]
                widest = max(
                    [width(rule.upstream) for rule in tier.rules]
                    + [sum(width(upstream) for upstream in tier.upstreams)]
                )
                if widest > MAX_ROUTE_UPSTREAMS:
                    raise TopologyError(
                        f"tier {name!r} routes a query to as many as {widest} "
                        f"upstreams (at most {MAX_ROUTE_UPSTREAMS})"
                    )
                widths[name] = widest
            return widths[name]

        for name in tiers:
            width(f"tier:{name}")

    # -- (de)serialisation -------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "default_tier": self.default_tier,
            "tiers": [
                {
                    "name": tier.name,
                    "rules": [
                        {"suffix": rule.suffix.to_text(), "upstream": rule.upstream}
                        for rule in tier.rules
                    ],
                    "upstreams": list(tier.upstreams),
                }
                for tier in self.tiers
            ],
            "groups": [
                {
                    "name": group.name,
                    "prefixes": [
                        f"{IPAddress(prefix.family, prefix.value)}/{prefix.length}"
                        for prefix in group.prefixes
                    ],
                    "tier": group.tier,
                }
                for group in self.groups
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ServiceTopology":
        try:
            tiers = tuple(
                ForwardingTier(
                    name=entry["name"],
                    rules=tuple(
                        ForwardRule(
                            suffix=Name.from_text(rule["suffix"]),
                            upstream=rule["upstream"],
                        )
                        for rule in entry.get("rules", ())
                    ),
                    upstreams=tuple(entry.get("upstreams", ())),
                )
                for entry in payload["tiers"]
            )
            groups = tuple(
                ClientGroup(
                    name=entry["name"],
                    prefixes=tuple(
                        Prefix.parse(text) for text in entry["prefixes"]
                    ),
                    tier=entry["tier"],
                )
                for entry in payload.get("groups", ())
            )
            default_tier = payload["default_tier"]
        except (AttributeError, KeyError, TypeError) as exc:
            raise TopologyError(f"malformed topology payload: {exc!r}") from exc
        return cls(tiers=tiers, groups=groups, default_tier=default_tier)

    @classmethod
    def from_json_file(cls, path: str) -> "ServiceTopology":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


def default_topology(
    vantage: str, resolver: bool = False
) -> ServiceTopology:
    """The stock conditional-forwarding layout for a vantage.

    Mirrors the home-ops split: an ``edge`` tier catches everyone, answers
    a blocked internal suffix locally, forwards in-bailiwick names straight
    to the vantage NS set, and hands everything else to a fallback tier
    (the resolver frontend when enabled, the root servers otherwise).
    """
    edge_rules = [
        # Split-horizon sink: internal names are answered at the edge and
        # never reach an upstream (the filtering idiom of the exemplar).
        ForwardRule(Name.from_text("internal.invalid."), "refused"),
    ]
    if vantage != "root":
        edge_rules.append(
            ForwardRule(Name.from_text(vantage), "tier:authority")
        )
        authority_upstreams: Tuple[str, ...] = (f"auth:{vantage}", "auth:root")
    else:
        authority_upstreams = ("auth:root",)
    fallback_upstreams: Tuple[str, ...] = (
        ("resolver", "tier:authority") if resolver else ("tier:authority",)
    )
    return ServiceTopology(
        tiers=(
            ForwardingTier(
                name="edge",
                rules=tuple(edge_rules),
                upstreams=("tier:fallback",),
            ),
            ForwardingTier(name="fallback", upstreams=fallback_upstreams),
            ForwardingTier(name="authority", upstreams=authority_upstreams),
        ),
        groups=(
            ClientGroup(
                name="clients",
                prefixes=(
                    Prefix.parse("0.0.0.0/0"),
                    Prefix.parse("::/0"),
                ),
                tier="edge",
            ),
        ),
        default_tier="edge",
    )

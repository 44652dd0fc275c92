"""Shared fixtures: a small simulated DNS world for integration tests.

Zone construction (root + two registries) is the expensive part and is
read-only at serve time, so the zones are built once per session; every
test still gets its own servers, captures, and latency model, keeping
capture state isolated per test.
"""

import pytest

from repro.capture import CaptureStore
from repro.dnscore import Name
from repro.experiments import ExperimentContext
from repro.experiments.render_all import collect_all
from repro.netsim import GAZETTEER, IPAddress, LatencyModel
from repro.resolver import AuthorityNetwork, SyntheticLeafAuthority
from repro.server import AuthoritativeServer, ServerSet
from repro.sim import forget_worlds
from repro.zones import ZoneSpec, build_registry_zone, build_root_zone

from .helpers import REPORT_SCALE


@pytest.fixture(scope="session")
def serial_matrix():
    """Every report of the experiment matrix from one serial in-memory
    context that started with empty world stores, and the snapshot of that
    context's telemetry — rendered once, checked by the modules that own
    each claim (the report literal, the figure coverage, the world builds).
    """
    forget_worlds()
    ctx = ExperimentContext(scale=REPORT_SCALE)
    return collect_all(ctx), ctx.telemetry.snapshot()


@pytest.fixture(scope="session")
def session_zones():
    """Root + .nl (50 domains) + .nz (20 SLD / 30 third-level), built once.

    Zones are immutable once built (servers only read them), so sharing
    them across the session is safe and skips the dominant fixture cost.
    """
    return {
        "root": build_root_zone(seed=3),
        "nl": build_registry_zone(
            ZoneSpec(origin="nl", second_level_count=50, seed=1)
        ),
        "nz": build_registry_zone(
            ZoneSpec(origin="nz", second_level_count=20, third_level_count=30, seed=2)
        ),
    }


@pytest.fixture
def latency():
    return LatencyModel()


@pytest.fixture
def small_world(latency, session_zones):
    """The session zones behind fresh per-test servers and captures."""
    root_zone = session_zones["root"]
    nl_zone = session_zones["nl"]
    nz_zone = session_zones["nz"]

    root_capture = CaptureStore()
    nl_capture = CaptureStore()
    nz_capture = CaptureStore()

    root_set = ServerSet(
        [
            AuthoritativeServer(
                "b-root", root_zone,
                [GAZETTEER["LAX"], GAZETTEER["MIA"], GAZETTEER["AMS"], GAZETTEER["SIN"]],
                capture=root_capture,
            )
        ],
        latency,
    )
    nl_set = ServerSet(
        [
            AuthoritativeServer(
                "nl-a", nl_zone, [GAZETTEER["AMS"], GAZETTEER["IAD"], GAZETTEER["NRT"]],
                capture=nl_capture,
            ),
            AuthoritativeServer(
                "nl-b", nl_zone, [GAZETTEER["LHR"], GAZETTEER["SJC"]],
                capture=nl_capture,
            ),
        ],
        latency,
    )
    nz_set = ServerSet(
        [
            AuthoritativeServer(
                "nz-a", nz_zone, [GAZETTEER["AKL"], GAZETTEER["SYD"], GAZETTEER["LAX"]],
                capture=nz_capture,
            ),
            AuthoritativeServer("nz-u", nz_zone, [GAZETTEER["WLG"]], capture=nz_capture),
        ],
        latency,
    )

    network = AuthorityNetwork(
        root=root_set,
        tlds={Name.from_text("nl"): nl_set, Name.from_text("nz"): nz_set},
        leaf=SyntheticLeafAuthority(),
    )
    return {
        "network": network,
        "root_capture": root_capture,
        "nl_capture": nl_capture,
        "nz_capture": nz_capture,
        "nl_zone": nl_zone,
        "nz_zone": nz_zone,
        "latency": latency,
    }


def make_addr(text: str) -> IPAddress:
    return IPAddress.parse(text)

"""Roll a cProfile run up into per-layer and per-entry-point numbers.

Layers are the packages under ``src/repro/`` plus ``numpy`` (numpy's own
Python files) and ``stdlib`` (everything else: the standard library,
``repro/__main__.py``, the harness's own frames).  A C function has no file,
so its self time and calls are charged to the layer of its Python caller
through the profile's caller edges; a C function called by another C
function inherits that caller's split.  Shares therefore sum to 1.

Works on the plain ``pstats.Stats(...).stats`` mapping
``{(file, line, name): (cc, nc, tt, ct, {caller: (cc, nc, tt, ct)})}`` so
tests can feed it hand-made profiles.
"""

from __future__ import annotations

import importlib
from typing import Dict, Mapping, Optional, Tuple

LAYERS = (
    "sim", "workload", "resolver", "server", "netsim", "dnscore", "zones",
    "clouds", "faults", "capture", "analysis", "experiments", "runtime",
    "vector", "telemetry", "service", "reporting", "numpy", "stdlib",
)

#: Public entry points reported as ``<name>.incl_share`` / ``.calls_per_op``:
#: metric prefix -> "module:attribute path" of the function.
ENTRY_POINTS = {
    "sim.build_environment": "repro.sim.driver:build_environment",
    "sim.run_member_range": "repro.sim.driver:run_member_range",
    "zones.build_registry_zone": "repro.zones.builders:build_registry_zone",
    "clouds.build_all_fleets": "repro.clouds.fleets:build_all_fleets",
    "workload.generate": "repro.workload.generators:WorkloadGenerator.generate",
    "resolver.resolve": "repro.resolver.engine:SimResolver.resolve",
    "server.handle_query": "repro.server.authoritative:AuthoritativeServer.handle_query",
    "capture.sort_canonical": "repro.capture.store:CaptureStore.sort_canonical",
    "analysis.attribute": "repro.analysis.attribution:Attributor.attribute",
    "experiments.instrumented": "repro.experiments.render_all:instrumented",
    "dnscore.from_wire": "repro.dnscore.message:Message.from_wire",
    "dnscore.to_wire": "repro.dnscore.message:Message.to_wire",
    "service.dispatch": "repro.service.dispatch:QueryDispatcher.dispatch",
}

Key = Tuple[str, int, str]


def layer_of_file(filename: str) -> Optional[str]:
    """Layer of a Python source file; ``None`` for a C function (``~``)."""
    if filename == "~":
        return None
    path = filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at >= 0:
        package = path[at + len(marker):].split("/", 1)[0]
        if package in LAYERS:
            return package
    if "/numpy/" in path:
        return "numpy"
    return "stdlib"


def _c_function_split(
    key: Key, stats: Mapping[Key, tuple], memo: Dict[Key, Dict[str, float]],
    active: set,
) -> Dict[str, float]:
    """How a C function's cost divides over layers: by the self time its
    caller edges carry (by call count when the edges carry no time)."""
    if key in memo:
        return memo[key]
    if key in active:                      # C <-> C recursion: no information
        return {}
    active.add(key)
    callers = stats[key][4]
    weights: Dict[str, float] = {}
    by_time = sum(edge[2] for edge in callers.values()) > 0
    for caller, edge in callers.items():
        weight = edge[2] if by_time else edge[1]
        if weight <= 0:
            continue
        layer = layer_of_file(caller[0])
        if layer is not None:
            weights[layer] = weights.get(layer, 0.0) + weight
        elif caller in stats:
            for name, share in _c_function_split(caller, stats, memo, active).items():
                weights[name] = weights.get(name, 0.0) + weight * share
    active.discard(key)
    total = sum(weights.values())
    split = (
        {name: weight / total for name, weight in weights.items()}
        if total > 0 else {"stdlib": 1.0}
    )
    memo[key] = split
    return split


def rollup(stats: Mapping[Key, tuple]) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_s": ..., "calls": ...}}`` for every layer."""
    out = {layer: {"self_s": 0.0, "calls": 0.0} for layer in LAYERS}
    memo: Dict[Key, Dict[str, float]] = {}
    for key, (_cc, nc, tt, _ct, _callers) in stats.items():
        layer = layer_of_file(key[0])
        split = {layer: 1.0} if layer is not None else _c_function_split(
            key, stats, memo, set()
        )
        for name, share in split.items():
            out[name]["self_s"] += tt * share
            out[name]["calls"] += nc * share
    return out


def total_calls(stats: Mapping[Key, tuple]) -> int:
    """What ``pstats`` prints as "function calls": Python + C."""
    return sum(entry[1] for entry in stats.values())


def total_self_seconds(stats: Mapping[Key, tuple]) -> float:
    return sum(entry[2] for entry in stats.values())


def entry_point_key(spec: str) -> Optional[Key]:
    """The profile key of ``"module:attr.path"`` (imports the module)."""
    module_name, _, path = spec.partition(":")
    try:
        target = importlib.import_module(module_name)
        for part in path.split("."):
            target = getattr(target, part)
    except (ImportError, AttributeError):
        return None
    target = getattr(target, "__func__", target)      # classmethod / bound
    target = getattr(target, "__wrapped__", target)
    code = getattr(target, "__code__", None)
    if code is None:
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


def layer_metrics(stats: Mapping[Key, tuple], ops: int) -> Dict[str, float]:
    """Every profile-derived per-layer metric of one traced repetition."""
    metrics: Dict[str, float] = {}
    total_s = total_self_seconds(stats)
    for layer, cell in rollup(stats).items():
        metrics[f"{layer}.self_share"] = cell["self_s"] / total_s if total_s else 0.0
        metrics[f"{layer}.calls_per_op"] = cell["calls"] / ops if ops else 0.0
    for name, spec in ENTRY_POINTS.items():
        entry = stats.get(entry_point_key(spec) or ("", 0, ""))
        calls, inclusive = (entry[1], entry[3]) if entry else (0, 0.0)
        metrics[f"{name}.incl_share"] = inclusive / total_s if total_s else 0.0
        metrics[f"{name}.calls_per_op"] = calls / ops if ops else 0.0
    return metrics

import pytest

from layers import LAYERS, layer_metrics, layer_of_file, rollup, total_calls

SIM = ("/x/src/repro/sim/driver.py", 10, "run_member_range")
CODEC = ("/x/src/repro/dnscore/message.py", 20, "to_wire")
MAIN = ("/x/src/repro/__main__.py", 5, "main")
OTHER = ("/usr/lib/python3.11/json/encoder.py", 1, "encode")
NUMPY = ("/usr/lib/python3.11/site-packages/numpy/core/fromnumeric.py", 7, "sum")
PACK = ("~", 0, "<built-in method _struct.pack>")
LEN = ("~", 0, "<built-in method builtins.len>")
SORTED = ("~", 0, "<built-in method builtins.sorted>")

#: key -> (cc, nc, tt, ct, callers{caller: (cc, nc, tt, ct)})
STATS = {
    MAIN: (1, 1, 0.5, 10.0, {}),
    SIM: (1, 1, 3.0, 9.0, {MAIN: (1, 1, 3.0, 9.0)}),
    CODEC: (100, 100, 2.0, 4.0, {SIM: (100, 100, 2.0, 4.0)}),
    OTHER: (5, 5, 0.5, 0.5, {MAIN: (5, 5, 0.5, 0.5)}),
    NUMPY: (2, 2, 1.0, 1.0, {SIM: (2, 2, 1.0, 1.0)}),
    # pack: 3/4 of its time under the codec, 1/4 under sim
    PACK: (400, 400, 2.0, 2.0, {CODEC: (300, 300, 1.5, 1.5), SIM: (100, 100, 0.5, 0.5)}),
    # sorted (C) called from sim, calling len (C): len inherits sorted's split
    SORTED: (10, 10, 0.6, 1.0, {SIM: (10, 10, 0.6, 1.0)}),
    LEN: (1000, 1000, 0.4, 0.4, {SORTED: (1000, 1000, 0.4, 0.4)}),
}


def test_layer_of_file():
    assert layer_of_file(SIM[0]) == "sim"
    assert layer_of_file(NUMPY[0]) == "numpy"
    assert layer_of_file(OTHER[0]) == "stdlib"
    assert layer_of_file(MAIN[0]) == "stdlib"          # not a package under repro/
    assert layer_of_file("/work/repro/bench/child.py") == "stdlib"
    assert layer_of_file("/work/repro/src/repro/zones/builders.py") == "zones"
    assert layer_of_file("~") is None


def test_c_calls_are_charged_to_the_callers_layer():
    cells = rollup(STATS)
    assert cells["dnscore"]["self_s"] == pytest.approx(2.0 + 1.5)
    assert cells["dnscore"]["calls"] == pytest.approx(100 + 300)
    # sim: own 3.0 + pack 0.5 + sorted 0.6 + len (through sorted) 0.4
    assert cells["sim"]["self_s"] == pytest.approx(3.0 + 0.5 + 0.6 + 0.4)
    assert cells["sim"]["calls"] == pytest.approx(1 + 100 + 10 + 1000)
    assert cells["numpy"]["self_s"] == pytest.approx(1.0)
    assert cells["stdlib"]["self_s"] == pytest.approx(0.5 + 0.5)


def test_shares_sum_to_one_and_calls_are_conserved():
    metrics = layer_metrics(STATS, ops=100)
    shares = [metrics[f"{layer}.self_share"] for layer in LAYERS]
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)
    calls = sum(metrics[f"{layer}.calls_per_op"] for layer in LAYERS)
    assert calls == pytest.approx(total_calls(STATS) / 100)


def test_c_function_without_callers_lands_in_stdlib():
    cells = rollup({PACK: (3, 3, 0.3, 0.3, {})})
    assert cells["stdlib"] == {"self_s": 0.3, "calls": 3.0}


def test_entry_points_resolve_to_profile_keys():
    import layers

    key = layers.entry_point_key("layers:rollup")
    assert key == (layers.__file__, rollup.__code__.co_firstlineno, "rollup")
    assert layers.entry_point_key("layers:no_such_function") is None
    assert layers.entry_point_key("no_such_module:f") is None

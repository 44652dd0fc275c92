"""Benchmark: sovereignty + composition aggregators in the streaming fold.

Runs the root vantage (the composition-heavy capture: chromium probes
dominate its junk) through the pooled streaming runtime, then times each
new aggregator folding the same rows chunk-by-chunk in isolation — the
marginal per-row cost the registry paid to gain the jurisdiction and
taxonomy cuts.  Records throughput plus the headline analysis results in
``BENCH_sovereignty.json``.

Shape assertions (the extension's acceptance):

* the streaming-run aggregates agree with an in-memory recount of the
  materialised rows (exact fields bit-equal, sketch bounds containing
  the true counts);
* every reported share is a genuine fraction and the Five Eyes bloc is
  populated (US cloud ASes guarantee it);
* isolated fold throughput clears a conservative floor, so an
  accidentally quadratic feed path fails loudly here before it lands.
"""

import json
import os
import time
from collections import Counter

from conftest import emit

from repro.analysis import (
    Attributor,
    CompositionAggregator,
    DatasetAnalytics,
    SovereigntyAggregator,
)
from repro.clouds import PROVIDERS
from repro.config import resolve_scale
from repro.sim import run_dataset
from repro.workload import dataset

BENCH_SOVEREIGNTY_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_sovereignty.json"
)

DATASET = "root-2020"
WORKERS = 2
BASE_VOLUME = 8_000
CHUNK_ROWS = 8_192
#: Conservative rows/s floor for each isolated aggregator fold.
MIN_ROWS_PER_S = 2_000


def timed_fold(aggregator, capture, attributor):
    attributions = [
        (view, attributor.attribute(view))
        for view in capture.iter_views(CHUNK_ROWS)
    ]
    start = time.perf_counter()
    for view, attribution in attributions:
        aggregator.feed(view, attribution)
    elapsed = time.perf_counter() - start
    return aggregator.total / max(elapsed, 1e-9)


def test_bench_sovereignty_composition():
    volume = max(1_500, int(BASE_VOLUME * resolve_scale()))
    run = run_dataset(
        dataset(DATASET), client_queries=volume, workers=WORKERS, stream=True,
    )
    analytics = DatasetAnalytics(run.aggregates)
    sovereignty = analytics.sovereignty()
    composition = analytics.composition(top_k=10)

    # Parity against an in-memory recount of the materialised rows.
    view = run.capture.view()
    attributor = Attributor(run.registry, PROVIDERS)
    attribution = attributor.attribute(view)
    truth = Counter(str(q) for q in view.qname)
    assert sovereignty.total_queries == len(view)
    assert composition.total_queries == len(view)
    assert sum(composition.category_counts.values()) == len(view)
    for hitter in composition.heavy_hitters:
        true_count = truth.get(hitter.qname, 0)
        assert hitter.lower_bound <= true_count <= hitter.estimate
        assert hitter.cm_estimate >= true_count

    five_eyes = sovereignty.bloc("Five Eyes")
    assert 0.0 < five_eyes.query_share <= 1.0
    assert 0.0 <= five_eyes.cloud_share <= 1.0
    for row in sovereignty.countries:
        assert 0.0 <= row.query_share <= 1.0
    noerror_share = composition.category_shares["noerror"]
    assert 0.0 <= noerror_share <= 1.0

    # Marginal per-row cost of each new aggregator, isolated.
    sov_rows_per_s = timed_fold(
        SovereigntyAggregator(PROVIDERS), run.capture, attributor
    )
    comp_rows_per_s = timed_fold(
        CompositionAggregator(PROVIDERS), run.capture, attributor
    )

    payload = {
        "generated_unix": time.time(),
        "dataset": DATASET,
        "workers": WORKERS,
        "queries": volume,
        "rows": len(view),
        "sovereignty_rows_per_s": sov_rows_per_s,
        "composition_rows_per_s": comp_rows_per_s,
        "countries_observed": len(sovereignty.countries),
        "five_eyes_query_share": five_eyes.query_share,
        "five_eyes_cloud_share": five_eyes.cloud_share,
        "eu_query_share": sovereignty.bloc("EU").query_share,
        "noerror_share": noerror_share,
        "chromium_probe_share": composition.category_shares["chromium_probe"],
        "heavy_hitters_tracked": len(composition.heavy_hitters),
        "cm_error_bound": composition.cm_error_bound,
        "cm_confidence": composition.cm_confidence,
    }
    with open(BENCH_SOVEREIGNTY_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    emit(
        f"sovereignty/composition: {DATASET} @ {volume} queries, "
        f"{WORKERS} workers — sovereignty fold {sov_rows_per_s:.0f} rows/s, "
        f"composition fold {comp_rows_per_s:.0f} rows/s; "
        f"Five Eyes {five_eyes.query_share:.3f} "
        f"(cloud {five_eyes.cloud_share:.3f}), "
        f"chromium probes {payload['chromium_probe_share']:.3f}, "
        f"{payload['heavy_hitters_tracked']} heavy hitters "
        f"(cm bound ±{composition.cm_error_bound:.1f})"
    )

    assert sov_rows_per_s >= MIN_ROWS_PER_S
    assert comp_rows_per_s >= MIN_ROWS_PER_S

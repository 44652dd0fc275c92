#!/usr/bin/env python3
"""Outage drill: what happens to `.nl` resolution as its NS set goes dark.

The paper's introduction motivates centralization risk with the 2016 Dyn
and 2019 AWS DDoS events.  This example runs that scenario against the
simulated `.nl` deployment: servers are taken offline one at a time while
a resolver population keeps resolving, and the client-visible failure rate
plus the retry load on the survivors are reported.

It also demonstrates capture persistence: the baseline capture is written
to a compact, checksummed chunk file and re-loaded for analysis.

Usage::

    python examples/outage_drill.py [scale]
"""

import sys
import tempfile
from pathlib import Path

from repro.capture import read_chunk, write_chunk
from repro.experiments import ExperimentContext, extension_outage
from repro.reporting import bar_chart
from repro.sim import run_dataset
from repro.workload import dataset


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.4
    ctx = ExperimentContext(scale=scale)

    print("running outage scenarios against nl-w2020 ...")
    report = extension_outage.run(ctx, client_queries=4000)
    print()
    print(report.to_text())
    print()
    print(bar_chart(
        [f"{n} down" for n in report.series["offline"]],
        report.series["servfail"],
        title="Client-visible failure rate vs servers offline:",
        value_format="{:.2f}",
    ))

    # Persistence demo: simulate a small baseline, store it, reload it.
    descriptor = dataset("nl-w2020")
    run = run_dataset(descriptor, client_queries=int(2000 * scale))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "nl-w2020.chunk"
        size = write_chunk(path, run.capture.view())
        loaded = read_chunk(path)
        print()
        print(
            f"warehouse round trip: wrote {len(run.capture)} rows "
            f"({size // 1024} KiB), reloaded {len(loaded)} rows"
        )


if __name__ == "__main__":
    main()

"""``PYTHONPATH=src python tests/tools/storm.py SCALE [SEED]``: simulate the
Feb-2020 ``.nz`` Google month, the cyclic-dependency storm of the paper's
section 4.2.1 (``monthly_google_descriptor("nz", 2020, 2)``), at ``SCALE``
times its client-query volume (at least 500 queries, as
:class:`repro.experiments.ExperimentContext` runs it), serially, with the
given seed (default 20201027).

It builds the month's world first with an empty run, so that both readings
below are the resolve loop alone, then simulates the month twice:

* ``cpu_s``: the process CPU seconds of one untraced run;
* ``calls_per_query``: the function calls ``cProfile`` counts in a second,
  profiled run, per client query — summed over ``Profile.getstats()``,
  which keeps one entry per code object.  (``pstats`` keys functions by
  file, line and name, and every dataclass ``__init__`` is
  ``('<string>', 2, '__init__')``, so it keeps one of them and drops the
  rest's calls.)

and prints them with the capture's row count, its view digest
(``tests.helpers.view_digest``) and ``peak_rss_mb``, the process's
``ru_maxrss``: the maximum over the world build and both runs, a trend
number, not a gate.  The two runs must agree on the digest, or it exits
1.  Compare two checkouts by running it from each one's root.
"""

import cProfile
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from repro.sim import run_dataset  # noqa: E402
from repro.workload import monthly_google_descriptor  # noqa: E402
from tests.helpers import view_digest  # noqa: E402

STORM = monthly_google_descriptor("nz", 2020, 2)


def main(scale: float, seed: int) -> int:
    queries = max(500, int(STORM.client_queries * scale))
    run_dataset(STORM, seed=seed, client_queries=0)  # the world, built once

    started = time.process_time()
    run = run_dataset(STORM, seed=seed, client_queries=queries)
    cpu_s = time.process_time() - started
    digest = view_digest(run.capture.view())

    profiler = cProfile.Profile()
    profiled = profiler.runcall(
        run_dataset, STORM, seed=seed, client_queries=queries
    )
    calls = sum(entry.callcount for entry in profiler.getstats())
    same = view_digest(profiled.capture.view()) == digest
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    print(
        f"{STORM.dataset_id} scale {scale} seed {seed}: {queries} client queries, "
        f"cpu_s {cpu_s:.2f}, calls_per_query {calls / queries:.1f}, "
        f"rows {len(run.capture)}, digest {digest}, peak_rss_mb {peak_rss_mb:.1f}"
    )
    if not same:
        print("the profiled run's capture differs from the untraced run's")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(float(sys.argv[1]), int(sys.argv[2]) if sys.argv[2:] else 20201027))

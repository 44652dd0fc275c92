"""``PYTHONPATH=src python tests/tools/session.py SCALE [SEED]``: render the
``experiments`` document in one process, as ``repro experiments --scale
SCALE`` does (one :class:`repro.experiments.ExperimentContext`, every
report and the ``claims`` report through ``run_and_render``), with the
given seed (default 20201027), and print one line:

* ``wall_s``: the wall seconds of the whole session;
* the ``worlds:`` counts the CLI closes on (fleets built and borrowed,
  zones built);
* ``peak_rss_mb``: the process's ``ru_maxrss`` over the session, a trend
  number, not a gate;
* ``digest``: the document's digest with the lines that embed wall time
  dropped (the ``telemetry: `` and ``* total wall time:`` lines), so two
  checkouts that render the same reports print the same digest.

Compare two checkouts by running it from each one's root, alternating.
"""

import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from repro.experiments import ExperimentContext  # noqa: E402
from repro.experiments.render_all import run_and_render  # noqa: E402
from tests.helpers import digest  # noqa: E402

#: Prefixes of the document's lines that embed wall time.
WALL_PREFIXES = ("telemetry: ", "* total wall time:")


def main(scale: float, seed: int) -> int:
    started = time.perf_counter()
    ctx = ExperimentContext(scale=scale, seed=seed)
    document = run_and_render(ctx)
    wall_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    stable = "\n".join(
        line for line in document.split("\n") if not line.startswith(WALL_PREFIXES)
    )
    lookups = ctx.telemetry.snapshot().counter
    print(
        f"experiments scale {scale} seed {seed}: wall_s {wall_s:.1f}, "
        f"worlds: {lookups('runtime.env_cache.miss', part='fleet')} fleets built, "
        f"{lookups('runtime.env_cache.hit', part='fleet')} borrowed; "
        f"{lookups('runtime.env_cache.miss', part='zone')} zones built, "
        f"peak_rss_mb {peak_rss_mb:.1f}, digest {digest(stable)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(float(sys.argv[1]), int(sys.argv[2]) if sys.argv[2:] else 20201027))

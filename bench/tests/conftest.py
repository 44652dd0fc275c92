"""``python -m pytest bench/tests -q`` — the benchmark's own tests (not part
of the repository's tier-1 suite; ``testpaths`` stays ``tests``)."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

"""The harness's own spans, kept in memory and written out when a run ends.

One recorder per process; ``run.py`` tags the rows a child hands back with
that child's number, so (``process``, ``id``) names a span and ``parent``
refers to an ``id`` of the same process.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import List, Optional


class Spans:
    def __init__(self, workload: str, process: str = "parent"):
        self.workload = workload
        self.process = process
        self.rows: List[dict] = []
        self._stack: List[int] = []
        self._next_id = 0        # rows may also hold other processes' spans

    @contextmanager
    def span(self, name: str):
        parent: Optional[int] = self._stack[-1] if self._stack else None
        row = {
            "process": self.process, "id": self._next_id, "parent": parent,
            "name": name, "workload": self.workload,
            "start": time.perf_counter(), "end": None,
        }
        self._next_id += 1
        self.rows.append(row)
        self._stack.append(row["id"])
        try:
            yield row
        finally:
            row["end"] = time.perf_counter()
            self._stack.pop()

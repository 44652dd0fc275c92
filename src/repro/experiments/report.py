"""Experiment reports: paper-vs-measured, rendered as text.

Every experiment produces a :class:`Report` whose rows pair the paper's
published value with the reproduction's measured value.  Published
numbers are read from :mod:`repro.paper`, where each is stated once (and
where the fleet profiles read the cells that are simulator inputs);
prose expectations such as ``"~1.0"`` stay beside the row that prints
them.  Absolute numbers are not expected to match (the substrate is a
scaled simulator); the report makes the comparison inspectable.  The
paper's story over these rows — its orderings, signs, thresholds and
detected months — is :data:`repro.paper.CLAIMS`, checked by
:mod:`repro.experiments.claims`; nothing scores the pairs row by row yet
(ROADMAP.md item 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

Number = Union[int, float, str, None]


@dataclass
class ReportRow:
    """One paper-vs-measured comparison line."""

    label: str
    paper: Number
    measured: Number
    unit: str = ""
    note: str = ""

    def format_value(self, value: Number) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)


@dataclass
class Report:
    """A reproduced table or figure."""

    experiment_id: str     #: e.g. "figure1a", "table5"
    title: str
    rows: List[ReportRow] = field(default_factory=list)
    series: Dict[str, List] = field(default_factory=dict)  #: chart data
    notes: List[str] = field(default_factory=list)
    #: Telemetry attached by the runner harness (render_all): how long this
    #: experiment took, and which session counters it moved (simulation +
    #: analysis work it triggered; empty when everything came from cache).
    wall_time_s: Optional[float] = None
    counter_deltas: Dict[str, int] = field(default_factory=dict)
    #: Sketch-derived (approximate) results — e.g. heavy-hitter lists from
    #: the composition aggregator.  Kept out of ``rows``/``series`` because
    #: those are held to bit-identity however the capture was chunked;
    #: entries here are only guaranteed within stated error bounds (and
    #: may legitimately differ between worker counts and volumes).
    approx: Dict[str, object] = field(default_factory=dict)

    def add(self, label: str, paper: Number, measured: Number, unit: str = "", note: str = "") -> None:
        self.rows.append(ReportRow(label, paper, measured, unit, note))

    def row(self, label: str) -> ReportRow:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)

    def measured(self, label: str) -> Number:
        return self.row(label).measured

    def to_text(self) -> str:
        lines = [f"== {self.experiment_id}: {self.title} ==", ""]
        if self.rows:
            label_w = max(len(r.label) for r in self.rows)
            label_w = max(label_w, len("metric"))
            header = f"{'metric'.ljust(label_w)}  {'paper':>12}  {'measured':>12}  unit"
            lines.append(header)
            lines.append("-" * len(header))
            for row in self.rows:
                lines.append(
                    f"{row.label.ljust(label_w)}  "
                    f"{row.format_value(row.paper):>12}  "
                    f"{row.format_value(row.measured):>12}  "
                    f"{row.unit}"
                    + (f"   # {row.note}" if row.note else "")
                )
        for note in self.notes:
            lines.append(f"note: {note}")
        for key, value in self.approx.items():
            lines.append(f"approx[{key}]: {value}")
        if self.wall_time_s is not None:
            telemetry = f"telemetry: wall {self.wall_time_s:.2f}s"
            if self.counter_deltas:
                top = sorted(
                    self.counter_deltas.items(), key=lambda kv: (-abs(kv[1]), kv[0])
                )[:4]
                deltas = ", ".join(f"{key} +{value}" for key, value in top)
                telemetry += f"; {deltas}"
                if len(self.counter_deltas) > len(top):
                    telemetry += f" (+{len(self.counter_deltas) - len(top)} more)"
            lines.append(telemetry)
        return "\n".join(lines)

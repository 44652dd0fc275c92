"""ASCII chart rendering for experiment reports.

The examples print these beside the paper-vs-measured numbers so a
terminal user can eyeball the same shapes the paper's figures show.
"""

from __future__ import annotations

from typing import Sequence, Tuple

#: Bar length, in characters, of the largest value of a :func:`bar_chart`,
BAR_WIDTH = 40
#: and of a :func:`cdf_plot`'s y = 1.
CDF_WIDTH = 50


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    title: str = "",
    value_format: str = "{:.3f}",
) -> str:
    """A horizontal bar chart, one row per label."""
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    lines = [title] if title else []
    if not values:
        return "\n".join(lines + ["(no data)"])
    peak = max(max(values), 1e-12)
    label_w = max((len(l) for l in labels), default=0)
    for label, value in zip(labels, values):
        bar = "#" * max(0, int(round(value / peak * BAR_WIDTH)))
        lines.append(
            f"{label.ljust(label_w)} | {bar.ljust(BAR_WIDTH)} {value_format.format(value)}"
        )
    return "\n".join(lines)


def cdf_plot(points: Sequence[Tuple[int, float]], title: str = "") -> str:
    """A step-CDF rendered as one row per distinct x value."""
    lines = [title] if title else []
    if not points:
        return "\n".join(lines + ["(no data)"])
    for x, y in points:
        bar = "#" * int(round(y * CDF_WIDTH))
        lines.append(f"{x:>6} | {bar.ljust(CDF_WIDTH)} {y:.3f}")
    return "\n".join(lines)


def sparkline(values: Sequence[float]) -> str:
    """A one-line trend (Figure 3 style NS-share series)."""
    if not values:
        return ""
    blocks = "▁▂▃▄▅▆▇█"
    low, high = min(values), max(values)
    span = (high - low) or 1.0
    return "".join(
        blocks[int((value - low) / span * (len(blocks) - 1))] for value in values
    )

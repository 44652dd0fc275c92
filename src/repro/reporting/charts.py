"""ASCII chart rendering for experiment reports.

The benchmarks print these alongside the paper-vs-measured tables so a
terminal user can eyeball the same shapes the paper's figures show.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

#: Bar length, in characters, of the largest value of a :func:`bar_chart`,
BAR_WIDTH = 40
#: of a :func:`grouped_bar_chart`,
GROUPED_BAR_WIDTH = 30
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


def grouped_bar_chart(groups: Sequence[str], series: Dict[str, Sequence[float]]) -> str:
    """Bars for several series per group (Figure 2-style RR mixes)."""
    lines = []
    peak = max(
        (max(values) for values in series.values() if len(values)), default=1e-12
    )
    peak = max(peak, 1e-12)
    name_w = max((len(name) for name in series), default=0)
    for index, group in enumerate(groups):
        lines.append(f"{group}:")
        for name, values in series.items():
            value = values[index] if index < len(values) else 0.0
            bar = "#" * max(0, int(round(value / peak * GROUPED_BAR_WIDTH)))
            lines.append(
                f"  {name.ljust(name_w)} | {bar.ljust(GROUPED_BAR_WIDTH)} {value:.3f}"
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

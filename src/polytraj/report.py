"""Report emission: CSV tables, static SVG line charts, summary tables.

Everything here is deterministic: fixed field order, repr-formatted
floats, no timestamps, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .evaluation import EvalReport

# Published NGSim five-second RMSE benchmarks quoted for the summary table.
REFERENCE_COLUMNS = (
    ("Coords baseline", (0.43, 1.00, 1.72, 2.76, 3.98)),
    ("Poly (ours)", (0.55, 0.93, 1.64, 2.64, 3.85)),
    ("CS-LSTM (M)", (0.62, 1.27, 2.09, 3.10, 4.37)),
    ("MFP-1", (0.54, 1.16, 1.90, 2.78, 3.83)),
)

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


@dataclass(frozen=True)
class Series:
    """One labelled curve: ADE (metres) against frame offsets."""

    label: str
    offsets: tuple[int, ...]
    values: tuple[float, ...]


@dataclass
class StudyReport:
    """Curves produced by one experimental study."""

    name: str
    fingerprint: str
    series: list[Series] = field(default_factory=list)
    sample_count: int = 0  # test samples every curve averages over


def write_study_csv(report: StudyReport, path) -> None:
    """One row per offset per method."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "offset_frames", "ade_m"])
        for series in report.series:
            for offset, value in zip(series.offsets, series.values):
                writer.writerow([series.label, str(int(offset)), repr(float(value))])


def write_eval_csv(report: EvalReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "offset_frames", "value_m"])
        for offset, value in zip(report.rmse_offsets, report.rmse):
            writer.writerow(["rmse", str(int(offset)), repr(float(value))])
        for offset, value in zip(report.rmse_offsets, report.ade_curve):
            writer.writerow(["ade", str(int(offset)), repr(float(value))])


def write_loss_csv(loss_curve: Sequence[tuple[int, float]], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss"])
        for step, loss in loss_curve:
            writer.writerow([str(int(step)), repr(float(loss))])


# -- SVG charts ---------------------------------------------------------------


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def write_svg_chart(
    series: Sequence[Series],
    path,
    title: str,
    x_label: str = "offset (frames)",
    y_label: str = "ADE (m)",
) -> None:
    """Minimal static line chart; hand-rolled so output is byte-stable."""
    width, height = 640, 420
    left, right, top, bottom = 60, 200, 40, 50
    plot_w = width - left - right
    plot_h = height - top - bottom
    xs = [x for s in series for x in s.offsets]
    ys = [y for s in series for y in s.values]
    x_lo, x_hi = (min(xs), max(xs)) if xs else (0.0, 1.0)
    y_lo, y_hi = 0.0, (max(ys) if ys else 1.0)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    def sx(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="24" font-family="sans-serif" font-size="15">{title}</text>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
    ]
    for tick in _ticks(x_lo, x_hi):
        x = sx(tick)
        parts.append(
            f'<line x1="{x:.2f}" y1="{top + plot_h}" x2="{x:.2f}" y2="{top + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{top + plot_h + 20}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{tick:.0f}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        y = sy(tick)
        parts.append(f'<line x1="{left - 5}" y1="{y:.2f}" x2="{left}" y2="{y:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{left - 8}" y="{y + 4:.2f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{tick:.2f}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.2f}" y="{height - 10}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{top + plot_h / 2:.2f}" font-family="sans-serif" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 16 {top + plot_h / 2:.2f})">{y_label}</text>'
    )
    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(s.offsets, s.values))
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = top + 16 + i * 18
        lx = left + plot_w + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" font-size="11">{s.label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(parts) + "\n")


# -- summary table ----------------------------------------------------------------


def format_summary_table(measured: dict[str, np.ndarray]) -> str:
    """Five-second RMSE table with the published reference columns.

    `measured` maps a column label (e.g. 'Poly (ours)') to five RMSE values
    at 1..5 s; measured columns replace the matching reference column.
    """
    columns = []
    for label, reference in REFERENCE_COLUMNS:
        if label in measured:
            columns.append((label, tuple(float(v) for v in measured[label]), False))
        else:
            columns.append((label, reference, True))
    for label in measured:
        if label not in [c[0] for c in columns]:
            columns.append((label, tuple(float(v) for v in measured[label]), False))
    header = ["Offset (sec)"] + [c[0] + (" [ref]" if c[2] else "") for c in columns]
    widths = [len(h) for h in header]
    rows = []
    for i in range(5):
        row = [str(i + 1)] + [f"{c[1][i]:.2f}" for c in columns]
        rows.append(row)
        widths = [max(w, len(v)) for w, v in zip(widths, row)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)

"""Report emission: CSV tables, static SVG line charts of ADE against
offset, and the five-second RMSE summary table.

`HEADS` is the one home of each head's table label and file-name slug.
Everything here is deterministic: fixed field order, repr-formatted
floats, no timestamps, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .evaluation import EvalReport
from .files import write_text
from .model import COORDINATES, POLYNOMIAL

HEADS = {POLYNOMIAL: ("Poly (ours)", "poly"), COORDINATES: ("Coords baseline", "coords")}
"""Each `model.head`'s summary-table label and output file-name slug."""

# Published NGSim five-second RMSE benchmarks quoted for the summary table.
REFERENCE_COLUMNS = (
    (HEADS[COORDINATES][0], (0.43, 1.00, 1.72, 2.76, 3.98)),
    (HEADS[POLYNOMIAL][0], (0.55, 0.93, 1.64, 2.64, 3.85)),
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


@dataclass(frozen=True)
class StudyReport:
    """Curves produced by one experimental study."""

    series: list[Series]
    sample_count: int  # test samples every curve averages over


def _write_csv(path, header: list[str], rows) -> None:
    """The one CSV row writer: a header, then each row."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    write_text(path, text.getvalue())


def write_study_csv(report: StudyReport, path) -> None:
    """One row per offset per method."""
    _write_csv(path, ["method", "offset_frames", "ade_m"], (
        [series.label, str(int(offset)), repr(float(value))]
        for series in report.series
        for offset, value in zip(series.offsets, series.values)
    ))


def write_eval_csv(report: EvalReport, path) -> None:
    _write_csv(path, ["metric", "offset_frames", "value_m"], (
        [metric, str(int(offset)), repr(float(value))]
        for metric, values in (("rmse", report.rmse), ("ade", report.ade_curve))
        for offset, value in zip(report.rmse_offsets, values)
    ))


def write_loss_csv(loss_curve: Sequence[tuple[int, float]], path) -> None:
    _write_csv(path, ["step", "loss"], ([str(int(step)), repr(float(loss))] for step, loss in loss_curve))


# -- SVG charts ---------------------------------------------------------------


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def write_svg_chart(series: Sequence[Series], path, title: str) -> None:
    """Minimal static line chart of ADE against offset; hand-rolled so output
    is byte-stable."""
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
        f'font-size="12" text-anchor="middle">offset (frames)</text>'
    )
    parts.append(
        f'<text x="16" y="{top + plot_h / 2:.2f}" font-family="sans-serif" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 16 {top + plot_h / 2:.2f})">ADE (m)</text>'
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
    write_text(path, "\n".join(parts) + "\n", encoding="ascii")


# -- summary table ----------------------------------------------------------------


def format_summary_table(measured: dict[str, np.ndarray]) -> str:
    """Five-second RMSE table with the published reference columns.

    `measured` maps a `HEADS` label (e.g. 'Poly (ours)') to five RMSE values
    at 1..5 s, which replace that label's reference column.
    """
    columns = []
    for label, reference in REFERENCE_COLUMNS:
        if label in measured:
            columns.append((label, tuple(float(v) for v in measured[label]), False))
        else:
            columns.append((label, reference, True))
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

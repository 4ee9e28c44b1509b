"""Report content: time-bucketed prediction counts, per-class keyword
tables as CSV rows, and small dependency-free SVG line charts.  The CLI
writes every CSV and chart."""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from typing import Iterable, Sequence

from .corpus import timestamp_date
from .evaluation import MetricsReport
from .features import FeatureSet, SelectedTerm
from .stance import Stance

GRANULARITIES = ("month", "day")


@dataclass(frozen=True)
class TimeBucket:
    period: str  # "YYYY-MM" or "YYYY-MM-DD"
    count_support: int
    count_oppose: int


def _period(key: int, granularity: str) -> str:
    """Label of a month key (year * 12 + month - 1) or a day key (ordinal),
    zero-padded for years below 1000 as the timestamps are."""
    if granularity == "month":
        year, month = divmod(key, 12)
        return f"{year:04d}-{month + 1:02d}"
    return date.fromordinal(key).isoformat()


def timeseries(
    items: Iterable[tuple[str, Stance]], granularity: str = "month"
) -> list[TimeBucket]:
    """Chronological per-period stance counts over (canonical timestamp
    text, stance) pairs; empty periods inside the observed range are
    emitted with zero counts."""
    if granularity not in GRANULARITIES:
        raise ValueError(f"granularity must be one of {GRANULARITIES}")
    by_month = granularity == "month"
    counts: dict[int, list[int]] = {}
    for text, stance in items:
        day = timestamp_date(text)
        key = day.year * 12 + day.month - 1 if by_month else day.toordinal()
        counts.setdefault(key, [0, 0])[0 if stance is Stance.SUPPORTING else 1] += 1
    if not counts:
        return []
    return [TimeBucket(_period(key, granularity), *counts.get(key, (0, 0)))
            for key in range(min(counts), max(counts) + 1)]


def _log_cell(count: int) -> str:
    return "" if count == 0 else f"{math.log10(count):.4f}"


def timeseries_csv_rows(buckets: Sequence[TimeBucket]) -> list[list[str]]:
    out = [["period", "count_support", "count_oppose", "log10_support", "log10_oppose"]]
    for b in buckets:
        out.append([b.period, str(b.count_support), str(b.count_oppose),
                    _log_cell(b.count_support), _log_cell(b.count_oppose)])
    return out


def keyword_report(
    feature_set: FeatureSet, top_n: int = 10
) -> tuple[list[SelectedTerm], list[SelectedTerm]]:
    """Top scored terms split by associated class, score order preserved."""
    if top_n < 1:
        raise ValueError("top_n must be at least 1")
    support = [t for t in feature_set.terms if t.direction is Stance.SUPPORTING][:top_n]
    oppose = [t for t in feature_set.terms if t.direction is Stance.OPPOSING][:top_n]
    return support, oppose


def keywords_csv_rows(
    support: Sequence[SelectedTerm], oppose: Sequence[SelectedTerm]
) -> list[list[str]]:
    out = [["class", "rank", "term", "score"]]
    for cls, terms in ((Stance.SUPPORTING, support), (Stance.OPPOSING, oppose)):
        for rank, term in enumerate(terms, 1):
            out.append([cls.wire, str(rank), term.term, f"{term.score:.6f}"])
    return out


# ---------------------------------------------------------------------------
# SVG line charts.  Hand emitted with fixed float formatting so identical
# inputs produce identical bytes.

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")

_WIDTH, _HEIGHT = 720, 440
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 70, 20, 40, 56
_MAX_X_TICKS = 12


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _tick_label(value: float) -> str:
    return f"{value:.4g}"


def svg_line_chart(
    series: Sequence[tuple[str, Sequence[tuple[float, float]]]],
    *,
    title: str,
    x_label: str,
    y_label: str,
    x_tick_labels: Sequence[str] | None = None,
) -> str:
    """Render named (x, y) series as one SVG document string.

    With x_tick_labels the x axis is treated as categorical: point x values
    are positions into that label list.
    """
    xs = [p[0] for _, points in series for p in points]
    ys = [p[1] for _, points in series for p in points]
    x_min, x_max = (min(xs), max(xs)) if xs else (0.0, 1.0)
    y_min, y_max = (min(ys), max(ys)) if ys else (0.0, 1.0)
    if x_max == x_min:
        x_min, x_max = x_min - 0.5, x_max + 0.5
    if y_max == y_min:
        y_min, y_max = y_min - 0.5, y_max + 0.5
    pad = 0.05 * (y_max - y_min)
    y_min, y_max = y_min - pad, y_max + pad

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + (x - x_min) / (x_max - x_min) * plot_w

    def py(y: float) -> float:
        return _MARGIN_TOP + plot_h - (y - y_min) / (y_max - y_min) * plot_h

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    out.append(
        f'<text x="{_WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{_escape(title)}</text>'
    )
    axis_y = _MARGIN_TOP + plot_h
    out.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{axis_y}" x2="{_MARGIN_LEFT + plot_w}" y2="{axis_y}" '
        'stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" x2="{_MARGIN_LEFT}" y2="{axis_y}" '
        'stroke="black" stroke-width="1"/>'
    )

    for i in range(5):
        y_val = y_min + (y_max - y_min) * i / 4
        y_pos = py(y_val)
        out.append(
            f'<line x1="{_MARGIN_LEFT - 4}" y1="{_fmt(y_pos)}" x2="{_MARGIN_LEFT}" '
            f'y2="{_fmt(y_pos)}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{_fmt(y_pos + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_tick_label(y_val)}</text>'
        )

    if x_tick_labels:
        step = max(1, math.ceil(len(x_tick_labels) / _MAX_X_TICKS))
        tick_info = [(float(i), label) for i, label in enumerate(x_tick_labels) if i % step == 0]
    else:
        tick_info = [(x_min + (x_max - x_min) * i / 4, "") for i in range(5)]
        tick_info = [(v, _tick_label(v)) for v, _ in tick_info]
    for x_val, label in tick_info:
        x_pos = px(x_val)
        out.append(
            f'<line x1="{_fmt(x_pos)}" y1="{axis_y}" x2="{_fmt(x_pos)}" y2="{axis_y + 4}" '
            'stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(x_pos)}" y="{axis_y + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_escape(label)}</text>'
        )

    for k, (name, points) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        if points:
            coords = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in points)
            out.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
            )
        legend_y = _MARGIN_TOP + 14 + 16 * k
        legend_x = _MARGIN_LEFT + plot_w - 150
        out.append(
            f'<line x1="{legend_x}" y1="{legend_y - 4}" x2="{legend_x + 20}" y2="{legend_y - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{legend_x + 26}" y="{legend_y}" font-family="sans-serif" '
            f'font-size="12">{_escape(name)}</text>'
        )

    out.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.0f}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{_escape(x_label)}</text>'
    )
    out.append(
        f'<text x="16" y="{_MARGIN_TOP + plot_h / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_MARGIN_TOP + plot_h / 2:.0f})">{_escape(y_label)}</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def timeseries_chart(buckets: Sequence[TimeBucket], granularity: str = "month") -> str:
    periods = [b.period for b in buckets]
    support = [(float(i), float(b.count_support)) for i, b in enumerate(buckets)]
    oppose = [(float(i), float(b.count_oppose)) for i, b in enumerate(buckets)]
    return svg_line_chart(
        [("support", support), ("oppose", oppose)],
        title="Predicted stance volume over time",
        x_label=granularity,
        y_label="tweets",
        x_tick_labels=periods,
    )


def sweep_chart(rows: Sequence[tuple[float, MetricsReport]], axis: str) -> str:
    support = [(float(v), r.per_class[Stance.SUPPORTING].f1) for v, r in rows]
    oppose = [(float(v), r.per_class[Stance.OPPOSING].f1) for v, r in rows]
    micro = [(float(v), r.micro_f1) for v, r in rows]
    return svg_line_chart(
        [("f1 support", support), ("f1 oppose", oppose), ("micro f1", micro)],
        title=f"Metrics vs {axis}",
        x_label=axis,
        y_label="score",
    )

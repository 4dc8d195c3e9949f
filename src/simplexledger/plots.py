"""Self-contained SVG line charts; no plotting dependencies.

Charts are for human inspection of run output.  Values are mapped into a
fixed frame; optional log scaling drops non-positive points.
"""

from __future__ import annotations

import math
from typing import TextIO

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _transform(v: float, log: bool) -> float | None:
    if log:
        if v <= 0:
            return None
        return math.log10(v)
    return v


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / n
    return [lo + i * step for i in range(n + 1)]


def _fmt(v: float, log: bool) -> str:
    value = 10**v if log else v
    if value != 0 and (abs(value) >= 1e5 or abs(value) < 1e-3):
        return f"{value:.2e}"
    if abs(value - round(value)) < 1e-9:
        return str(int(round(value)))
    return f"{value:.3g}"


def svg_line_chart(
    series: list[tuple[str, list[tuple[float, float]]]],
    out: TextIO,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    log_y: bool = False,
) -> None:
    """Write a multi-series line chart to the text stream ``out``."""
    pts: list[tuple[str, list[tuple[float, float]]]] = []
    for label, raw in series:
        cleaned = []
        for x, y in raw:
            ty = _transform(y, log_y)
            if ty is not None:
                cleaned.append((x, ty))
        if cleaned:
            pts.append((label, cleaned))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    if pts:
        all_x = [x for _, p in pts for x, _ in p]
        all_y = [y for _, p in pts for _, y in p]
        x_lo, x_hi = min(all_x), max(all_x)
        y_lo, y_hi = min(all_y), max(all_y)
        if x_hi == x_lo:
            x_hi = x_lo + 1
        if y_hi == y_lo:
            y_hi = y_lo + 1

        def sx(x: float) -> float:
            return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

        def sy(y: float) -> float:
            return MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

        for tick in _ticks(x_lo, x_hi):
            px = sx(tick)
            parts.append(
                f'<line x1="{px:.1f}" y1="{MARGIN_T + plot_h}" x2="{px:.1f}" '
                f'y2="{MARGIN_T + plot_h + 5}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{px:.1f}" y="{MARGIN_T + plot_h + 18}" '
                f'font-size="11" text-anchor="middle">{_fmt(tick, False)}</text>'
            )
        for tick in _ticks(y_lo, y_hi):
            py = sy(tick)
            parts.append(
                f'<line x1="{MARGIN_L - 5}" y1="{py:.1f}" x2="{MARGIN_L}" '
                f'y2="{py:.1f}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{MARGIN_L - 8}" y="{py + 4:.1f}" font-size="11" '
                f'text-anchor="end">{_fmt(tick, log_y)}</text>'
            )
        for i, (label, p) in enumerate(pts):
            color = _PALETTE[i % len(_PALETTE)]
            coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in p)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                'stroke-width="1.5"/>'
            )
            parts.append(
                f'<text x="{WIDTH - MARGIN_R - 5}" y="{MARGIN_T + 15 + i * 15}" '
                f'font-size="11" text-anchor="end" fill="{color}">{label}</text>'
            )

    # frame and labels
    parts.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="black"/>'
    )
    if title:
        parts.append(
            f'<text x="{WIDTH / 2}" y="22" font-size="14" '
            f'text-anchor="middle">{title}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{MARGIN_L + plot_w / 2}" y="{HEIGHT - 12}" '
            f'font-size="12" text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{MARGIN_T + plot_h / 2}" font-size="12" '
            f'text-anchor="middle" '
            f'transform="rotate(-90 16 {MARGIN_T + plot_h / 2})">{ylabel}</text>'
        )
    parts.append("</svg>")
    out.write("\n".join(parts))

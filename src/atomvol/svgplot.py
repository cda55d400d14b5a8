"""Minimal static SVG 1.1 line plots; no plotting dependency.

Output is a pure function of the input series, so identical data always
produces byte-identical documents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["Series", "render_plot"]

_WIDTH = 820
_HEIGHT = 520
_MARGIN_L = 70
_MARGIN_R = 20
_MARGIN_T = 40
_MARGIN_B = 50


@dataclass(frozen=True)
class Series:
    """One plotted series: polyline by default, markers when requested."""

    label: str
    color: str
    points: tuple = field(default_factory=tuple)  # ((x, y), ...)
    dashed: bool = False
    markers: bool = False


# text content: a label may hold any of the three characters XML reserves there
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    raw = (hi - lo) / target
    power = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * power
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


def render_plot(
    series: list[Series],
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    pts = [p for s in series for p in s.points if all(math.isfinite(c) for c in p)]
    if pts:
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
    else:
        x_lo = y_lo = 0.0
        x_hi = y_hi = 1.0
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad_y = 0.05 * (y_hi - y_lo)
    y_lo -= pad_y
    y_hi += pad_y

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title.translate(_XML_TEXT)}</text>',
    ]

    # axes box and ticks
    parts.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="black" stroke-width="1"/>'
    )
    for t in _nice_ticks(x_lo, x_hi):
        px = sx(t)
        parts.append(
            f'<line x1="{px:.2f}" y1="{_MARGIN_T + plot_h}" x2="{px:.2f}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{_MARGIN_T + plot_h + 20}" '
            f'text-anchor="middle" font-family="sans-serif" '
            f'font-size="11">{_fmt(t)}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        py = sy(t)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{py:.2f}" x2="{_MARGIN_L}" '
            f'y2="{py:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 9}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.0f}" y="{_HEIGHT - 12}" '
        f'text-anchor="middle" font-family="sans-serif" '
        f'font-size="13">{xlabel.translate(_XML_TEXT)}</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_T + plot_h / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {_MARGIN_T + plot_h / 2:.0f})">{ylabel.translate(_XML_TEXT)}</text>'
    )

    # data
    for s in series:
        good = [p for p in s.points if all(math.isfinite(c) for c in p)]
        if not good:
            continue
        if s.markers:
            for x, y in good:
                parts.append(
                    f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3.5" '
                    f'fill="none" stroke="{s.color}" stroke-width="1.5"/>'
                )
        else:
            coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in good)
            dash = ' stroke-dasharray="6,4"' if s.dashed else ""
            parts.append(
                f'<polyline points="{coords}" fill="none" '
                f'stroke="{s.color}" stroke-width="1.8"{dash}/>'
            )

    # legend, top-right inside the plot box
    ly = _MARGIN_T + 14
    for s in series:
        lx = _MARGIN_L + plot_w - 190
        if s.markers:
            parts.append(
                f'<circle cx="{lx + 14}" cy="{ly - 4:.0f}" r="3.5" fill="none" '
                f'stroke="{s.color}" stroke-width="1.5"/>'
            )
        else:
            dash = ' stroke-dasharray="6,4"' if s.dashed else ""
            parts.append(
                f'<line x1="{lx}" y1="{ly - 4:.0f}" x2="{lx + 28}" '
                f'y2="{ly - 4:.0f}" stroke="{s.color}" stroke-width="1.8"{dash}/>'
            )
        parts.append(
            f'<text x="{lx + 34}" y="{ly:.0f}" font-family="sans-serif" '
            f'font-size="12">{s.label.translate(_XML_TEXT)}</text>'
        )
        ly += 17

    parts.append("</svg>")
    return "\n".join(parts) + "\n"

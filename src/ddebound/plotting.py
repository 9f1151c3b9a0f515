"""CSV and static SVG emission.

CSV files carry a header row and shortest round-trip decimal formatting
(`repr` of the float).  SVG output is hand-rolled: polyline curves, axis
ticks and a legend; region boundaries are drawn in polar form with the
natural logarithm of the radius as the radial coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = ["Curve", "emit_csv", "emit_svg", "emit_region_svg"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_DASHES = ("", "8 4", "2 3", "8 2 2 2")


@dataclass(frozen=True)
class Curve:
    label: str
    x: np.ndarray
    y: np.ndarray


def emit_csv(columns: Sequence[tuple[str, Sequence[float]]], path) -> None:
    """Write named columns as CSV (UTF-8, header row, full precision)."""
    if not columns:
        raise ValueError("no columns to write")
    lengths = {len(values) for _name, values in columns}
    if len(lengths) != 1:
        raise ValueError(f"columns have unequal lengths {sorted(lengths)}")
    if lengths == {0}:
        raise ValueError("columns are empty")
    path = Path(path)
    lines = [",".join(name for name, _values in columns)]
    floats = [np.asarray(values, dtype=float).tolist() for _name, values in columns]
    lines += [",".join(map(repr, row)) for row in zip(*floats)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    power = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * power
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * abs(hi):
        ticks.append(round(t, 12))
        t += step
    return ticks


def emit_svg(curves: Sequence[Curve], path, title: str = "",
             xlabel: str = "t", ylabel: str = "value",
             width: int = 840, height: int = 560) -> None:
    """Render curves into a standalone SVG file with axes and a legend."""
    if not curves:
        raise ValueError("no curves to plot")
    for curve in curves:
        if len(curve.x) == 0 or len(curve.x) != len(curve.y):
            raise ValueError(f"curve {curve.label!r} has empty or mismatched data")
    x_lo = min(float(np.min(c.x)) for c in curves)
    x_hi = max(float(np.max(c.x)) for c in curves)
    y_lo = min(float(np.min(c.y)) for c in curves)
    y_hi = max(float(np.max(c.y)) for c in curves)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad_y = 0.05 * (y_hi - y_lo)
    y_lo -= pad_y
    y_hi += pad_y
    margin_l, margin_r, margin_t, margin_b = 70, 20, 40, 55
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    def sx(x: float) -> float:
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return margin_t + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444" stroke-width="1"/>',
    ]
    if title:
        parts.append(f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="16">{title}</text>')
    for tick in _nice_ticks(x_lo, x_hi):
        px = sx(tick)
        parts.append(f'<line x1="{px:.2f}" y1="{margin_t + plot_h}" x2="{px:.2f}" '
                     f'y2="{margin_t + plot_h + 5}" stroke="#444"/>')
        parts.append(f'<text x="{px:.2f}" y="{margin_t + plot_h + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" font-size="11">'
                     f'{tick:g}</text>')
    for tick in _nice_ticks(y_lo, y_hi):
        py = sy(tick)
        parts.append(f'<line x1="{margin_l - 5}" y1="{py:.2f}" x2="{margin_l}" '
                     f'y2="{py:.2f}" stroke="#444"/>')
        parts.append(f'<text x="{margin_l - 8}" y="{py + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{tick:g}</text>')
    parts.append(f'<text x="{margin_l + plot_w / 2:.1f}" y="{height - 12}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="13">'
                 f'{xlabel}</text>')
    parts.append(f'<text x="16" y="{margin_t + plot_h / 2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 16 {margin_t + plot_h / 2:.1f})">{ylabel}</text>')
    for idx, curve in enumerate(curves):
        color = _COLORS[idx % len(_COLORS)]
        dash = _DASHES[idx % len(_DASHES)]
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        points = " ".join(f"{sx(float(x)):.2f},{sy(float(y)):.2f}"
                          for x, y in zip(curve.x, curve.y))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"{dash_attr}/>')
        ly = margin_t + 16 + 18 * idx
        lx = margin_l + plot_w - 170
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 28}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.5"{dash_attr}/>')
        parts.append(f'<text x="{lx + 34}" y="{ly}" font-family="sans-serif" '
                     f'font-size="12">{curve.label}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def emit_region_svg(boundaries: Sequence[tuple[str, np.ndarray, np.ndarray]], path,
                    title: str = "") -> None:
    """Polar plot of region boundaries with ln(radius) as the radial value.

    ``boundaries`` holds ``(label, angles, radii)`` triples; each curve is
    closed.  A negative ln-radius reflects the point through the origin,
    matching the usual reading of negative radial coordinates.
    """
    curves = []
    for label, angles, radii in boundaries:
        angles = np.asarray(angles, dtype=float)
        radii = np.asarray(radii, dtype=float)
        if angles.size == 0 or angles.size != radii.size:
            raise ValueError(f"boundary {label!r} has empty or mismatched data")
        if np.any(radii <= 0):
            raise ValueError(f"boundary {label!r} has nonpositive radii")
        log_r = np.log(radii)
        xs = log_r * np.cos(angles)
        ys = log_r * np.sin(angles)
        xs = np.append(xs, xs[0])
        ys = np.append(ys, ys[0])
        curves.append(Curve(label, xs, ys))
    emit_svg(curves, path, title=title, xlabel="ln(r) cos(angle)",
             ylabel="ln(r) sin(angle)")

"""Small deterministic SVG line plots for eigenvalue branches.

No plotting dependency: the files are assembled from fixed-precision
strings so reruns of the same experiment produce byte-identical output.
"""
from __future__ import annotations

import math

from .branches import LABEL_LARGE, LABEL_VS, LABEL_ZERO

LABEL_COLORS = {
    LABEL_ZERO: "#2a9d2a",
    LABEL_VS: "#1f5fbf",
    LABEL_LARGE: "#9a9a9a",
}


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        return "0"
    s = f"{x:.2f}"
    return "0.00" if s == "-0.00" else s


def _ticks(lo: float, hi: float, n: int = 6):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= m * mag:
            step = m * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    v = start
    while v <= hi + 1e-12 * step:
        out.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return out


def _tick_label(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.0e}"
    return f"{v:g}"


def branch_plot(deg, grid, log_scale: bool = False) -> str:
    """SVG of the eigenvalue curves of one package degree, colored by
    label, with one legend entry per label."""
    width, height = 720, 460
    branches = list(deg.branches) + list(deg.large)
    xs = [float(t) for t in grid]
    series = []
    for b in branches:
        ys = [b.value_at(t) for t in xs]
        if log_scale:
            ys = [math.log10(max(y, 1e-16)) for y in ys]
        series.append(ys)
    colors = [LABEL_COLORS.get(b.label, "#000000") for b in branches]
    ylabel = "log10 lambda" if log_scale else "lambda"
    title = f"degree {deg.degree} branches" + (" (log)" if log_scale else "")

    ml, mr, mt, mb = 64.0, 16.0, 34.0, 44.0
    pw, ph = width - ml - mr, height - mt - mb
    ys_all = [float(y) for ys in series for y in ys if math.isfinite(y)]
    if not ys_all:
        ys_all = [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x):
        return ml + pw * (x - x_lo) / (x_hi - x_lo)

    def sy(y):
        return mt + ph * (1.0 - (y - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{_fmt(width / 2)}" y="20" font-family="sans-serif" '
        f'font-size="14" text-anchor="middle">{title}</text>',
    ]
    axis = ('stroke="#444444" stroke-width="1"')
    parts.append(f'<line x1="{_fmt(ml)}" y1="{_fmt(mt + ph)}" '
                 f'x2="{_fmt(ml + pw)}" y2="{_fmt(mt + ph)}" {axis}/>')
    parts.append(f'<line x1="{_fmt(ml)}" y1="{_fmt(mt)}" '
                 f'x2="{_fmt(ml)}" y2="{_fmt(mt + ph)}" {axis}/>')
    for v in _ticks(x_lo, x_hi):
        x = sx(v)
        parts.append(f'<line x1="{_fmt(x)}" y1="{_fmt(mt + ph)}" '
                     f'x2="{_fmt(x)}" y2="{_fmt(mt + ph + 4)}" {axis}/>')
        parts.append(f'<text x="{_fmt(x)}" y="{_fmt(mt + ph + 18)}" '
                     f'font-family="sans-serif" font-size="11" '
                     f'text-anchor="middle">{_tick_label(v)}</text>')
    for v in _ticks(y_lo, y_hi):
        y = sy(v)
        parts.append(f'<line x1="{_fmt(ml - 4)}" y1="{_fmt(y)}" '
                     f'x2="{_fmt(ml)}" y2="{_fmt(y)}" {axis}/>')
        parts.append(f'<text x="{_fmt(ml - 8)}" y="{_fmt(y + 4)}" '
                     f'font-family="sans-serif" font-size="11" '
                     f'text-anchor="end">{_tick_label(v)}</text>')
    parts.append(f'<text x="{_fmt(ml + pw / 2)}" y="{_fmt(height - 8)}" '
                 f'font-family="sans-serif" font-size="12" '
                 f'text-anchor="middle">t</text>')
    parts.append(f'<text x="16" y="{_fmt(mt + ph / 2)}" '
                 f'font-family="sans-serif" font-size="12" '
                 f'text-anchor="middle" '
                 f'transform="rotate(-90 16 {_fmt(mt + ph / 2)})">{ylabel}</text>')

    for ys, color in zip(series, colors):
        pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(float(y)))}"
                       for x, y in zip(xs, ys) if math.isfinite(float(y)))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
    seen = []
    for b, color in zip(branches, colors):
        if b.label in seen:
            continue
        seen.append(b.label)
        y = mt + 14 + 16 * (len(seen) - 1)
        parts.append(f'<line x1="{_fmt(ml + pw - 110)}" y1="{_fmt(y - 4)}" '
                     f'x2="{_fmt(ml + pw - 86)}" y2="{_fmt(y - 4)}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_fmt(ml + pw - 80)}" y="{_fmt(y)}" '
                     f'font-family="sans-serif" font-size="11">{b.label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def write_svg(path, svg: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg + "\n")

"""Minimal deterministic SVG figures: frequency-response curves and
deformation patterns.  Text output only, stable across runs, so golden
tests can diff structurally."""

from __future__ import annotations

import math
from dataclasses import dataclass

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)

W, H = 840, 520
MARGIN = dict(left=70, right=170, top=40, bottom=55)


def _fmt(v: float) -> str:
    return f"{v:.6g}"


@dataclass
class Series:
    label: str
    x: list
    y: list


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10 ** math.floor(math.log10(raw))
    step = min(s for s in (1 * mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * step:
        out.append(round(t, 12))
        t += step
    return out


def line_chart(series: list[Series], title: str, xlabel: str, ylabel: str) -> str:
    xs = [v for s in series for v in s.x]
    ys = [v for s in series for v in s.y]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, max(ys) * 1.08 if max(ys) > 0 else 1.0
    px = lambda x: MARGIN["left"] + (x - x_lo) / (x_hi - x_lo or 1.0) * (W - MARGIN["left"] - MARGIN["right"])
    py = lambda y: H - MARGIN["bottom"] - (y - y_lo) / (y_hi - y_lo or 1.0) * (H - MARGIN["top"] - MARGIN["bottom"])

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W / 2}" y="22" text-anchor="middle" font-size="15">{title}</text>',
    ]
    axis = (
        f'M {px(x_lo)} {py(y_lo)} L {px(x_hi)} {py(y_lo)} '
        f'M {px(x_lo)} {py(y_lo)} L {px(x_lo)} {py(y_hi)}'
    )
    parts.append(f'<path d="{axis}" stroke="black" fill="none"/>')
    for t in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{_fmt(px(t))}" y1="{py(y_lo)}" x2="{_fmt(px(t))}" y2="{py(y_lo) + 5}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(px(t))}" y="{py(y_lo) + 20}" text-anchor="middle">{_fmt(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{px(x_lo) - 5}" y1="{_fmt(py(t))}" x2="{px(x_lo)}" y2="{_fmt(py(t))}" stroke="black"/>')
        parts.append(f'<text x="{px(x_lo) - 9}" y="{_fmt(py(t) + 4)}" text-anchor="end">{_fmt(t)}</text>')
    parts.append(f'<text x="{W / 2}" y="{H - 12}" text-anchor="middle">{xlabel}</text>')
    parts.append(
        f'<text x="18" y="{H / 2}" text-anchor="middle" transform="rotate(-90 18 {H / 2})">{ylabel}</text>'
    )
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(s.x, s.y))
        parts.append(f'<polyline points="{pts}" stroke="{color}" fill="none" stroke-width="1.5"/>')
        for x, y in zip(s.x, s.y):
            parts.append(f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="2.5" fill="{color}"/>')
        ly = MARGIN["top"] + 16 * i
        lx = W - MARGIN["right"] + 14
        parts.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly + 4}">{s.label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def deformation_chart(
    outline: list[tuple[float, float]],
    stations: list[tuple[str, float, float, float, float, float, float]],
    title: str,
    xlabel: str,
    ylabel: str,
    scale_note: str,
) -> str:
    """Initial positions plus displaced markers.

    ``stations`` rows: (id, x0, y0, x_meas, y_meas, x_rigid, y_rigid),
    already in display (exaggerated) coordinates.
    """
    xs = [p[0] for p in outline] + [s[1] for s in stations]
    ys = [p[1] for p in outline] + [s[2] for s in stations]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    pad_x = 0.12 * (x_hi - x_lo or 1.0)
    pad_y = 0.18 * (y_hi - y_lo or 1.0)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y
    px = lambda x: MARGIN["left"] + (x - x_lo) / (x_hi - x_lo) * (W - MARGIN["left"] - MARGIN["right"])
    py = lambda y: H - MARGIN["bottom"] - (y - y_lo) / (y_hi - y_lo) * (H - MARGIN["top"] - MARGIN["bottom"])

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W / 2}" y="22" text-anchor="middle" font-size="15">{title}</text>',
        f'<text x="{W / 2}" y="{H - 12}" text-anchor="middle">{xlabel} -- {scale_note}</text>',
        f'<text x="18" y="{H / 2}" text-anchor="middle" transform="rotate(-90 18 {H / 2})">{ylabel}</text>',
    ]
    pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in outline + outline[:1])
    parts.append(f'<polyline points="{pts}" stroke="#999999" fill="none" stroke-dasharray="6 4"/>')
    for sid, x0, y0, xm, ym, xr, yr in stations:
        parts.append(f'<circle cx="{_fmt(px(x0))}" cy="{_fmt(py(y0))}" r="2" fill="#bbbbbb"/>')
        parts.append(
            f'<line x1="{_fmt(px(x0))}" y1="{_fmt(py(y0))}" x2="{_fmt(px(xm))}" y2="{_fmt(py(ym))}" '
            f'stroke="#1f77b4" stroke-width="1"/>'
        )
        parts.append(f'<rect x="{_fmt(px(xm) - 3)}" y="{_fmt(py(ym) - 3)}" width="6" height="6" fill="#1f77b4"/>')
        parts.append(
            f'<path d="M {_fmt(px(xr))} {_fmt(py(yr) - 4)} L {_fmt(px(xr) - 4)} {_fmt(py(yr) + 3)} '
            f'L {_fmt(px(xr) + 4)} {_fmt(py(yr) + 3)} Z" fill="none" stroke="#d62728"/>'
        )
        parts.append(f'<text x="{_fmt(px(x0) + 5)}" y="{_fmt(py(y0) - 5)}" font-size="9">{sid}</text>')
    lx = W - MARGIN["right"] + 14
    parts.append(f'<rect x="{lx}" y="{MARGIN["top"] - 4}" width="6" height="6" fill="#1f77b4"/>')
    parts.append(f'<text x="{lx + 12}" y="{MARGIN["top"] + 3}">measured</text>')
    parts.append(
        f'<path d="M {lx + 3} {MARGIN["top"] + 12} L {lx - 1} {MARGIN["top"] + 19} L {lx + 7} {MARGIN["top"] + 19} Z" '
        f'fill="none" stroke="#d62728"/>'
    )
    parts.append(f'<text x="{lx + 12}" y="{MARGIN["top"] + 19}">rigid body</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

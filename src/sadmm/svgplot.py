"""Minimal self-contained SVG line charts: objective (log scale) against
k, with a legend and one polyline per series."""

from __future__ import annotations

import math

import numpy as np

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_WIDTH, _HEIGHT = 720, 480
_MARGIN = 60


def _scale(values, lo, hi, out_lo, out_hi, log):
    if log:
        values, lo, hi = np.log10(values), math.log10(lo), math.log10(hi)
    if hi <= lo:
        hi = lo + 1.0
    return out_lo + (values - lo) / (hi - lo) * (out_hi - out_lo)


def emit_svg(series: dict, path) -> None:
    """Write a line chart; series maps label -> (k array, objective array).

    Nonpositive objectives are dropped from the log-scaled y axis.
    """
    cleaned = {}
    for label, (x, y) in series.items():
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        mask = np.isfinite(x) & np.isfinite(y) & (y > 0)
        cleaned[label] = (x[mask], y[mask])

    xs = np.concatenate([v[0] for v in cleaned.values() if v[0].size]) \
        if any(v[0].size for v in cleaned.values()) else np.array([1.0])
    ys = np.concatenate([v[1] for v in cleaned.values() if v[1].size]) \
        if any(v[1].size for v in cleaned.values()) else np.array([1.0])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_WIDTH - 2 * _MARGIN}" '
        f'height="{_HEIGHT - 2 * _MARGIN}" fill="none" stroke="black"/>',
        f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 15}" text-anchor="middle" '
        'font-size="14">k</text>',
        f'<text x="18" y="{_HEIGHT // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {_HEIGHT // 2})">objective (log)</text>',
    ]
    for i, (label, (x, y)) in enumerate(cleaned.items()):
        color = _COLORS[i % len(_COLORS)]
        if x.size:
            px = _scale(x, x_lo, x_hi, _MARGIN, _WIDTH - _MARGIN, log=False)
            py = _scale(y, y_lo, y_hi, _HEIGHT - _MARGIN, _MARGIN, log=True)
            points = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        else:
            points = ""
        lines.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{points}"/>')
        ly = _MARGIN + 18 + 18 * i
        lines.append(f'<line x1="{_WIDTH - _MARGIN - 130}" y1="{ly - 4}" '
                     f'x2="{_WIDTH - _MARGIN - 105}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        lines.append(f'<text x="{_WIDTH - _MARGIN - 100}" y="{ly}" '
                     f'font-size="13">{label}</text>')
    lines.append("</svg>")
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines))
    except OSError as exc:
        raise OSError(f"failed writing SVG to {path}: {exc}") from exc

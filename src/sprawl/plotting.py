"""Static SVG renderings of 2-d regions via marching squares.

Purely visual output: the boundary is the zero level of
max_k(remoteness_k - radius_k) sampled on a grid, with linear
interpolation along cell edges and the mean of the four corner values
to break the two ambiguous cases. Deterministic for fixed inputs.
"""
from __future__ import annotations

import numpy as np

from .ambit import Ambit
from .errors import SizeLimitError

#: Samples a side at most: the grid costs several resolution² float arrays
#: and a pure-Python pass over its cells.
MAX_RESOLUTION = 2048

# For each of the 16 corner-sign cases, the cell edges (pairs of corner
# indices 0..3 in CCW order) that the boundary crosses. 5 and 10 are the
# ambiguous saddles, resolved by the mean of the corner values.
_CASES = {
    0: [],
    1: [((0, 3), (0, 1))],
    2: [((0, 1), (1, 2))],
    3: [((0, 3), (1, 2))],
    4: [((1, 2), (2, 3))],
    6: [((0, 1), (2, 3))],
    7: [((0, 3), (2, 3))],
    8: [((2, 3), (0, 3))],
    9: [((2, 3), (0, 1))],
    11: [((2, 3), (1, 2))],
    12: [((1, 2), (0, 3))],
    13: [((1, 2), (0, 1))],
    14: [((0, 1), (0, 3))],
    15: [],
}


def field_grid(region: Ambit, focus_xy: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """max over rows of remoteness - radius, sampled on the grid (len(ys), len(xs))."""
    gx, gy = np.meshgrid(xs, ys)
    feats = np.stack([np.hypot(gx - fx, gy - fy).ravel() for fx, fy in focus_xy])  # (m, ny*nx)
    vals = region.map.remoteness(feats) - np.asarray(region.radii, dtype=float)[:, None]
    return np.max(vals, axis=0).reshape(gx.shape)


def _interp(p0, p1, v0, v1):
    t = 0.5 if v0 == v1 else min(max(v0 / (v0 - v1), 0.0), 1.0)
    return (p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]))


def marching_squares(values: np.ndarray, xs: np.ndarray, ys: np.ndarray):
    """Line segments of the zero contour; values indexed [y, x]."""
    segments = []
    ny, nx = values.shape
    for j in range(ny - 1):
        for i in range(nx - 1):
            corners = [(xs[i], ys[j]), (xs[i + 1], ys[j]), (xs[i + 1], ys[j + 1]), (xs[i], ys[j + 1])]
            vals = [values[j, i], values[j, i + 1], values[j + 1, i + 1], values[j + 1, i]]
            case = sum(1 << k for k, v in enumerate(vals) if v <= 0.0)
            if case in (5, 10):
                center_in = (sum(vals) / 4.0) <= 0
                if case == 5:
                    pairs = [((0, 1), (1, 2)), ((0, 3), (2, 3))] if center_in else [((0, 1), (0, 3)), ((1, 2), (2, 3))]
                else:
                    pairs = [((0, 1), (0, 3)), ((1, 2), (2, 3))] if center_in else [((0, 1), (1, 2)), ((0, 3), (2, 3))]
            else:
                pairs = _CASES[case]
            for (a0, a1), (b0, b1) in pairs:
                p = _interp(corners[a0], corners[a1], vals[a0], vals[a1])
                q = _interp(corners[b0], corners[b1], vals[b0], vals[b1])
                segments.append((p, q))
    return segments


def region_svg(region: Ambit, focus_xy, bounds=(-1.5, 1.5, -1.5, 1.5), resolution: int = 512) -> str:
    """Render the region boundary plus focus markers as an SVG document."""
    if resolution > MAX_RESOLUTION:
        raise SizeLimitError(f"plot resolution capped at {MAX_RESOLUTION} samples a side, got {resolution}")
    focus_xy = np.atleast_2d(np.asarray(focus_xy, dtype=float))
    if focus_xy.shape != (region.degree, 2):
        raise ValueError("need one (x, y) position per focus")
    xmin, xmax, ymin, ymax = bounds
    xs = np.linspace(xmin, xmax, resolution)
    ys = np.linspace(ymin, ymax, resolution)
    values = field_grid(region, focus_xy, xs, ys)
    segments = marching_squares(values, xs, ys)

    def fmt(v: float) -> str:
        return f"{v:.5f}"

    w, h = xmax - xmin, ymax - ymin
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{fmt(xmin)} {fmt(ymin)} {fmt(w)} {fmt(h)}" '
        f'width="480" height="{fmt(480 * h / w)}">',
        f'<rect x="{fmt(xmin)}" y="{fmt(ymin)}" width="{fmt(w)}" height="{fmt(h)}" fill="#f4f4f4"/>',
    ]
    if segments:
        path = " ".join(
            f"M {fmt(p[0])} {fmt(p[1])} L {fmt(q[0])} {fmt(q[1])}" for p, q in segments
        )
        parts.append(f'<path d="{path}" stroke="#333333" stroke-width="{fmt(w / 300)}" fill="none"/>')
    for fx, fy in focus_xy:
        parts.append(f'<circle cx="{fmt(fx)}" cy="{fmt(fy)}" r="{fmt(w / 120)}" fill="#c33"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

"""Static SVG rendering of 2-D datasets and decision regions.

The decision regions come from a grid raster: the model is evaluated at
every cell center and cells are colored by the thresholded side. Runs of
same-class cells merge into single rectangles to keep files small. Output
is a pure function of the inputs, so reruns are byte-identical.
"""

from __future__ import annotations

import numpy as np

CANVAS = 640
PAD = 20
CLASS0_POINT = "#2c5f9e"
CLASS1_POINT = "#c44e52"
CLASS0_FILL = "#dce8f5"
CLASS1_FILL = "#f8e0e0"
OVERLAY_POINT = "#2ca02c"


def _fmt(value: float) -> str:
    return f"{value:.2f}".rstrip("0").rstrip(".")


def render_plot2d(dataset, f, grid: int = 200, overlay=None) -> str:
    """Render SVG: decision-region raster, data points, optional overlay.

    ``overlay`` is an optional (m, 2) array of extra points (for example a
    generated adversarial set) drawn on top of the raster.
    """
    if dataset.dimension != 2:
        raise ValueError(f"plotting requires a 2-D dataset, got dimension {dataset.dimension}")
    if grid < 2:
        raise ValueError(f"grid must be >= 2, got {grid}")
    X = dataset.features
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    margin = 0.08 * np.maximum(hi - lo, 1e-9)
    lo = lo - margin
    hi = hi + margin
    side = CANVAS - 2 * PAD
    cell = side / grid

    centers_x = lo[0] + (np.arange(grid) + 0.5) / grid * (hi[0] - lo[0])
    centers_y = hi[1] - (np.arange(grid) + 0.5) / grid * (hi[1] - lo[1])
    gx, gy = np.meshgrid(centers_x, centers_y)
    probe = np.column_stack([gx.ravel(), gy.ravel()])
    labels = (np.asarray(f(probe)) >= 0.5).reshape(grid, grid)

    parts = ['<?xml version="1.0" encoding="UTF-8"?>',
             f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'width="{CANVAS}" height="{CANVAS}" viewBox="0 0 {CANVAS} {CANVAS}">',
             f'<rect x="0" y="0" width="{CANVAS}" height="{CANVAS}" fill="#ffffff"/>']

    parts.append('<g shape-rendering="crispEdges">')
    for row, line in enumerate(labels):
        y = PAD + row * cell
        # a run starts at column 0 and wherever the class changes
        starts = [0, *(np.flatnonzero(line[1:] != line[:-1]) + 1).tolist()]
        for col, run in zip(starts, starts[1:] + [grid]):
            fill = CLASS1_FILL if line[col] else CLASS0_FILL
            parts.append(
                f'<rect x="{_fmt(PAD + col * cell)}" y="{_fmt(y)}" '
                f'width="{_fmt((run - col) * cell)}" height="{_fmt(cell)}" '
                f'fill="{fill}"/>'
            )
    parts.append("</g>")

    groups = [(X[dataset.labels == 0], CLASS0_POINT, 3), (X[dataset.labels == 1], CLASS1_POINT, 3)]
    if overlay is not None and len(overlay):
        groups.append((np.atleast_2d(np.asarray(overlay, dtype=np.float64)), OVERLAY_POINT, 2))
    for points, color, radius in groups:
        sx = PAD + (points[:, 0] - lo[0]) / (hi[0] - lo[0]) * side
        sy = PAD + (hi[1] - points[:, 1]) / (hi[1] - lo[1]) * side
        parts.append(f'<g fill="{color}">')
        for px, py in zip(sx, sy):
            parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{radius}"/>')
        parts.append("</g>")

    parts.append(f'<rect x="{PAD}" y="{PAD}" width="{side}" height="{side}" '
                 'fill="none" stroke="#444444" stroke-width="1"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

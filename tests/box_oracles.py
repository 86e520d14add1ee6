"""Scalar reference forms of the box arithmetic in ``scaleloc.geometry``.

``geometry`` computes on (N, 4) arrays; these one-box loops are the
independent oracles the tests check it against.
"""

import math

import numpy as np

from scaleloc.geometry import BBox

SIZE_FLOOR = 1.0  # decoded sides never drop below one pixel
LOG_RATIO_MAX = math.log(1000.0 / 16.0)  # normalized size ratios clamp here


def iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union of two boxes, in [0, 1]."""
    ix = min(a.x2, b.x2) - max(a.x, b.x)
    iy = min(a.y2, b.y2) - max(a.y, b.y)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def clip(b: BBox, extent, min_side: float = 2.0) -> BBox:
    """Intersect a box with [0, W] x [0, H]; an empty intersection gives a
    ``min_side`` square inside the image nearest the box center."""
    width, height = extent
    if width <= 0 or height <= 0:
        raise ValueError("extent sides must be positive")
    x0 = max(b.x, 0.0)
    y0 = max(b.y, 0.0)
    x1 = min(b.x2, float(width))
    y1 = min(b.y2, float(height))
    if x1 > x0 and y1 > y0:
        return BBox(x0, y0, x1 - x0, y1 - y0)

    side_w = min(min_side, float(width))
    side_h = min(min_side, float(height))
    cx = min(max(b.cx, side_w / 2.0), width - side_w / 2.0)
    cy = min(max(b.cy, side_h / 2.0), height - side_h / 2.0)
    return BBox(cx - side_w / 2.0, cy - side_h / 2.0, side_w, side_h)


def encode(anchor: BBox, target: BBox, mode: str = "raw") -> np.ndarray:
    """Target relative to anchor: differences, or normalized corner
    offsets and log size ratios."""
    if mode == "raw":
        return np.array(
            [
                target.x - anchor.x,
                target.y - anchor.y,
                target.w - anchor.w,
                target.h - anchor.h,
            ]
        )
    if mode == "normalized":
        return np.array(
            [
                (target.x - anchor.x) / anchor.w,
                (target.y - anchor.y) / anchor.h,
                math.log(target.w / anchor.w),
                math.log(target.h / anchor.h),
            ]
        )
    raise ValueError(f"unknown regression mode {mode!r}")


def decode(anchor: BBox, vec, mode: str = "raw") -> BBox:
    """Invert :func:`encode`, flooring sides at ``SIZE_FLOOR`` and
    clamping normalized log size ratios at ``LOG_RATIO_MAX``."""
    v0, v1, v2, v3 = (float(v) for v in vec)
    if mode == "raw":
        w = max(anchor.w + v2, SIZE_FLOOR)
        h = max(anchor.h + v3, SIZE_FLOOR)
        return BBox(anchor.x + v0, anchor.y + v1, w, h)
    if mode == "normalized":
        w = anchor.w * math.exp(min(v2, LOG_RATIO_MAX))
        h = anchor.h * math.exp(min(v3, LOG_RATIO_MAX))
        return BBox(
            anchor.x + v0 * anchor.w,
            anchor.y + v1 * anchor.h,
            max(w, SIZE_FLOOR),
            max(h, SIZE_FLOOR),
        )
    raise ValueError(f"unknown regression mode {mode!r}")
